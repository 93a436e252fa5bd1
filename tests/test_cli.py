import builtins
import csv
import hashlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import labelnoise
from labelnoise import data as data_mod
from labelnoise import learners
from labelnoise.cli import (
    MAX_GRID_POINTS,
    REPORT_CSV_HEADER,
    SIMULATE_CSV_HEADER,
    UsageError,
    _simulate_point,
    build_parser,
    cmd_simulate,
    main,
    parse_grid,
)
from labelnoise.data import (
    BlobSpec, LabeledDataset, corrupt_dataset, make_blobs, write_csv, write_json,
)
from labelnoise.noise import NoiseSpec

from conftest import BY_HAND, UNVERIFIABLE, readme_commands, run_readme


def run(*argv):
    return main([str(a) for a in argv])


def make_input(tmp_path, name="input", ratio=None, c=4, d=3, n_per_class=40, seed=3):
    D = make_blobs(BlobSpec(c=c, d=d, n_per_class=n_per_class, separation=6.0,
                            spread=1.0, seed=seed))
    if ratio is not None:
        D = corrupt_dataset(D, NoiseSpec(kind="symmetric", ratio=ratio, seed=seed + 1))
    path = tmp_path / name
    data_mod.save(D, path)
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# grid parsing


def test_grid_range_is_inclusive():
    grid = parse_grid("0:1:0.05")
    assert len(grid) == 21
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid[7] == 0.35  # rounded to exact figures, no float drift


def test_grid_accepts_lists_and_scalars():
    assert parse_grid("0.1,0.3,0.9") == [0.1, 0.3, 0.9]
    assert parse_grid("0.4") == [0.4]
    assert parse_grid("") == []
    assert parse_grid("1:0:0.1") == []  # empty descending range


def test_grid_rounding_absorbs_accumulated_error():
    assert parse_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]


def test_grid_rejects_malformed_ranges():
    with pytest.raises(UsageError, match="start:stop:step"):
        parse_grid("0:1")
    with pytest.raises(UsageError, match="step"):
        parse_grid("0:1:0")


@pytest.mark.parametrize(
    "grid, message",
    [
        ("0.1,abc", "--grid value 'abc' is not a number"),
        ("0:abc:0.1", "--grid value 'abc' is not a number"),
        ("0:inf:0.1", "--grid value 'inf' is not finite"),
        ("0.1,nan", "--grid value 'nan' is not finite"),
        ("0:1e12:1e-3", "--grid '0:1e12:1e-3' has more than 1000000 points"),
        ("-1e308:1e308:1", "--grid '-1e308:1e308:1' has more than 1000000 points"),
    ],
)
def test_grid_rejects_values_and_sizes_it_cannot_use(tmp_path, capsys, grid, message):
    # each is a usage error (exit 2) raised before any grid point is made
    out = tmp_path / "o"
    assert main(["theory", "--kind", "symmetric", f"--grid={grid}", "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_grid_caps_a_range_at_max_grid_points():
    # 0:1:1e-6 has MAX_GRID_POINTS + 1 points; 0:1:1e-5 has 100,001
    assert MAX_GRID_POINTS == 10**6
    with pytest.raises(UsageError, match="more than 1000000 points"):
        parse_grid("0:1:1e-6")
    assert len(parse_grid("0:1:1e-5")) == 100_001


# ---------------------------------------------------------------------------
# table writer


def test_write_csv_formats_floats_and_stringifies_other_cells(tmp_path):
    write_csv(
        tmp_path / "t.csv",
        ["name", "n", "x"],
        [["a", 3, 0.1], ["b", np.int64(4), np.float64(1 / 3)],
         ["c", 5, float("nan")], ["d", 6, np.float32(0.5)]],
    )
    assert (tmp_path / "t.csv").read_text() == (
        "name,n,x\na,3,0.10000000000000001\nb,4,0.33333333333333331\n"
        "c,5,nan\nd,6,0.5\n"
    )
    write_csv(tmp_path / "m.csv", None, np.eye(2))
    assert (tmp_path / "m.csv").read_text() == "1,0\n0,1\n"


def test_write_json_writes_null_for_non_finite_floats(tmp_path):
    finite = {"b": [1, np.float64(1 / 3), (0.1, "x")], "a": {"c": -0.0, "d": None}}
    write_json(tmp_path / "f.json", finite)
    assert (tmp_path / "f.json").read_text() == json.dumps(finite, sort_keys=True, indent=2) + "\n"
    write_json(tmp_path / "n.json", {**finite, "e": [np.nan, {"f": -math.inf}], "g": math.inf})
    assert (tmp_path / "n.json").read_text() == json.dumps(
        {**finite, "e": [None, {"f": None}], "g": None}, sort_keys=True, indent=2
    ) + "\n"


# ---------------------------------------------------------------------------
# exit codes


def test_missing_required_argument_exits_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run("corrupt", "--in", tmp_path, "--noise", "symmetric", "--out", tmp_path / "o")
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["corrupt", "--in", "ds", "--noise", "symmetric", "--ratio", "0.2"],
    ["ncv", "--in", "ds"],
    ["incv", "--in", "ds"],
    ["cotrain", "--in", "ds", "--selection", "selection.json"],
], ids=lambda argv: argv[0])
def test_format_is_a_usage_error_where_no_table_is_written(tmp_path, capsys, argv):
    # only theory, simulate and report write a table that --format chooses
    with pytest.raises(SystemExit) as excinfo:
        run(*argv, "--format", "json", "--out", tmp_path / "o")
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_error_exits_2(tmp_path, capsys):
    code = run("simulate", "--grid", "0.2", "--samples", 5, "--classes", 10,
               "--out", tmp_path / "o")
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--separation", "nan", "--samples", 40, "--grid", 0.2], 1),
    (["report", "--runs", "nowhere"], 2),
    (["theory", "--kind", "symmetric", "--classes", 1, "--grid", 0.2], 1),
], ids=["simulate", "report", "theory"])
def test_a_failed_command_leaves_no_out_directory(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, "--out", tmp_path / "o") == code
    assert not (tmp_path / "o").exists()


def test_runtime_error_exits_1(tmp_path, capsys):
    code = run("ncv", "--in", tmp_path / "missing", "--out", tmp_path / "o")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_corrupting_truthless_data_exits_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    D = LabeledDataset(
        features=rng.standard_normal((10, 2)),
        observed_labels=rng.integers(0, 2, size=10),
        ids=np.arange(10, dtype=np.int64),
        c=2,
    )
    data_mod.save(D, tmp_path / "truthless")
    code = run("corrupt", "--in", tmp_path / "truthless", "--noise", "symmetric",
               "--ratio", 0.2, "--out", tmp_path / "o")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: corruption needs true labels"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# theory command


def test_theory_writes_expected_grid(tmp_path, capsys):
    out = tmp_path / "theory"
    assert run("theory", "--kind", "symmetric", "--classes", 10,
               "--grid", "0:1:0.05", "--out", out) == 0
    rows = read_csv(out / "theory.csv")
    assert len(rows) == 22  # header plus 21 grid points
    assert "wrote 21 theory points" in capsys.readouterr().out
    by_eps = {row[2]: row for row in rows[1:]}
    mid = by_eps["0.5"]
    assert float(mid[3]) == 0.25 + 0.25 / 9
    assert float(mid[4]) == pytest.approx(0.9)
    config = json.loads((out / "resolved_config.json").read_text())
    assert config["command"] == "theory"
    assert config["classes"] == 10
    assert "func" not in config


def test_theory_json_format(tmp_path):
    out = tmp_path / "theory"
    assert run("theory", "--kind", "asymmetric", "--classes", 10, "--grid", "0.4",
               "--format", "json", "--out", out) == 0
    points = json.loads((out / "theory.json").read_text())
    assert len(points) == 1
    assert points[0]["accuracy"] == pytest.approx(0.52)
    assert points[0]["lp"] == pytest.approx(0.36 / 0.52)


def test_theory_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "theory"
    assert run("theory", "--kind", "symmetric", "--grid", "1:0:0.1", "--out", out) == 0
    assert len(read_csv(out / "theory.csv")) == 1


def test_theory_rejects_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run("theory", "--kind", "sideways", "--grid", "0.1", "--out", tmp_path / "o")
    assert excinfo.value.code == 2


def test_theory_reruns_are_byte_identical(tmp_path):
    for name in ("a", "b"):
        assert run("theory", "--kind", "symmetric", "--grid", "0:0.5:0.1",
                   "--out", tmp_path / name) == 0
    assert (tmp_path / "a/theory.csv").read_bytes() == (tmp_path / "b/theory.csv").read_bytes()


# ---------------------------------------------------------------------------
# corrupt command


def test_corrupt_round_trip(tmp_path, capsys):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.4,
               "--seed", 9, "--out", out) == 0
    noisy = data_mod.load(out)
    clean = data_mod.load(src)
    realized = float(np.mean(noisy.observed_labels != clean.true_labels))
    assert 0.2 < realized < 0.6
    assert np.array_equal(noisy.true_labels, clean.true_labels)
    assert noisy.noise.kind == "symmetric" and noisy.noise.ratio == 0.4
    assert f"realized noise ratio: {realized:.17g}" in capsys.readouterr().out


def test_corrupt_zero_ratio_preserves_data_bytes(tmp_path):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.0,
               "--out", out) == 0
    assert (src / "data.csv").read_bytes() == (out / "data.csv").read_bytes()


def test_corrupt_reruns_are_byte_identical(tmp_path):
    src = make_input(tmp_path)
    for name in ("a", "b"):
        assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.3,
                   "--seed", 4, "--out", tmp_path / name) == 0
    assert (tmp_path / "a/data.csv").read_bytes() == (tmp_path / "b/data.csv").read_bytes()


def test_corrupt_custom_mapping_recorded(tmp_path):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    assert run("corrupt", "--in", src, "--noise", "asymmetric", "--ratio", 0.3,
               "--mapping", "1,2,3,0", "--out", out) == 0
    assert data_mod.load(out).noise.mapping == (1, 2, 3, 0)


@pytest.mark.parametrize(
    "noise, mapping",
    [("symmetric", "1,2,3,0"), ("asymmetric", "1,x"), ("asymmetric", "")],
    ids=["with-symmetric-noise", "not-integers", "empty"],
)
def test_corrupt_mapping_usage_errors_exit_2(tmp_path, capsys, noise, mapping):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    assert run("corrupt", "--in", src, "--noise", noise, "--ratio", 0.3,
               "--mapping", mapping, "--out", out) == 2
    assert "error: --mapping " in capsys.readouterr().err
    assert not out.exists()


def test_corrupt_reads_and_hashes_each_input_file_once(tmp_path, monkeypatch):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    real_open, real_sha256 = builtins.open, hashlib.sha256
    opened, hashed = [], []

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "r" in mode:
            opened.append(Path(file).resolve())
        return real_open(file, mode, *args, **kwargs)

    class CountingSha256:
        def __init__(self, data=b""):
            self._digest = real_sha256(data)
            hashed.append(len(data))

        def update(self, data):
            hashed.append(len(data))
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)  # pathlib opens through io.open
    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.3,
               "--out", out) == 0
    monkeypatch.undo()
    inputs = [(src / name).resolve() for name in ("data.csv", "data.npy", "manifest.json")]
    assert sorted(path for path in opened if path.parent == src.resolve()) == sorted(inputs)
    # each input file is hashed once, as is each written file
    assert sum(hashed) == sum((ds / name).stat().st_size
                              for ds in (src, out) for name in ("data.csv", "data.npy"))


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_corrupt_names_an_input_manifest_that_is_not_a_json_object(tmp_path, capsys, text):
    src = make_input(tmp_path)
    (src / "manifest.json").write_text(text)
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.3,
               "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src / 'manifest.json'}: not a JSON object"]


@pytest.mark.parametrize("case", list(UNVERIFIABLE))
def test_corrupt_refuses_an_input_it_cannot_verify_with_one_error_line(tmp_path, capsys, case):
    src = make_input(tmp_path)
    edit, cause = UNVERIFIABLE[case]
    edit(src)
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.3,
               "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cause(src)}{BY_HAND}"]
    assert list((tmp_path / "o").glob("*")) == []


def test_corrupt_in_place_writes_what_a_fresh_directory_gets(tmp_path):
    src = make_input(tmp_path)
    in_place = tmp_path / "in_place"
    shutil.copytree(src, in_place)
    noise = ("--noise", "asymmetric", "--ratio", 0.3, "--seed", 4)
    assert run("corrupt", "--in", src, *noise, "--out", tmp_path / "fresh") == 0
    assert run("corrupt", "--in", in_place, *noise, "--out", in_place) == 0
    for name in ("data.csv", "data.npy", "manifest.json"):
        assert (in_place / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_corrupt_of_an_empty_dataset_reports_zero_without_warnings(tmp_path, capsys):
    D = LabeledDataset(features=np.zeros((0, 3)), observed_labels=[], ids=[], c=2,
                       true_labels=[])
    data_mod.save(D, tmp_path / "empty")
    assert run("corrupt", "--in", tmp_path / "empty", "--noise", "symmetric",
               "--ratio", 0.2, "--strict", "--out", tmp_path / "o") == 0
    captured = capsys.readouterr()
    assert captured.out == "realized noise ratio: 0\n"
    assert captured.err == ""
    assert data_mod.load(tmp_path / "o").n == 0


# ---------------------------------------------------------------------------
# selection commands


def test_ncv_artifacts(tmp_path):
    src = make_input(tmp_path, ratio=0.3)
    out = tmp_path / "sel"
    assert run("ncv", "--in", src, "--learner", "oracle", "--out", out) == 0
    result = json.loads((out / "selection.json").read_text())
    D = data_mod.load(src)
    merged = result["selected"] + result["candidate"] + result["removed"]
    assert sorted(merged) == sorted(D.ids.tolist())
    assert 0.15 < result["epsilon_hat"] < 0.45
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["experiment", "class", "lp", "lr", "eps_s"]
    assert rows[1][0] == "sel"  # experiment column carries the run name
    assert rows[1][1] == "all"
    assert (out / "resolved_config.json").is_file()


def test_incv_single_iteration_matches_ncv(tmp_path):
    src = make_input(tmp_path, ratio=0.3)
    assert run("ncv", "--in", src, "--seed", 5, "--out", tmp_path / "a") == 0
    assert run("incv", "--in", src, "--seed", 5, "--iterations", 1,
               "--remove-ratio", 0.0, "--out", tmp_path / "b") == 0
    assert (tmp_path / "a/selection.json").read_bytes() == (
        tmp_path / "b/selection.json"
    ).read_bytes()


def test_selection_on_clean_data_keeps_everything(tmp_path):
    src = make_input(tmp_path, ratio=0.0)
    out = tmp_path / "sel"
    assert run("ncv", "--in", src, "--learner", "oracle", "--out", out) == 0
    result = json.loads((out / "selection.json").read_text())
    assert len(result["selected"]) == data_mod.load(src).n
    assert result["epsilon_hat"] == 0.0


def test_truthless_selection_skips_metrics(tmp_path):
    noisy = data_mod.load(make_input(tmp_path, ratio=0.3))
    blind = LabeledDataset(
        features=noisy.features,
        observed_labels=noisy.observed_labels,
        ids=noisy.ids,
        c=noisy.c,
        noise=noisy.noise,
    )
    src = tmp_path / "blind"
    data_mod.save(blind, src)
    out = tmp_path / "sel"
    assert run("ncv", "--in", src, "--learner", "softmax", "--epochs", 10,
               "--out", out) == 0
    assert (out / "selection.json").is_file()
    assert not (out / "metrics.csv").exists()


def test_exhausted_candidates_warn_and_strict_escalates(tmp_path, capsys):
    src = make_input(tmp_path, ratio=0.0, c=2, d=2, n_per_class=2)
    assert run("incv", "--in", src, "--iterations", 3, "--remove-ratio", 0.0,
               "--out", tmp_path / "a") == 0
    assert "warning:" in capsys.readouterr().err
    code = run("incv", "--in", src, "--iterations", 3, "--remove-ratio", 0.0,
               "--strict", "--out", tmp_path / "b")
    assert code == 1


def test_strict_escalates_a_corrupt_warning(tmp_path, capsys):
    # 0.75 >= (c-1)/c at c=4: the noise matrix warns that its diagonal is
    # no longer the strict row maximum
    src = make_input(tmp_path)
    argv = ["corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.75]
    assert run(*argv, "--out", tmp_path / "a") == 0
    assert "warning: symmetric ratio 0.75" in capsys.readouterr().err
    assert run(*argv, "--strict", "--out", tmp_path / "b") == 1
    assert "warning: symmetric ratio 0.75" in capsys.readouterr().err


def test_strict_escalates_a_warning_from_simulate_pool_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LABNOISE_THREADS", "2")
    code = run("simulate", "--classes", 4, "--dims", 3, "--samples", 400,
               "--grid", "0.1,0.75", "--strict", "--out", tmp_path / "o")
    assert code == 1
    assert "warning: symmetric ratio 0.75" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:symmetric ratio 0.5")
def test_strict_escalates_clamped_noise_estimate(tmp_path, capsys):
    # two classes at 50% noise: this seed's agreement rate falls below the
    # 1/c minimum of the accuracy law, so the estimate is clamped
    src = make_input(tmp_path, ratio=0.5, c=2, seed=2)
    argv = ["ncv", "--in", src, "--learner", "oracle"]
    assert run(*argv, "--out", tmp_path / "a") == 0
    err = capsys.readouterr().err
    assert "warning: observed accuracy" in err and "clamping estimate" in err
    assert run(*argv, "--strict", "--out", tmp_path / "b") == 1
    assert (tmp_path / "a/selection.json").read_bytes() == (
        tmp_path / "b/selection.json"
    ).read_bytes()


def test_ncv_manifest_without_n_exits_1(tmp_path, capsys):
    src = make_input(tmp_path, ratio=0.2)
    manifest = json.loads((src / "manifest.json").read_text())
    del manifest["n"]
    (src / "manifest.json").write_text(json.dumps(manifest))
    assert run("ncv", "--in", src, "--out", tmp_path / "o") == 1
    assert "error: manifest.json: missing field 'n'" in capsys.readouterr().err


@pytest.mark.parametrize("case", list(UNVERIFIABLE))
def test_incv_refuses_a_dataset_it_cannot_verify_with_one_error_line(tmp_path, capsys, case):
    src = make_input(tmp_path, ratio=0.2)
    edit, cause = UNVERIFIABLE[case]
    edit(src)
    assert run("incv", "--in", src, "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {cause(src)}{BY_HAND}"]


def test_ncv_names_a_manifest_that_is_not_json(tmp_path, capsys):
    src = make_input(tmp_path, ratio=0.2)
    (src / "manifest.json").write_text("")
    assert run("ncv", "--in", src, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert f"error: {src / 'manifest.json'}: Expecting value: line 1 column 1 (char 0)" in err


def test_incv_rejects_malformed_remove_ratio(tmp_path):
    src = make_input(tmp_path, ratio=0.2)
    code = run("incv", "--in", src, "--remove-ratio", "most", "--out", tmp_path / "o")
    assert code == 2


@pytest.mark.parametrize("ratio", ["-0.1", "nan", "inf"])
def test_incv_rejects_a_negative_or_non_finite_remove_ratio_before_reading(
    tmp_path, capsys, ratio
):
    # the input does not exist: the usage error comes first
    code = run("incv", "--in", tmp_path / "absent", "--remove-ratio", ratio,
               "--out", tmp_path / "o")
    assert code == 2
    assert f"error: --remove-ratio must be finite and >= 0, got {ratio}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["simulate", "--separation", "nan", "--samples", 40, "--grid", 0.2], "separation"),
        (["simulate", "--spread", "inf", "--samples", 40, "--grid", 0.2], "spread"),
        (["incv", "--learner", "softmax", "--lr", "nan"], "learning_rate"),
        (["cotrain", "--lr", "nan"], "learning_rate"),
        (["cotrain", "--decay-factor", "nan", "--decay-epochs", 2], "decay_factor"),
    ],
    ids=["separation", "spread", "incv-lr", "cotrain-lr", "decay-factor"],
)
def test_non_finite_numeric_options_exit_1_naming_the_field(tmp_path, capsys, argv, field):
    if argv[0] != "simulate":
        src = make_input(tmp_path, ratio=0.2)
        argv = argv + ["--in", src]
    if argv[0] == "cotrain":
        assert run("incv", "--in", src, "--iterations", 1, "--out", tmp_path / "sel") == 0
        argv = argv + ["--selection", tmp_path / "sel" / "selection.json"]
    assert run(*argv, "--out", tmp_path / "o") == 1
    assert f"error: {field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ncv", "incv"])
def test_selection_has_no_k_option(tmp_path, capsys, command):
    # the knn learner is 1-NN only
    with pytest.raises(SystemExit) as excinfo:
        run(command, "--in", tmp_path, "--learner", "knn", "--k", 1, "--out", tmp_path / "o")
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --k 1" in capsys.readouterr().err


def test_selection_with_knn_learner(tmp_path):
    src = make_input(tmp_path, ratio=0.2)
    out = tmp_path / "sel"
    assert run("ncv", "--in", src, "--learner", "knn", "--out", out) == 0
    assert (out / "selection.json").is_file()


# ---------------------------------------------------------------------------
# cotrain command


def pipeline(tmp_path, ratio=0.3, iterations=2):
    src = make_input(tmp_path, ratio=ratio, n_per_class=50)
    test = make_input(tmp_path, name="test", ratio=None, n_per_class=20, seed=3)
    sel = tmp_path / "sel"
    assert run("incv", "--in", src, "--iterations", iterations, "--out", sel) == 0
    return src, test, sel


def test_cotrain_artifacts(tmp_path):
    src, test, sel = pipeline(tmp_path)
    out = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--test", test, "--warmup", 1, "--epochs", 3, "--batch", 8,
               "--lr", 0.2, "--out", out) == 0
    rows = read_csv(out / "cotrain.csv")
    assert rows[0] == ["epoch", "n_e", "acc_f1", "acc_f2", "c_samples_used"]
    assert len(rows) == 4
    final = json.loads((out / "final.json").read_text())
    assert set(final) == {"acc_f1", "acc_f2", "best_acc", "eps_s", "eps_s_source", "epochs"}
    assert final["epochs"] == 3
    assert final["eps_s_source"] == "measured"  # input carries true labels
    assert final["best_acc"] == max(final["acc_f1"], final["acc_f2"])
    assert 0.0 <= final["eps_s"] < 1.0


def test_cotrain_scores_test_set_against_true_labels(tmp_path):
    src, test, sel = pipeline(tmp_path)
    noisy_test = tmp_path / "test_noisy"
    assert run("corrupt", "--in", test, "--noise", "symmetric", "--ratio", 0.5,
               "--seed", 1, "--out", noisy_test) == 0
    argv = ["cotrain", "--in", src, "--selection", sel / "selection.json",
            "--warmup", 1, "--epochs", 2, "--batch", 8, "--lr", 0.2]
    assert run(*argv, "--test", test, "--out", tmp_path / "clean") == 0
    assert run(*argv, "--test", noisy_test, "--out", tmp_path / "noisy") == 0
    for name in ("cotrain.csv", "final.json"):
        assert (tmp_path / "clean" / name).read_bytes() == (
            tmp_path / "noisy" / name
        ).read_bytes()


def test_cotrain_selection_without_history_exits_1(tmp_path, capsys):
    src = make_input(tmp_path, ratio=0.2)
    selection = {"selected": [0, 1], "candidate": [], "removed": [], "epsilon_hat": 0.2}
    (tmp_path / "selection.json").write_text(json.dumps(selection))
    code = run("cotrain", "--in", src, "--selection", tmp_path / "selection.json",
               "--out", tmp_path / "o")
    assert code == 1
    assert "error: selection JSON: missing key 'history'" in capsys.readouterr().err


def test_cotrain_missing_selection_exits_2(tmp_path):
    src = make_input(tmp_path, ratio=0.2)
    code = run("cotrain", "--in", src, "--selection", tmp_path / "nope.json",
               "--out", tmp_path / "o")
    assert code == 2


def _refuse_load(*args):
    raise AssertionError("read a dataset")


def test_cotrain_rejects_malformed_decay_epochs_before_reading_data(tmp_path, monkeypatch, capsys):
    src = make_input(tmp_path, ratio=0.2)
    (tmp_path / "selection.json").write_text("{}")
    monkeypatch.setattr(data_mod, "load", _refuse_load)
    out = tmp_path / "ct"
    code = run("cotrain", "--in", src, "--selection", tmp_path / "selection.json",
               "--decay-epochs", "1,x", "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --decay-epochs must be comma-separated epochs, got '1,x'" in err
    assert not out.exists()


def test_cotrain_names_a_selection_file_that_is_not_json(tmp_path, monkeypatch, capsys):
    src = make_input(tmp_path, ratio=0.2)
    selection = tmp_path / "selection.json"
    selection.write_text('{"selected": [0, 1],')
    monkeypatch.setattr(data_mod, "load", _refuse_load)
    assert run("cotrain", "--in", src, "--selection", selection, "--out", tmp_path / "o") == 1
    assert f"error: {selection}: Expecting" in capsys.readouterr().err


def test_cotrain_names_the_selection_file_with_a_history_field_of_the_wrong_type(tmp_path, capsys):
    src, _, sel = pipeline(tmp_path, iterations=1)
    payload = json.loads((sel / "selection.json").read_text())
    payload["history"][0]["n_s1"] = "x"
    selection = tmp_path / "bad_selection.json"
    selection.write_text(json.dumps(payload))
    out = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", selection, "--out", out) == 1
    err = capsys.readouterr().err
    assert (f"error: selection JSON: invalid literal for int() with base 10: 'x' in {selection}"
            in err)
    assert not out.exists()


NOT_INT64 = {"float": 1.5, "bool": True, "string": "3", "2**70": 2**70}
NOT_A_NUMBER = {"epsilon_hat": "0.25", "acc1": True, "acc2": "0.5"}
NOT_A_STRING = {"halt_reason": 5}


@pytest.mark.parametrize("field, value", [
    *(pytest.param(field, value, id=f"{field}-{name}")
      for field in ("selected", "n_s1") for name, value in NOT_INT64.items()),
    *(pytest.param(field, value, id=field) for field, value in NOT_A_NUMBER.items()),
    *(pytest.param(field, value, id=field) for field, value in NOT_A_STRING.items()),
])
def test_cotrain_names_the_selection_file_with_an_id_or_count_that_is_no_int64(
    tmp_path, monkeypatch, capsys, field, value
):
    # a cast to int64 would read 1.5, true and "3" as 1, 1 and 3, float()
    # would read "0.25", true and "0.5" as 0.25, 1.0 and 0.5, and a halt
    # reason of 5 passed as it was
    src = make_input(tmp_path, ratio=0.2)
    record = {"iteration": 1, "n_s1": 2, "n_s2": 0, "n_r1": 0, "n_r2": 0, "acc1": 1.0, "acc2": 1.0}
    payload = {"selected": [0, 2], "candidate": [], "removed": [], "epsilon_hat": 0.0,
               "history": [record], "halt_reason": None}
    if field == "selected":
        payload["selected"][1] = value
    elif field in payload:
        payload[field] = value
    else:
        record[field] = value
    selection = tmp_path / "selection.json"
    selection.write_text(json.dumps(payload))
    monkeypatch.setattr(data_mod, "load", _refuse_load)
    out = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", selection, "--out", out) == 1
    err = capsys.readouterr().err
    problem = ("is not a number" if field in NOT_A_NUMBER
               else "is not a string" if field in NOT_A_STRING
               else "is not an integer that fits int64")
    assert f"error: selection JSON: {value!r} {problem} in {selection}" in err
    assert not out.exists()


def test_cotrain_eps_s_override(tmp_path):
    src, test, sel = pipeline(tmp_path)
    out = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--eps-s", 0.125, "--warmup", 1, "--epochs", 2, "--batch", 8,
               "--lr", 0.2, "--out", out) == 0
    final = json.loads((out / "final.json").read_text())
    assert final["eps_s"] == 0.125
    assert final["eps_s_source"] == "given"


def test_cotrain_warmup_only_never_touches_candidates(tmp_path):
    src, test, sel = pipeline(tmp_path)
    out = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--warmup", 2, "--epochs", 2, "--batch", 8, "--lr", 0.2,
               "--out", out) == 0
    rows = read_csv(out / "cotrain.csv")
    assert all(row[4] == "0" for row in rows[1:])


def test_cotrain_without_epochs_exits_1_before_writing(tmp_path, capsys):
    src, _, sel = pipeline(tmp_path, iterations=1)
    out = tmp_path / "ct"
    code = run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--warmup", 0, "--epochs", 0, "--out", out)
    assert code == 1
    assert "error: total_epochs must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("c, d", [(5, 3), (4, 5)], ids=["classes", "features"])
def test_cotrain_rejects_a_test_set_of_another_shape(tmp_path, capsys, c, d):
    src, _, sel = pipeline(tmp_path, iterations=1)
    test = make_input(tmp_path, name="other", c=c, d=d, n_per_class=5)
    out = tmp_path / "ct"
    code = run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--test", test, "--warmup", 1, "--epochs", 2, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert f"test set has (c, d) = ({c}, {d}), training set has (4, 3)" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# report command


def test_report_merges_runs(tmp_path):
    src, test, sel = pipeline(tmp_path)
    ct = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--test", test, "--warmup", 1, "--epochs", 2, "--batch", 8,
               "--lr", 0.2, "--out", ct) == 0
    out = tmp_path / "rep"
    assert run("report", "--runs", sel, ct, "--out", out) == 0
    rows = read_csv(out / "report.csv")
    assert rows[0] == REPORT_CSV_HEADER
    assert [row[0] for row in rows[1:]] == ["sel", "ct"]
    sel_row = dict(zip(REPORT_CSV_HEADER, rows[1]))
    metrics_all = read_csv(sel / "metrics.csv")[1]
    assert float(sel_row["lp"]) == float(metrics_all[2])
    assert sel_row["acc_f1"] == "nan"  # no co-training artifacts in that run
    ct_row = dict(zip(REPORT_CSV_HEADER, rows[2]))
    final = json.loads((ct / "final.json").read_text())
    assert float(ct_row["best_acc"]) == final["best_acc"]
    assert ct_row["lp"] == "nan"


def _strict_json(path):
    """The JSON value in path, refusing NaN and infinities, which JSON lacks."""

    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_json_artifacts_hold_no_bare_nan(tmp_path):
    # without --test, cotrain has no accuracy to record; report lacks fields
    # of each run; the oracle simulate table stands in for every format-json table
    src, _, sel = pipeline(tmp_path)
    ct = tmp_path / "ct"
    assert run("cotrain", "--in", src, "--selection", sel / "selection.json",
               "--warmup", 1, "--epochs", 2, "--batch", 8, "--out", ct) == 0
    assert run("report", "--runs", sel, ct, "--format", "json", "--out", tmp_path / "rep") == 0
    assert run("simulate", "--samples", 400, "--grid", "0.2,0.5", "--format", "json",
               "--out", tmp_path / "sim") == 0
    paths = sorted(tmp_path.glob("*/*.json"))
    assert {p.parent.name for p in paths} >= {"sel", "ct", "rep", "sim"}
    for path in paths:
        _strict_json(path)
    assert _strict_json(ct / "final.json")["acc_f1"] is None
    report = _strict_json(tmp_path / "rep" / "report.json")
    assert report[0]["acc_f1"] is None and report[1]["lp"] is None
    # report reads a null back as NaN
    assert run("report", "--runs", ct, "--out", tmp_path / "rep_csv") == 0
    assert dict(zip(*read_csv(tmp_path / "rep_csv" / "report.csv")))["acc_f1"] == "nan"


def test_report_json_format(tmp_path):
    _, _, sel = pipeline(tmp_path)
    out = tmp_path / "rep"
    assert run("report", "--runs", sel, "--format", "json", "--out", out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload[0]["run"] == "sel"
    assert 0.0 <= payload[0]["epsilon_hat"] <= 1.0


@pytest.mark.parametrize(
    "name, text, field",
    [
        ("selection.json", '{"selected": []}', "epsilon_hat"),
        ("final.json", '{"acc_f1": 0.5, "best_acc": 0.5}', "acc_f2"),
        ("metrics.csv", "experiment,lp,lr,eps_s\nrun,0.9,0.8,0.1\n", "class"),
    ],
    ids=["selection", "final", "metrics"],
)
def test_report_names_the_file_and_field_it_misses(tmp_path, capsys, name, text, field):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / name).write_text(text)
    assert run("report", "--runs", run_dir, "--out", tmp_path / "rep") == 1
    assert f"error: {run_dir / name}: missing field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["selection.json", "final.json"])
def test_report_names_a_json_file_that_is_not_json(tmp_path, capsys, name):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / name).write_text("not json")
    assert run("report", "--runs", run_dir, "--out", tmp_path / "rep") == 1
    err = capsys.readouterr().err
    assert f"error: {run_dir / name}: Expecting value: line 1 column 1 (char 0)" in err


@pytest.mark.parametrize(
    "name, text, field, value",
    [
        ("selection.json", '{"epsilon_hat": "x"}', "epsilon_hat", "x"),
        ("final.json", '{"acc_f1": "x", "acc_f2": 0.5, "best_acc": 0.5}', "acc_f1", "x"),
        ("metrics.csv", "experiment,class,lp,lr,eps_s\nrun,all,x,0.8,0.1\n", "lp", "x"),
        # float() read these JSON values as 0.25, 0.5, 1.0 and 1000
        ("selection.json", '{"epsilon_hat": "0.25"}', "epsilon_hat", "0.25"),
        ("final.json", '{"acc_f1": "0.5", "acc_f2": 0.5, "best_acc": 0.5}', "acc_f1", "0.5"),
        ("final.json", '{"acc_f1": 0.5, "acc_f2": true, "best_acc": 0.5}', "acc_f2", True),
        ("final.json", '{"acc_f1": 0.5, "acc_f2": 0.5, "best_acc": "1e3"}', "best_acc", "1e3"),
    ],
    ids=["selection", "final", "metrics", "selection-string", "final-string", "final-bool",
         "final-exponent-string"],
)
def test_report_names_the_file_and_field_that_is_not_a_number(
    tmp_path, capsys, name, text, field, value
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / name).write_text(text)
    assert run("report", "--runs", run_dir, "--out", tmp_path / "rep") == 1
    assert f"error: {run_dir / name}: field {field!r} is not a number: {value!r}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "name, field", [("selection.json", "epsilon_hat"), ("final.json", "acc_f1")]
)
def test_report_names_a_json_file_that_holds_no_object(tmp_path, capsys, name, field):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / name).write_text("[1]")
    assert run("report", "--runs", run_dir, "--out", tmp_path / "rep") == 1
    assert f"error: {run_dir / name}: field {field!r} needs a JSON object, got list" in (
        capsys.readouterr().err
    )


def test_report_missing_run_exits_2(tmp_path):
    code = run("report", "--runs", tmp_path / "ghost", "--out", tmp_path / "o")
    assert code == 2


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_oracle_small_grid(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--learner", "oracle", "--kind", "symmetric",
               "--classes", 4, "--dims", 3, "--samples", 4000,
               "--grid", "0.2,0.5", "--out", out) == 0
    rows = read_csv(out / "simulate.csv")
    assert rows[0] == SIMULATE_CSV_HEADER
    assert len(rows) == 3
    for row in rows[1:]:
        rec = dict(zip(SIMULATE_CSV_HEADER, row))
        assert float(rec["acc_dev"]) < 0.05
        assert float(rec["lp_dev"]) < 0.05
        assert float(rec["m_dev"]) < 0.08
    for i in range(2):
        confusion = np.array(read_csv(out / f"confusion_{i:03d}.csv"), dtype=np.float64)
        assert confusion.shape == (4, 4)
        np.testing.assert_allclose(confusion.sum(axis=1), 1.0, atol=1e-12)
    assert "max deviations" in capsys.readouterr().out


@pytest.mark.parametrize("learner", ["oracle", "knn"])
def test_simulate_respects_thread_cap(tmp_path, monkeypatch, learner):
    argv = ["simulate", "--learner", learner, "--classes", "4", "--dims", "3",
            "--samples", "2000", "--grid", "0.1,0.4"]
    monkeypatch.setenv("LABNOISE_THREADS", "1")
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("LABNOISE_THREADS", "2")
    assert main(argv + ["--out", str(tmp_path / "pooled")]) == 0
    # resolved_config.json records --out, so it differs by construction
    names = ["confusion_000.csv", "confusion_001.csv", "simulate.csv"]
    assert sorted(p.name for p in (tmp_path / "serial").glob("*.csv")) == names
    for name in names:
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "pooled" / name
        ).read_bytes()


def test_simulate_rejects_a_non_integer_thread_cap_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LABNOISE_THREADS", "abc")
    out = tmp_path / "o"
    assert main(["simulate", "--grid", "0.1", "--out", str(out)]) == 2
    assert "error: LABNOISE_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_simulate_rejects_a_thread_cap_below_one_before_any_work(
    tmp_path, monkeypatch, capsys, value
):
    monkeypatch.setenv("LABNOISE_THREADS", value)
    out = tmp_path / "o"
    assert main(["simulate", "--grid", "0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: LABNOISE_THREADS must be an integer >= 1, got {value!r}" in err
    assert not out.exists()


def _outputs(root):
    """Every file under root but resolved_config.json (it records --out), by relative path."""
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "resolved_config.json"
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--learner", "knn", "--classes", "4", "--samples", "4000",
         "--grid", "0.1,0.4"],
        ["simulate", "--learner", "knn", "--classes", "4", "--samples", "4000",
         "--grid", "0.3", "--format", "json"],
        ["incv", "--learner", "knn", "--iterations", "2"],
    ],
    ids=["simulate-csv", "simulate-json", "incv"],
)
def test_knn_commands_write_the_same_bytes_with_the_cell_screen_off(tmp_path, monkeypatch, argv):
    if argv[0] == "incv":
        argv = argv + ["--in", str(make_input(tmp_path, ratio=0.3, n_per_class=300))]
    floors = []
    screen_cell = learners.KnnLearner._screen_cell

    def spy(self, left, queries, lo, hi, block, floor=None):
        floors.append(floor is not None)  # a floor: a cell other than the queries' own
        return screen_cell(self, left, queries, lo, hi, block, floor)

    # one run name: metrics.csv records it
    with monkeypatch.context() as mp:
        mp.setattr(learners.KnnLearner, "_screen_cell", spy)
        assert main(argv + ["--out", str(tmp_path / "cells" / "run")]) == 0
    assert any(floors)
    # a negative limit leaves the float32 screen unbuilt: the float64 kernel ranks every query
    monkeypatch.setattr(learners, "KNN_SCREEN_LIMIT", -1.0)
    assert main(argv + ["--out", str(tmp_path / "full" / "run")]) == 0
    cells = _outputs(tmp_path / "cells")
    assert cells and cells == _outputs(tmp_path / "full")


@pytest.mark.parametrize("learner", ["oracle", "knn"])
def test_simulate_builds_the_matrix_once_per_point(tmp_path, learner):
    args = build_parser().parse_args(
        ["simulate", "--learner", learner, "--classes", "4", "--grid", "0.75",
         "--samples", "400", "--out", str(tmp_path / "sim")]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cmd_simulate(args) == 0
    built = [w for w in caught if str(w.message).startswith("symmetric ratio 0.75 >= (c-1)/c")]
    assert len(built) == 1


@pytest.mark.parametrize("samples", [20_000, 100_000])
def test_simulate_oracle_point_peaks_under_twice_its_feature_matrix(tmp_path, samples):
    # make_blobs scales and shifts its normals in place, and the oracle hands
    # back its drawn labels without an (n, c) matrix, so beside the (n, d)
    # features a grid point holds only vectors of n
    args = build_parser().parse_args(
        ["simulate", "--learner", "oracle", "--samples", str(samples), "--grid", "0.3",
         "--out", str(tmp_path / "sim")]
    )
    feature_bytes = samples // args.classes * args.classes * args.dims * 8
    _simulate_point(args, 0.3, 0)  # a first call imports modules lazily
    tracemalloc.start()
    try:
        _simulate_point(args, 0.3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * feature_bytes, peak / feature_bytes


def test_simulate_knn_runs(tmp_path):
    out = tmp_path / "sim"
    assert run("simulate", "--learner", "knn", "--classes", 4, "--dims", 3,
               "--samples", 400, "--grid", "0.4", "--out", out) == 0
    assert (out / "confusion_000.csv").is_file()


def test_simulate_empty_grid(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run("simulate", "--classes", 4, "--samples", 100, "--grid", "1:0:0.1",
               "--out", out) == 0
    assert len(read_csv(out / "simulate.csv")) == 1
    assert "empty grid" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# README commands


def test_every_readme_command_parses():
    commands = [command for command, _ in readme_commands()]
    assert len(commands) == 6
    for command in commands:
        build_parser().parse_args(shlex.split(command))


def test_readme_walkthrough_prints_its_quoted_lines(tmp_path, monkeypatch):
    quoted = readme_commands()[:4]
    assert [out for _, out in quoted] == [
        "realized noise ratio: 0.495",
        "selected 471 of 1000 samples; estimated noise ratio 0.39000000000000001",
        "final clean-test accuracy: f1 0.76200000000000001 f2 0.76000000000000001",
        "merged 2 runs into runs/summary",
    ]
    # the library snippet, then each command, from one working directory
    monkeypatch.chdir(tmp_path)
    assert run_readme([command for command, _ in quoted]) == [out + "\n" for _, out in quoted]


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point(tmp_path):
    # the child imports the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(labelnoise.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "labelnoise", "theory", "--kind", "symmetric",
         "--grid", "0.5", "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "wrote 1 theory points" in proc.stdout
