import csv
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from labelnoise import data as data_mod
from labelnoise.cli import (
    REPORT_CSV_HEADER,
    SIMULATE_CSV_HEADER,
    UsageError,
    build_parser,
    cmd_simulate,
    main,
    parse_grid,
)
from labelnoise.data import BlobSpec, LabeledDataset, corrupt_dataset, make_blobs, write_csv
from labelnoise.noise import NoiseSpec


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


def test_runtime_error_exits_1(tmp_path, capsys):
    code = run("ncv", "--in", tmp_path / "missing", "--out", tmp_path / "o")
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_corrupting_truthless_data_exits_1(tmp_path):
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


def test_corrupt_saves_with_its_input_as_the_source(tmp_path, monkeypatch):
    src = make_input(tmp_path)
    out = tmp_path / "noisy"
    calls = []
    save = data_mod.save
    monkeypatch.setattr(data_mod, "save", lambda *a, **kw: calls.append((a, kw)) or save(*a, **kw))
    assert run("corrupt", "--in", src, "--noise", "symmetric", "--ratio", 0.3,
               "--out", out) == 0
    # the output directory stays the second positional argument, where
    # perfbench's tracer reads it
    [(args, kwargs)] = calls
    assert args[1] == out and kwargs == {"source": str(src)}


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


def test_incv_rejects_malformed_remove_ratio(tmp_path):
    src = make_input(tmp_path, ratio=0.2)
    code = run("incv", "--in", src, "--remove-ratio", "most", "--out", tmp_path / "o")
    assert code == 2


def test_selection_with_knn_learner(tmp_path):
    src = make_input(tmp_path, ratio=0.2)
    out = tmp_path / "sel"
    assert run("ncv", "--in", src, "--learner", "knn", "--k", 1, "--out", out) == 0
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
# module entry point


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "labelnoise", "theory", "--kind", "symmetric",
         "--grid", "0.5", "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "wrote 1 theory points" in proc.stdout
