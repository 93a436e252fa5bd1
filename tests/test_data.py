import builtins
import csv
import hashlib
import io
import json
import math
import os
import shutil
import struct
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelnoise import data as data_mod
from labelnoise.data import (
    BlobSpec,
    LabeledDataset,
    SchemaError,
    corrupt_dataset,
    json_record,
    load,
    make_blobs,
    save,
    split_half,
    split_per_class,
    write_csv,
)
from labelnoise.noise import NoiseSpec, actual_noise_ratio, random_diagonal_dominant
from labelnoise.selection import IterationRecord

from conftest import BY_HAND, UNVERIFIABLE


def blob(c=3, d=2, npc=50, sep=4.0, spread=1.0, seed=0):
    return make_blobs(
        BlobSpec(c=c, d=d, n_per_class=npc, separation=sep, spread=spread, seed=seed)
    )


def test_blob_spec_validation():
    with pytest.raises(ValueError):
        BlobSpec(c=1, d=2, n_per_class=5, separation=1.0, spread=1.0, seed=0)
    with pytest.raises(ValueError):
        BlobSpec(c=3, d=0, n_per_class=5, separation=1.0, spread=1.0, seed=0)
    with pytest.raises(ValueError):
        BlobSpec(c=3, d=2, n_per_class=5, separation=1.0, spread=-1.0, seed=0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["separation", "spread"])
def test_blob_spec_rejects_non_finite_scales(field, value):
    spec = dict(c=3, d=2, n_per_class=5, separation=1.0, spread=1.0, seed=0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BlobSpec(**{**spec, field: value})


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("spec", ["blob", "noise"])
def test_specs_refuse_a_seed_that_numpy_and_a_manifest_cannot_hold(spec, seed):
    # a manifest reads its integers as int64, and numpy seeds with no negative
    with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*63\), got "):
        if spec == "blob":
            BlobSpec(c=3, d=2, n_per_class=5, separation=1.0, spread=1.0, seed=seed)
        else:
            NoiseSpec(kind="symmetric", ratio=0.2, seed=seed)


_int64 = st.integers(min_value=0, max_value=2**63 - 1)
_unit = st.floats(min_value=0.0, max_value=1.0)
_blob_specs = st.builds(
    BlobSpec, c=st.integers(2, 2**63 - 1), d=st.integers(1, 2**63 - 1),
    n_per_class=st.integers(1, 2**63 - 1), seed=_int64,
    separation=st.floats(min_value=0.0, allow_infinity=False),
    spread=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_derangements = st.integers(2, 8).flatmap(
    lambda c: st.permutations(range(c)).filter(lambda p: all(i != j for i, j in enumerate(p)))
)
_noise_specs = st.builds(
    NoiseSpec, kind=st.sampled_from(["symmetric", "asymmetric", "custom"]), ratio=_unit,
    mapping=st.none() | _derangements.map(tuple), seed=_int64,
)
_iteration_records = st.builds(
    IterationRecord, iteration=_int64, n_s1=_int64, n_s2=_int64, n_r1=_int64, n_r2=_int64,
    acc1=_unit, acc2=_unit,
)


@settings(max_examples=200)
@given(record=st.one_of(_blob_specs, _noise_specs, _iteration_records))
def test_json_records_round_trip_through_json_record(record):
    # every record write_json writes and a reader builds again: the manifest's
    # specs and selection.json's history; counts of a saved dataset fit int64
    payload = record.to_dict() if hasattr(record, "to_dict") else asdict(record)
    assert json_record(type(record), json.loads(json.dumps(payload))) == record


def test_make_blobs_shapes_and_clean_start():
    D = blob(c=4, d=3, npc=10)
    assert D.n == 40 and D.d == 3 and D.c == 4
    assert np.array_equal(D.ids, np.arange(40))
    assert np.array_equal(D.observed_labels, D.true_labels)
    assert np.array_equal(np.bincount(D.true_labels), [10] * 4)


def test_make_blobs_means_sit_on_separation_sphere():
    spec = BlobSpec(c=5, d=8, n_per_class=2000, separation=7.0, spread=0.5, seed=3)
    D = make_blobs(spec)
    for i in range(5):
        mean = D.features[D.true_labels == i].mean(axis=0)
        assert np.linalg.norm(mean) == pytest.approx(7.0, abs=0.1)


def test_make_blobs_concentration_around_means():
    spec = BlobSpec(c=3, d=4, n_per_class=500, separation=5.0, spread=2.0, seed=4)
    D = make_blobs(spec)
    for i in range(3):
        rows = D.features[D.true_labels == i]
        dev = rows - rows.mean(axis=0)
        grand = np.abs(dev).mean()
        # mean absolute deviation of N(0, spread) is spread*sqrt(2/pi);
        # 4-sigma-ish slack on the grand mean over npc*d draws
        expected = 2.0 * np.sqrt(2.0 / np.pi)
        assert grand == pytest.approx(expected, abs=4 * 2.0 / np.sqrt(500 * 4))


def test_make_blobs_reproducible():
    assert np.array_equal(blob(seed=9).features, blob(seed=9).features)
    assert not np.array_equal(blob(seed=9).features, blob(seed=10).features)


def reference_blob_features(spec):
    """make_blobs' features as the textbook formula writes them:
    means[true_labels] + spread * z, two (n, d) temporaries and all."""
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.c, spec.d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = spec.separation * directions / norms
    true_labels = np.repeat(np.arange(spec.c, dtype=np.int64), spec.n_per_class)
    z = rng.standard_normal((spec.c * spec.n_per_class, spec.d))
    return means[true_labels] + spec.spread * z


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(2, 6),
    d=st.integers(1, 5),
    npc=st.integers(1, 6),
    sep=st.one_of(st.just(0.0), st.floats(1e-300, 1e6)),
    spread=st.floats(1e-300, 1e6),
    seed=st.integers(0, 2**32),
)
@example(c=2, d=1, npc=1, sep=0.0, spread=1.0, seed=0)
@example(c=2, d=1, npc=1, sep=3.5, spread=0.37, seed=1)
@example(c=2, d=1, npc=1, sep=0.0, spread=2.5, seed=2)
def test_make_blobs_matches_the_reference_formula_bit_for_bit(c, d, npc, sep, spread, seed):
    spec = BlobSpec(c=c, d=d, n_per_class=npc, separation=sep, spread=spread, seed=seed)
    D = make_blobs(spec)
    expected = reference_blob_features(spec)
    assert D.features.dtype == expected.dtype and D.features.shape == expected.shape
    assert D.features.tobytes() == expected.tobytes()
    assert np.array_equal(D.true_labels, np.repeat(np.arange(c), npc))


def test_dataset_validation_catches_duplicate_ids():
    with pytest.raises(ValueError):
        LabeledDataset(
            features=np.zeros((2, 1)),
            observed_labels=np.array([0, 1]),
            ids=np.array([3, 3]),
            c=2,
        )


def test_dataset_validation_catches_label_range():
    with pytest.raises(ValueError):
        LabeledDataset(
            features=np.zeros((2, 1)),
            observed_labels=np.array([0, 5]),
            ids=np.array([0, 1]),
            c=2,
        )


def test_corrupt_dataset_records_spec_and_keeps_truth():
    D = blob(npc=2000)
    spec = NoiseSpec(kind="symmetric", ratio=0.4, seed=5)
    noisy = corrupt_dataset(D, spec)
    assert noisy.noise == spec
    assert np.array_equal(noisy.true_labels, D.true_labels)
    assert np.array_equal(noisy.features, D.features)
    realized = actual_noise_ratio(noisy.observed_labels, noisy.true_labels)
    assert realized == pytest.approx(0.4, abs=0.03)


def test_corrupt_dataset_custom_matrix():
    D = blob(c=4, npc=1000)
    T = random_diagonal_dominant(4, seed=6)
    spec = NoiseSpec(kind="custom", ratio=0.0, seed=7)
    noisy = corrupt_dataset(D, spec, T=T)
    assert noisy.noise == spec
    # realized per-class distribution tracks the matrix rows
    for i in range(4):
        freq = np.bincount(noisy.observed_labels[D.true_labels == i], minlength=4) / 1000
        assert np.max(np.abs(freq - T.entries[i])) < 0.06


def test_subset_keeps_row_order_and_is_strict():
    D = blob(npc=5)
    s = D.subset([4, 1, 9])
    assert s.ids.tolist() == [1, 4, 9]
    with pytest.raises(ValueError):
        D.subset([0, 999])


def test_subset_accepts_any_iterable_of_ids():
    D = blob(npc=5)
    for ids in ([9, 4, 1, 4], np.array([9, 1, 4, 1]), (i for i in (1, 9, 4)), {4, 9, 1}):
        assert D.subset(ids).ids.tolist() == [1, 4, 9]
    assert D.subset([]).n == 0
    with pytest.raises(ValueError, match="^2 requested ids are not in the dataset$"):
        D.subset(np.array([0, 999, -1, 999]))


@pytest.mark.parametrize("ids", [[0.5, 2.7], [[1, 2]], [True]], ids=["fractions", "column", "bool"])
def test_subset_refuses_ids_that_are_not_1d_whole_numbers(ids):
    # a cast to int64 read [0.5, 2.7] as the rows of ids 0 and 2
    with pytest.raises(ValueError, match="^ids must be 1-d whole numbers, got "):
        blob(npc=5).subset(ids)


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="sample ids must be unique"):
        LabeledDataset(features=np.zeros((3, 1)), observed_labels=[0, 1, 0],
                       ids=[5, 2, 5], c=2)


@pytest.mark.parametrize(
    "column, values",
    [("observed_labels", [0.5, 1.7]), ("ids", [0, 1.9]), ("true_labels", [1.2, 0.0]),
     ("observed_labels", [True, False]), ("ids", np.zeros((2, 1), dtype=np.int64))],
    ids=["observed-fractions", "ids-fraction", "true-fraction", "observed-bool", "ids-column"],
)
def test_dataset_refuses_ids_and_labels_that_are_not_1d_whole_numbers(column, values):
    # a cast to int64 stored [0.5, 1.7] as [0 1]
    columns = {"observed_labels": [0, 1], "ids": [0, 1], "true_labels": [1, 0], column: values}
    with pytest.raises(ValueError, match=f"^{column} must be 1-d whole numbers, got "):
        LabeledDataset(features=np.zeros((2, 1)), c=2, **columns)


def test_split_half_partitions():
    D = blob(c=3, npc=7)  # n = 21, odd
    a, b = split_half(D, seed=1)
    assert a.n == 11 and b.n == 10
    assert len(np.intersect1d(a.ids, b.ids)) == 0
    assert np.array_equal(np.union1d(a.ids, b.ids), D.ids)


def test_split_half_deterministic_and_seed_sensitive():
    D = blob(npc=20)
    a1, _ = split_half(D, seed=3)
    a2, _ = split_half(D, seed=3)
    a3, _ = split_half(D, seed=4)
    assert np.array_equal(a1.ids, a2.ids)
    assert not np.array_equal(a1.ids, a3.ids)


def test_split_half_rejects_singleton():
    D = blob(npc=5).subset([0])
    with pytest.raises(ValueError):
        split_half(D, seed=0)


def test_split_per_class_counts_and_disjoint():
    D = blob(c=3, npc=10)
    tr, te = split_per_class(D, 6)
    assert tr.n == 18 and te.n == 12
    assert np.array_equal(np.bincount(tr.true_labels), [6, 6, 6])
    assert len(np.intersect1d(tr.ids, te.ids)) == 0
    with pytest.raises(ValueError):
        split_per_class(D, 11)


def test_split_per_class_keeps_the_stored_row_order_in_both_halves():
    # rows stored out of id order: each class's first ids go to the first
    # half, and both halves list their rows as D stores them
    D = blob(c=3, npc=10)._take(np.random.default_rng(5).permutation(30))
    tr, te = split_per_class(D, 4)
    order = np.argsort(D.ids, kind="stable")
    first = np.concatenate([order[D.true_labels[order] == i][:4] for i in range(3)])
    assert np.array_equal(tr.ids, D.ids[np.sort(first)])
    assert np.array_equal(te.ids, D.ids[np.setdiff1d(np.arange(30), first)])
    assert np.array_equal(tr.features, D.features[np.sort(first)])


def _assert_data_csv_holds(ds, D):
    """ds's data.csv, parsed with csv.reader, int() and float(), holds D's
    rows bit for bit. load never parses data.csv, so its text is checked
    here, against the values data.npy holds."""
    labels = [D.observed_labels] + ([] if D.true_labels is None else [D.true_labels])
    with open(ds / "data.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["id", *(f"f{j}" for j in range(D.d)), "observed_label",
                      *["true_label"] * (len(labels) - 1)]
    assert all(len(row) == len(header) for row in rows)
    assert [int(row[0]) for row in rows] == D.ids.tolist()
    features = np.array([[float(v) for v in row[1:1 + D.d]] for row in rows], dtype=np.float64)
    assert features.reshape(D.n, D.d).tobytes() == D.features.tobytes()
    for k, column in enumerate(labels):
        assert [int(row[1 + D.d + k]) for row in rows] == column.tolist()


def test_save_load_round_trip_bit_exact(tmp_path):
    D = corrupt_dataset(blob(npc=30), NoiseSpec(kind="asymmetric", ratio=0.3, seed=2))
    save(D, tmp_path / "ds")
    back = load(tmp_path / "ds")
    assert np.array_equal(back.features, D.features)
    assert np.array_equal(back.observed_labels, D.observed_labels)
    assert np.array_equal(back.true_labels, D.true_labels)
    assert np.array_equal(back.ids, D.ids)
    assert back.c == D.c
    assert back.noise == D.noise
    _assert_data_csv_holds(tmp_path / "ds", D)


def test_save_writes_golden_bytes(tmp_path):
    D = LabeledDataset(
        features=[[0.1, -0.0], [1 / 3, 1e-300]],
        observed_labels=[0, 1],
        ids=[7, 2**53 + 1],
        c=2,
        true_labels=[1, 1],
    )
    save(D, tmp_path / "ds")
    assert (tmp_path / "ds" / "data.csv").read_text() == (
        "id,f0,f1,observed_label,true_label\n"
        "7,0.10000000000000001,-0,0,1\n"
        "9007199254740993,0.33333333333333331,1e-300,1,1\n"
    )


def test_write_csv_golden_bytes_across_cell_types(tmp_path):
    # cell types change from row to row, so each row takes its own format;
    # rows with a str cell go through csv quoting
    rows = [
        [0.1, float("nan"), float("inf"), -float("inf"), -0.0, np.float32(0.1), np.float64(1e-310)],
        [1, np.int64(-7), True, False, None, np.int32(5), 2**70],
        ["a,b", 'say "hi"', "two\nlines", 2.5, 3, "plain"],
        [np.float32(1 / 3), 0.5, np.uint8(200), -1],
        [""],
        [],
        [np.float64(-0.0), np.nan],
    ]
    write_csv(tmp_path / "t.csv", ["col,1", "b"], rows)
    assert (tmp_path / "t.csv").read_bytes() == (
        b'"col,1",b\n'
        b"0.10000000000000001,nan,inf,-inf,-0,0.10000000149011612,9.9999999999999694e-311\n"
        b"1,-7,True,False,None,5,1180591620717411303424\n"
        b'"a,b","say ""hi""","two\nlines",2.5,3,plain\n'
        b"0.3333333432674408,0.5,200,-1\n"
        b'""\n'
        b"\n"
        b"-0,nan\n"
    )


def test_save_load_without_truth(tmp_path):
    D = blob(npc=4)
    bare = LabeledDataset(
        features=D.features, observed_labels=D.observed_labels, ids=D.ids, c=D.c
    )
    save(bare, tmp_path / "ds")
    back = load(tmp_path / "ds")
    assert back.true_labels is None
    assert np.array_equal(back.features, D.features)
    _assert_data_csv_holds(tmp_path / "ds", bare)


def test_save_writes_manifest_fields(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["n"] == D.n and manifest["d"] == D.d and manifest["c"] == D.c
    assert manifest["blob"]["seed"] == 0


def test_load_rejects_row_count_mismatch(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["n"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


def _record_digest(ds, name):
    """Write the sha256 of ds's file `name` into its manifest, as save does."""
    manifest = json.loads((ds / "manifest.json").read_text())
    digest = hashlib.sha256((ds / name).read_bytes()).hexdigest()
    manifest[name.replace(".", "_") + "_sha256"] = digest
    (ds / "manifest.json").write_text(json.dumps(manifest))


def _forge_data_npy(ds, column, row, value):
    """Set one cell of ds's data.npy and record the file's new digest, as a
    faulty writer could: load's value checks then stand alone."""
    table = np.load(ds / "data.npy")
    if column.startswith("f"):
        table["f"][row, int(column[1:])] = value
    else:
        table[column][row] = value
    np.save(ds / "data.npy", table, allow_pickle=False)
    _record_digest(ds, "data.npy")


@pytest.mark.parametrize(
    "column, value, problem",
    [("f1", np.nan, "feature f1 is nan, not finite"),
     ("f0", -np.inf, "feature f0 is -inf, not finite"),
     ("observed_label", -1, "manifest declares c=3 but observed_label contains -1"),
     ("true_label", 3, "manifest declares c=3 but true_label contains 3")],
    ids=["f1-nan", "f0--inf", "observed_label--1", "true_label-3"],
)
def test_load_names_the_row_and_id_of_a_bad_value(tmp_path, column, value, problem):
    D = blob(c=3, npc=3)
    D = replace(D, ids=D.ids + 10)  # so that no row's id is its index
    save(D, tmp_path / "ds")
    _forge_data_npy(tmp_path / "ds", column, 3, value)
    with pytest.raises(SchemaError) as excinfo:
        load(tmp_path / "ds")
    assert str(excinfo.value) == f"data.npy row 3 (id 13): {problem}"


def _noisy(npc=30):
    return corrupt_dataset(blob(npc=npc), NoiseSpec(kind="symmetric", ratio=0.3, seed=2))


def _assert_same_bits(back, D):
    assert np.array_equal(back.features.view(np.uint64), D.features.view(np.uint64))
    assert np.array_equal(back.ids, D.ids)
    assert np.array_equal(back.observed_labels, D.observed_labels)
    assert np.array_equal(back.true_labels, D.true_labels)


def test_load_reads_a_saved_dataset_from_data_npy(tmp_path):
    D = _noisy()
    save(D, tmp_path / "ds")
    back = load(tmp_path / "ds")
    _assert_same_bits(back, D)
    assert back.noise == D.noise and back.blob == D.blob
    assert back.features.flags.c_contiguous and back.ids.flags.c_contiguous


@pytest.mark.parametrize("case", list(UNVERIFIABLE))
def test_load_refuses_a_dataset_it_cannot_verify(tmp_path, case):
    # no digest, no data.npy or a file changed since save: load parses only
    # a data.npy the manifest vouches for, and never data.csv
    ds = tmp_path / "ds"
    save(_noisy(), ds)
    edit, cause = UNVERIFIABLE[case]
    edit(ds)
    with pytest.raises(SchemaError) as excinfo:
        load(ds)
    assert str(excinfo.value) == cause(ds) + BY_HAND


def test_load_never_parses_data_csv(tmp_path):
    # data.csv replaced, and its digest with it: load checks the file but
    # reads every value from data.npy
    D = _noisy()
    ds = tmp_path / "ds"
    save(D, ds)
    (ds / "data.csv").write_text("not,a,dataset\n")
    _record_digest(ds, "data.csv")
    _assert_same_bits(load(ds), D)


def _swap_after_first_open(monkeypatch, target, replacement):
    """Replace the file at target by a copy of replacement as soon as it is
    first opened for reading, whichever code opens it: that reader keeps the
    original bytes, and every later open gets the replacement. Returns a
    list that holds one entry once the swap has happened."""
    staged = target.with_name("swap.tmp")
    shutil.copyfile(replacement, staged)
    real_open, swapped = builtins.open, []

    def opened(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if (not swapped and "r" in mode and isinstance(file, (str, os.PathLike))
                and Path(file).resolve() == target.resolve()):
            os.replace(staged, target)
            swapped.append(file)
        return fh

    monkeypatch.setattr(builtins, "open", opened)
    monkeypatch.setattr(io, "open", opened)  # pathlib opens through io.open
    return swapped


def _shifted(D):
    """D with every feature moved: same ids, shape and labels, other bits."""
    return replace(D, features=D.features + 1.0)


def test_load_never_returns_a_data_npy_swapped_in_after_its_check(tmp_path, monkeypatch):
    D = _noisy()
    save(D, tmp_path / "ds")
    save(_shifted(D), tmp_path / "other")
    swapped = _swap_after_first_open(monkeypatch, tmp_path / "ds" / "data.npy",
                                     tmp_path / "other" / "data.npy")
    back = load(tmp_path / "ds")
    assert swapped
    # the verified rows, never the swapped table
    _assert_same_bits(back, D)


def test_save_writes_golden_data_npy(tmp_path):
    D = LabeledDataset(
        features=[[0.1, -0.0], [1 / 3, 1e-300]],
        observed_labels=[0, 1],
        ids=[7, 2**53 + 1],
        c=2,
        true_labels=[1, 1],
    )
    save(D, tmp_path / "ds")
    header = (
        "{'descr': [('id', '<i8'), ('f', '<f8', (2,)), ('observed_label', '<i8'), "
        "('true_label', '<i8')], 'fortran_order': False, 'shape': (2,), }"
    )
    expected = (
        b"\x93NUMPY\x01\x00\xb6\x00"
        + header.ljust(181).encode()
        + b"\n"
        + struct.pack("<q2dqq", 7, 0.1, -0.0, 0, 1)
        + struct.pack("<q2dqq", 2**53 + 1, 1 / 3, 1e-300, 1, 1)
    )
    assert (tmp_path / "ds" / "data.npy").read_bytes() == expected
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["data_npy_sha256"] == hashlib.sha256(expected).hexdigest()
    csv_bytes = (tmp_path / "ds" / "data.csv").read_bytes()
    assert manifest["data_csv_sha256"] == hashlib.sha256(csv_bytes).hexdigest()


@pytest.mark.parametrize(
    "key, value, message",
    [("n", 5, "manifest declares n=5 but data.npy has shape (9,)"),
     ("d", 3, "manifest declares d=3 but data.npy has dtype "
              "[('id', '<i8'), ('f', '<f8', (2,)), ('observed_label', '<i8'), ('true_label', '<i8')]")],
    ids=["n", "d"],
)
def test_load_checks_data_npy_against_the_manifest(tmp_path, key, value, message):
    save(blob(npc=3), tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError) as excinfo:
        load(tmp_path / "ds")
    assert str(excinfo.value) == message


def test_empty_dataset_round_trip_emits_no_warning(tmp_path):
    D = LabeledDataset(features=np.zeros((0, 3)), observed_labels=[], ids=[], c=2,
                       true_labels=[])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        save(D, tmp_path / "ds")
        back = load(tmp_path / "ds")
        _assert_data_csv_holds(tmp_path / "ds", D)
    assert back.n == 0 and back.d == 3 and back.true_labels.shape == (0,)


_float_bits = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    # subnormals: a zero exponent under either sign
    st.integers(min_value=0, max_value=2**52 - 1).map(lambda m: m | (2**63 * (m & 1))),
)


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(_float_bits, min_size=2, max_size=40))
def test_save_load_round_trips_float_bit_patterns(bits, tmp_path_factory):
    features = np.array(bits, dtype=np.uint64).view(np.float64)
    features[~np.isfinite(features)] = 0.0
    features = features[: len(features) // 2 * 2].reshape(-1, 2)
    D = LabeledDataset(features=features, observed_labels=np.zeros(len(features)),
                       ids=np.arange(len(features)), c=2)
    ds = tmp_path_factory.mktemp("ds") / "ds"
    save(D, ds)
    back = load(ds)
    assert np.array_equal(back.features.view(np.uint64), features.view(np.uint64))
    _assert_data_csv_holds(ds, D)


_special_bits = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, np.nan, -np.nan, np.inf, -np.inf]
).map(lambda v: int(np.float64(v).view(np.uint64)))


def _tie_bounds(j):
    """The odd k in [low, high] make k * 5**j an 18-digit number, so k / 2**j
    has 18 significant digits, the last a 5, and %.17g rounds it half to
    even. k / 2**j lies in [1e-4, 1e15) for j in 3..21."""
    return -(-(10**17) // 5**j), min(2**53, (10**18 - 1) // 5**j)


def _ties(j):
    low, high = _tie_bounds(j)
    return st.integers(low // 2, (high - 1) // 2).map(lambda i: (2 * i + 1) / 2**j)


# save formats 1e-4 <= |x| < 1e15 with numpy arithmetic: draw values from
# that whole range, the powers of ten and their float neighbours (where
# log10's guess of the exponent can miss), and ties
_in_range_bits = st.one_of(
    st.floats(min_value=1e-4, max_value=1e15, exclude_max=True),
    st.sampled_from([
        float(v)
        for p in (float(f"1e{k}") for k in range(-4, 16))
        for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))
        if 1e-4 <= v < 1e15
    ]),
    st.integers(3, 21).flatmap(_ties),
).flatmap(lambda v: st.sampled_from([v, -v])).map(
    lambda v: int(np.float64(v).view(np.uint64))
)


def _assert_save_writes_what_write_csv_writes(D, tmp):
    """save's data.csv holds the bytes of the table writer, fed numpy
    scalars rather than tolist() values."""
    save(D, tmp / "ds")
    truth = D.true_labels is not None
    header = ["id", *(f"f{j}" for j in range(D.d)), "observed_label"]
    header += ["true_label"] if truth else []
    rows = [
        [D.ids[r], *D.features[r], D.observed_labels[r]]
        + ([D.true_labels[r]] if truth else [])
        for r in range(D.n)
    ]
    write_csv(tmp / "table.csv", header, rows)
    assert (tmp / "ds" / "data.csv").read_bytes() == (tmp / "table.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), d=st.integers(min_value=0, max_value=4), with_truth=st.booleans())
def test_save_writes_what_write_csv_writes(data, d, with_truth, tmp_path_factory):
    # in-range draws reach the vectorised cells; the rest mixes in every
    # float64 bit pattern and int64 id, which take Python's % row by row
    in_range = data.draw(st.booleans())
    id_values = st.integers(0, 10**8 - 1) if in_range else st.integers(-(2**63), 2**63 - 1)
    ids = data.draw(st.lists(id_values, unique=True, max_size=12))
    n = len(ids)
    cells = _in_range_bits if in_range else _float_bits | _special_bits | _in_range_bits
    bits = data.draw(st.lists(cells, min_size=n * d, max_size=n * d))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    D = LabeledDataset(
        features=np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d),
        observed_labels=data.draw(labels),
        ids=ids,
        c=3,
        true_labels=data.draw(labels) if with_truth else None,
    )
    _assert_save_writes_what_write_csv_writes(D, tmp_path_factory.mktemp("ds"))


def test_save_writes_what_write_csv_writes_at_scale_shape(tmp_path):
    # 36,000 x 32 features as the scale benchmark saves them; nearly every
    # row is formatted by the vectorised path
    D = make_blobs(BlobSpec(c=10, d=32, n_per_class=3600, separation=3.5, spread=1.0, seed=3))
    a = np.abs(D.features)
    assert ((a >= 1e-4) & (a < 1e15)).all(axis=1).mean() > 0.99
    save(D, tmp_path / "ds")
    header = ["id", *(f"f{j}" for j in range(D.d)), "observed_label", "true_label"]
    rows = zip(D.ids.tolist(), D.features.tolist(), D.observed_labels.tolist(),
               D.true_labels.tolist())
    write_csv(tmp_path / "table.csv", header, ([i, *x, y, t] for i, x, y, t in rows))
    assert (tmp_path / "ds" / "data.csv").read_bytes() == (tmp_path / "table.csv").read_bytes()


def _in_range_dataset(n, d=3, c=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.uniform(1e-3, 1e3, (n, d)) * rng.choice([-1.0, 1.0], (n, d))
    return LabeledDataset(features=features, observed_labels=rng.integers(0, c, n),
                          ids=np.arange(n), c=c, true_labels=rng.integers(0, c, n))


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
def test_save_formats_blocks_of_rows(tmp_path, n):
    _assert_save_writes_what_write_csv_writes(_in_range_dataset(n), tmp_path)


@pytest.mark.parametrize(
    "rows",
    [[0], [1, 2], [1023], [1023, 1024], [0, 1, 1022, 1023, 1024, 2047, 2048, 2050],
     list(range(2051))],
    ids=["first", "adjacent", "last-of-block", "across-blocks", "many", "every"],
)
@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 1e-5, 1e15, -np.inf, np.nan])
def test_save_splices_rows_formatted_by_python_in_place(tmp_path, rows, value):
    # a row with one feature outside 1e-4 <= |x| < 1e15 takes Python's %
    D = _in_range_dataset(2051)
    features = D.features.copy()
    features[rows, 1] = value
    _assert_save_writes_what_write_csv_writes(replace(D, features=features), tmp_path)


@pytest.mark.parametrize("column", ["ids", "observed_labels", "true_labels"])
def test_save_formats_ids_and_labels_at_the_edges_of_the_vectorised_range(tmp_path, column):
    # ids and labels in [0, 10**8) are vectorised, the rest take Python's %
    edges = [0, 9, 10, 99, 100, 9_999, 10_000, 99_999_999, 10**8, 10**8 + 1, 2**63 - 2]
    if column == "ids":
        edges += [2**63 - 1, -1, -10, -(2**63)]
    n = len(edges)
    columns = {"ids": np.arange(n), "observed_labels": np.ones(n), "true_labels": np.ones(n)}
    columns[column] = edges
    D = LabeledDataset(features=np.full((n, 2), 0.5), c=2**63 - 1, **columns)
    _assert_save_writes_what_write_csv_writes(D, tmp_path)


def _float_neighbours(values, ulps=3):
    """values and their `ulps` nearest floats on either side."""
    out = below = above = np.asarray(values, dtype=np.float64)
    for _ in range(ulps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        out = np.concatenate([out, below, above])
    return out


def _fixed_ties(per_exponent=20):
    """_ties(j) for j = 3..21, drawn with a fixed seed."""
    rng = np.random.default_rng(0)
    ties = []
    for j in range(3, 22):
        low, high = _tie_bounds(j)
        ties.append((rng.integers(low // 2, (high - 1) // 2, per_exponent) * 2 + 1) / 2.0**j)
    return np.concatenate(ties)


def _value_ending_at(exp10, last):
    """The first float m * 10**(exp10 - last), m a (last + 1)-digit number,
    whose 17 significant digits are m's and then zeros, so that its
    "%.17g" text has exponent exp10 and ends at its digit d{last}."""
    for m in range(10**last, min(10 ** (last + 1), 10**last + 1000)):
        v = float(f"{m}e{exp10 - last}")
        mantissa, exponent = ("%.16e" % v).split("e")
        if int(exponent) == exp10 and len(mantissa.replace(".", "").rstrip("0")) == last + 1:
            return v
    raise AssertionError((exp10, last))


@pytest.mark.parametrize(
    "values",
    [
        _float_neighbours([float(f"1e{k}") for k in range(-4, 16)]),
        _fixed_ties(),
        [_value_ending_at(e, last) for e in range(-4, 15) for last in range(17)],
    ],
    ids=["powers-of-ten", "ties", "every-exponent-and-last-digit"],
)
def test_save_formats_the_values_where_rounding_decides(tmp_path, values):
    # fixed draws of the hypothesis strategies above: log10 misses next to a
    # power of ten, and 17-digit rounding meets exact halves at the ties;
    # then where the text ends: with each sign, one value for every exponent
    # and last non-zero digit, so every keep mask of a feature's slot
    values = np.concatenate([values, np.negative(values)]).reshape(-1, 2)
    D = LabeledDataset(features=values, observed_labels=np.zeros(len(values)),
                       ids=np.arange(len(values)), c=2)
    _assert_save_writes_what_write_csv_writes(D, tmp_path)


@pytest.mark.parametrize("n, d", [(0, 3), (0, 0), (5, 0)])
def test_save_formats_empty_shapes(tmp_path, n, d):
    D = _in_range_dataset(n)
    D = replace(D, features=D.features[:, :d])
    _assert_save_writes_what_write_csv_writes(D, tmp_path)


def _traced_peak(write, *args):
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _write_data_csv_rows(D, path):
    with open(path, "wb") as fh:
        fh.writelines(data_mod._formatted_rows(D, (D.observed_labels, D.true_labels)))


def test_save_memory_beyond_the_data_npy_table_does_not_grow_with_rows(tmp_path):
    # data.csv is formatted and written a block of rows at a time, so the
    # only buffer of save that grows with n is the data.npy table. The
    # writer's own peak is checked at 8k and 32k rows of 32 features. At
    # d = 8 and 16k rows or more save's peak comes while the table is alive
    # (hashing the files), so memory held beside the table shows there
    for d, write, rows in ((32, _write_data_csv_rows, 8192), (8, save, 16384)):
        D = make_blobs(BlobSpec(c=4, d=d, n_per_class=rows, separation=3.5, spread=1.0, seed=4))
        table = data_mod._npy_dtype(d, True).itemsize if write is save else 0
        beyond = [_traced_peak(write, E, tmp_path / f"{d}-{E.n}") - E.n * table
                  for E in (D._take(np.arange(rows)), D)]
        assert beyond[1] <= beyond[0] + 64 * 1024, (d, beyond)


_DATASET_FILES = ("data.csv", "data.npy", "manifest.json")


def _refused(name):
    def refuse(*args):
        raise AssertionError(f"save ran {name}")

    return refuse


def _assert_relabel_writes_what_save_writes(D, src, tmp, out=None):
    """relabel(src, out), src holding D as saved, writes the three files
    save writes for D relabelled, with save's row formatter patched to
    raise: every row is spliced from src's data.csv."""
    expected = corrupt_dataset(D, _NEW_NOISE)
    save(expected, tmp / "formatted")
    out = out or tmp / "relabelled"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_formatted_rows", _refused("_formatted_rows"))
        noisy = data_mod.relabel(src, out, _NEW_NOISE)
    _assert_same_bits(noisy, expected)
    assert noisy.noise == _NEW_NOISE
    for name in _DATASET_FILES:
        assert (out / name).read_bytes() == (tmp / "formatted" / name).read_bytes()


@pytest.mark.parametrize("spliced", [False, True], ids=["formatted", "spliced"])
def test_save_hashes_data_csv_as_it_writes_it(tmp_path, spliced):
    D = _noisy()
    save(D, tmp_path / "src")
    hashed = []
    sha256 = data_mod._sha256
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_sha256", lambda path: hashed.append(path) or sha256(path))
        if spliced:
            data_mod.relabel(tmp_path / "src", tmp_path / "out", _NEW_NOISE)
        else:
            save(replace(D, noise=_NEW_NOISE), tmp_path / "out")
    # no data.csv is read back to be hashed: the output is hashed as it is
    # written, and relabel's input as it is spliced
    assert [path for path in hashed if path.name == "data.csv"] == []
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["data_csv_sha256"] == sha256(tmp_path / "out" / "data.csv")


_NEW_NOISE = NoiseSpec(kind="symmetric", ratio=0.5, seed=1)


def _finite(bits):
    return bits.filter(lambda b: math.isfinite(struct.unpack("<d", struct.pack("<Q", b))[0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=1, max_value=4))
def test_relabel_writes_the_formatted_bytes(data, d, tmp_path_factory):
    # arbitrary finite float64 bit patterns: -0.0, subnormals and extreme
    # exponents; relabel copies the input's text for all of them
    ids = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=12))
    n = len(ids)
    bits = data.draw(st.lists(_finite(_float_bits | _special_bits),
                              min_size=n * d, max_size=n * d))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    D = LabeledDataset(
        features=np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d),
        observed_labels=data.draw(labels),
        ids=ids,
        c=3,
        true_labels=data.draw(labels),
    )
    tmp = tmp_path_factory.mktemp("ds")
    save(D, tmp / "src")
    _assert_relabel_writes_what_save_writes(D, tmp / "src", tmp)


def test_relabel_over_its_input_writes_what_a_fresh_directory_gets(tmp_path):
    # data.csv is written beside the input's and replaces it after the last row
    D = _noisy()
    save(D, tmp_path / "ds")
    _assert_relabel_writes_what_save_writes(D, tmp_path / "ds", tmp_path, out=tmp_path / "ds")
    assert sorted(path.name for path in (tmp_path / "ds").iterdir()) == sorted(_DATASET_FILES)


@pytest.mark.parametrize("name", ["data.npy", "data.csv"])
def test_relabel_never_splices_from_a_file_swapped_in_after_its_check(tmp_path, monkeypatch, name):
    # the swapped-in files hold other feature bits and text, which a
    # second read of either input file would copy or check
    D = _noisy()
    save(D, tmp_path / "src")
    save(_shifted(D), tmp_path / "other")
    save(corrupt_dataset(D, _NEW_NOISE), tmp_path / "formatted")
    swapped = _swap_after_first_open(monkeypatch, tmp_path / "src" / name,
                                     tmp_path / "other" / name)
    data_mod.relabel(tmp_path / "src", tmp_path / "out", _NEW_NOISE)
    assert swapped
    for file in _DATASET_FILES:
        expected = (tmp_path / "formatted" / file).read_bytes()
        assert (tmp_path / "out" / file).read_bytes() == expected


@pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in-place"])
@pytest.mark.parametrize("case", list(UNVERIFIABLE))
def test_relabel_refuses_an_input_it_cannot_verify_and_changes_nothing(tmp_path, case, in_place):
    # the error load raises; an edited data.csv is found once it is read
    # through, and the output's data.csv is then left as it was
    ds = tmp_path / "ds"
    save(_noisy(), ds)
    edit, cause = UNVERIFIABLE[case]
    edit(ds)
    before = {path.name: path.read_bytes() for path in ds.iterdir()}
    out = ds if in_place else tmp_path / "out"
    with pytest.raises(SchemaError) as excinfo:
        data_mod.relabel(ds, out, _NEW_NOISE)
    assert str(excinfo.value) == cause(ds) + BY_HAND
    assert {path.name: path.read_bytes() for path in ds.iterdir()} == before
    assert in_place or list(out.glob("*")) == []


def test_relabel_refuses_a_data_csv_with_text_after_its_rows(tmp_path):
    # the splice stops after n rows, and the rest of the file is hashed too
    ds = tmp_path / "ds"
    save(_noisy(), ds)
    with open(ds / "data.csv", "ab") as fh:
        fh.write(b"0,1.5,2.5,0,0\n")
    with pytest.raises(SchemaError) as excinfo:
        data_mod.relabel(ds, tmp_path / "out", _NEW_NOISE)
    assert str(excinfo.value) == UNVERIFIABLE["edited-data-csv"][1](ds) + BY_HAND
    assert list((tmp_path / "out").glob("*")) == []


def _traced_spliced_rows(path, D):
    manifest = json.loads((path / "manifest.json").read_text())
    tracemalloc.start()
    try:
        with open(path / "out.csv", "wb") as fh:
            fh.writelines(data_mod._spliced_rows(path / "data.csv", manifest,
                                                 (D.observed_labels, D.true_labels)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_relabel_holds_its_input_data_csv_a_block_at_a_time(tmp_path):
    # the splice holds a block of lines and one Python int per label cell
    # (small ints are shared, so 8 bytes each), never the whole input file
    D = make_blobs(BlobSpec(c=4, d=32, n_per_class=8192, separation=3.5, spread=1.0, seed=4))
    peaks = []
    for rows in (8192, D.n):
        E = D._take(np.arange(rows))
        save(E, tmp_path / str(rows))
        peaks.append(_traced_spliced_rows(tmp_path / str(rows), E))
    grown = D.n - 8192
    assert peaks[1] - peaks[0] <= 2 * 8 * grown + 64 * 1024, peaks
    assert (tmp_path / str(D.n) / "data.csv").stat().st_size > 16 * 2**20


def test_load_rejects_unknown_schema_version(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


@pytest.mark.parametrize("text", ["", "{", "[1, 2]"], ids=["empty", "truncated", "list"])
def test_load_names_a_manifest_that_is_not_a_json_object(tmp_path, text):
    save(blob(npc=3), tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest_path.write_text(text)
    with pytest.raises(SchemaError) as excinfo:
        load(tmp_path / "ds")
    assert str(excinfo.value).startswith(f"{manifest_path}: ")


@pytest.mark.parametrize(
    "key, nested, name",
    [("n", None, "'n'"), ("d", None, "'d'"), ("c", None, "'c'"),
     ("noise", "kind", "'noise.kind'"), ("blob", "seed", "'blob.seed'")],
)
def test_load_names_missing_manifest_field(tmp_path, key, nested, name):
    D = corrupt_dataset(blob(npc=3), NoiseSpec(kind="symmetric", ratio=0.2, seed=1))
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    target = manifest if nested is None else manifest[key]
    del target[nested or key]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"manifest.json: missing field {name}"):
        load(tmp_path / "ds")


@pytest.mark.parametrize(
    "key, field, value, problem",
    [("blob", "c", 2.7, "field 'blob.c': 2.7 is not an integer that fits int64"),
     ("blob", "seed", "7", "field 'blob.seed': '7' is not an integer that fits int64"),
     ("blob", "n_per_class", 5.9,
      "field 'blob.n_per_class': 5.9 is not an integer that fits int64"),
     ("noise", "ratio", "0.2", "field 'noise.ratio': '0.2' is not a number"),
     ("noise", "seed", True, "field 'noise.seed': True is not an integer that fits int64"),
     ("noise", "mapping", [1.5, 2, 0],
      "field 'noise.mapping': 1.5 is not an integer that fits int64"),
     ("noise", "mapping", "120", "field 'noise.mapping': '120' is not a list of integers"),
     ("noise", "mapping", {"1": 0, "2": 1, "0": 2},
      "field 'noise.mapping': {'1': 0, '2': 1, '0': 2} is not a list of integers"),
     ("noise", "kind", 5, "field 'noise.kind': 5 is not a string"),
     ("noise", "ratio", 1.5, "field 'noise': noise ratio must be in [0, 1], got 1.5"),
     ("noise", None, "symmetric", "field 'noise': 'symmetric' is not a JSON object"),
     ("noise", None, {}, "missing field 'noise.kind'")],
    ids=["blob.c", "blob.seed", "blob.n_per_class", "noise.ratio", "noise.seed",
         "noise.mapping", "noise.mapping-string", "noise.mapping-object", "noise.kind",
         "noise.ratio-range", "noise-string", "noise-empty"],
)
def test_load_names_a_manifest_spec_field_of_the_wrong_type(tmp_path, key, field, value, problem):
    # int() and float() read 2.7, true, "7" and "0.2" as 2, 1, 7 and 0.2, a
    # "noise" of {} as no noise, and a string "noise" raised a TypeError
    spec = NoiseSpec(kind="asymmetric", ratio=0.2, mapping=(1, 2, 0), seed=1)
    save(corrupt_dataset(blob(npc=3), spec), tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if field is None:
        manifest[key] = value
    else:
        manifest[key][field] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError) as excinfo:
        load(tmp_path / "ds")
    assert str(excinfo.value) == f"manifest.json: {problem}"


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_refuses_a_schema_version_that_is_not_the_integer_1(tmp_path, version):
    save(blob(npc=3), tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = version
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError, match=f"^unsupported schema_version {version!r}$"):
        load(tmp_path / "ds")


@pytest.mark.parametrize(
    "key, value",
    [("n", "x"), ("n", 2.5), ("n", -1), ("n", True), ("n", None),
     ("d", 0), ("d", 2.0), ("c", 1), ("c", False), ("c", [3])],
)
def test_load_rejects_a_manifest_count_that_is_not_an_integer_in_range(tmp_path, key, value):
    save(blob(npc=3), tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[key] = value
    manifest_path.write_text(json.dumps(manifest))
    low = {"n": 0, "d": 1, "c": 2}[key]
    with pytest.raises(SchemaError) as excinfo:
        load(tmp_path / "ds")
    assert str(excinfo.value) == (
        f"manifest.json: field {key!r} must be an integer >= {low}, got {value!r}"
    )


def test_load_rejects_label_out_of_manifest_range(tmp_path):
    D = blob(c=3, npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["c"] = 2
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


def test_load_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "nope")


@settings(max_examples=25)
@given(
    c=st.integers(min_value=2, max_value=5),
    npc=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_split_half_partition_property(c, npc, seed):
    D = blob(c=c, npc=npc, seed=seed % 7)
    a, b = split_half(D, seed=seed)
    assert a.n == (D.n + 1) // 2
    assert a.n + b.n == D.n
    assert np.array_equal(np.union1d(a.ids, b.ids), D.ids)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_save_load_property_round_trip(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ds")
    D = corrupt_dataset(
        blob(c=3, npc=5, seed=seed % 11),
        NoiseSpec(kind="symmetric", ratio=(seed % 5) / 10, seed=seed),
    )
    save(D, tmp / "ds")
    back = load(tmp / "ds")
    assert np.array_equal(back.features, D.features)
    assert np.array_equal(back.observed_labels, D.observed_labels)
    _assert_data_csv_holds(tmp / "ds", D)
