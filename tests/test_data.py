import hashlib
import json
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise import data as data_mod
from labelnoise.data import (
    BlobSpec,
    LabeledDataset,
    SchemaError,
    corrupt_dataset,
    load,
    make_blobs,
    save,
    split_half,
    split_per_class,
    write_csv,
)
from labelnoise.noise import NoiseSpec, actual_noise_ratio, random_diagonal_dominant


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


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError, match="sample ids must be unique"):
        LabeledDataset(features=np.zeros((3, 1)), observed_labels=[0, 1, 0],
                       ids=[5, 2, 5], c=2)


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


_DIGESTS = ("data_csv_sha256", "data_npy_sha256")


def _load_from_data_csv(ds, dropped=_DIGESTS):
    """Load ds after deleting the `dropped` manifest keys (both digests by
    default, as in a directory saved before data.npy existed), asserting the
    rows come from one np.loadtxt pass over data.csv. An empty dataset goes
    on to the row parser, as it always has."""
    manifest = json.loads((ds / "manifest.json").read_text())
    for key in dropped:
        del manifest[key]
    data_mod.write_json(ds / "manifest.json", manifest)

    def row_parser(*args):
        raise AssertionError("fell back to the row parser")

    passes = []
    parse = data_mod._parse_vectorised
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, "_parse_vectorised", lambda *a: passes.append(1) or parse(*a))
        if manifest["n"] > 0:
            mp.setattr(data_mod, "_parse_rows", row_parser)
        back = load(ds)
    assert passes == [1]
    return back


def test_save_load_round_trip_bit_exact(tmp_path):
    D = corrupt_dataset(blob(npc=30), NoiseSpec(kind="asymmetric", ratio=0.3, seed=2))
    save(D, tmp_path / "ds")
    for back in (load(tmp_path / "ds"), _load_from_data_csv(tmp_path / "ds")):
        assert np.array_equal(back.features, D.features)
        assert np.array_equal(back.observed_labels, D.observed_labels)
        assert np.array_equal(back.true_labels, D.true_labels)
        assert np.array_equal(back.ids, D.ids)
        assert back.c == D.c
        assert back.noise == D.noise


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
    for back in (load(tmp_path / "ds"), _load_from_data_csv(tmp_path / "ds")):
        assert back.true_labels is None
        assert np.array_equal(back.features, D.features)


def test_save_writes_manifest_fields(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["n"] == D.n and manifest["d"] == D.d and manifest["c"] == D.c
    assert manifest["blob"]["seed"] == 0


def test_load_reports_missing_column_with_line(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "data.csv"
    lines = csv_path.read_text().splitlines()
    lines[0] = lines[0].replace("observed_label", "label")
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="line 1"):
        load(tmp_path / "ds")


def test_load_reports_bad_value_with_line(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    csv_path = tmp_path / "ds" / "data.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[1], "not_a_number", 1)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="line 3"):
        load(tmp_path / "ds")


def test_load_rejects_row_count_mismatch(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["n"] = 5
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


@pytest.mark.parametrize(
    "column, value",
    [("f1", "nan"), ("f0", "-inf"), ("observed_label", "-1"), ("true_label", "3")],
)
def test_load_rejects_bad_values_with_line(tmp_path, column, value):
    save(blob(c=3, npc=3), tmp_path / "ds")
    csv_path = tmp_path / "ds" / "data.csv"
    lines = [line.split(",") for line in csv_path.read_text().splitlines()]
    lines[4][lines[0].index(column)] = value
    csv_path.write_text("\n".join(",".join(row) for row in lines) + "\n")
    with pytest.raises(SchemaError, match="line 5") as excinfo:
        load(tmp_path / "ds")
    assert excinfo.value.line == 5


_CONTRACT_ROWS = ["id,f0,f1,observed_label,true_label", "0,0.5,-1.25,0,0", "1,2,3,1,2", "2,0.125,4,2,2"]
_CONTRACT_FEATURES = [[0.5, -1.25], [2.0, 3.0], [0.125, 4.0]]


def _second_row(text):
    return _CONTRACT_ROWS[:2] + [text] + _CONTRACT_ROWS[3:]


def _inserted(text):
    return _CONTRACT_ROWS[:2] + [text] + _CONTRACT_ROWS[2:]


@pytest.mark.parametrize(
    "lines, newline, expected",
    [
        (_inserted(""), "\n", (3, "line 3: expected 5 fields, got 0")),
        (_CONTRACT_ROWS[:1] + [""] * 3, "\n", (2, "line 2: expected 5 fields, got 0")),
        (_CONTRACT_ROWS[:3], "\n", (None, "manifest declares n=3 but data.csv has 2 rows")),
        (_CONTRACT_ROWS + [""], "\n", (5, "line 5: more than the 3 rows declared in manifest")),
        (_inserted("   "), "\n", (3, "line 3: expected 5 fields, got 1")),
        (_inserted("# a comment"), "\n", (3, "line 3: expected 5 fields, got 1")),
        (_second_row("#1,2,3,1,2"), "\n", (3, "line 3: invalid literal for int() with base 10: '#1'")),
        (_second_row('1,"2",3,1,2'), "\n", _CONTRACT_FEATURES),
        (_second_row(" 1 , 2 ,3 ,1 , 2 "), "\n", _CONTRACT_FEATURES),
        (_second_row("+1,2,3,1,2"), "\n", _CONTRACT_FEATURES),
        (_second_row("1.0,2,3,1,2"), "\n", (3, "line 3: invalid literal for int() with base 10: '1.0'")),
        (_second_row("1,1_0,3,1,2"), "\n", [[0.5, -1.25], [10.0, 3.0], [0.125, 4.0]]),
        (_CONTRACT_ROWS, "\r\n", _CONTRACT_FEATURES),
        (_second_row("1,1e-400,4.9e-324,1,2"), "\n", [[0.5, -1.25], [0.0, 5e-324], [0.125, 4.0]]),
        # numpy would read this letter as the integer 462
        (_second_row("\u01fe,2,3,1,2"), "\n", (3, "line 3: invalid literal for int() with base 10: '\u01fe'")),
        # Python reads Arabic-Indic digits, numpy does not
        (_second_row("1,\u0662,3,1,2"), "\n", _CONTRACT_FEATURES),
        # numpy strips \x1c-\x1f as whitespace, float() does not
        (_second_row("1,2\x1f,3,1,2"), "\n", (3, "line 3: could not convert string to float: '2\\x1f'")),
    ],
    ids=[
        "blank-line", "blank-body", "short-body", "trailing-blank-line", "whitespace-line", "comment-line",
        "comment-row", "quoted-number", "space-padded", "plus-id", "float-id",
        "underscore-digits", "crlf", "underflow-and-subnormal", "non-ascii-id",
        "non-ascii-digit", "unit-separator",
    ],
)
def test_load_contract_matches_the_row_parser(tmp_path, lines, newline, expected):
    # each expectation is what the row-by-row parser alone gives; numpy
    # must warn about nothing on the way
    ds = tmp_path / "ds"
    save(LabeledDataset(features=np.zeros((3, 2)), observed_labels=[0, 1, 2],
                        ids=[0, 1, 2], c=3, true_labels=[0, 2, 2]), ds)
    (ds / "data.csv").write_text(newline.join(lines) + newline, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(expected, tuple):
            with pytest.raises(SchemaError) as excinfo:
                load(ds)
            assert (excinfo.value.line, str(excinfo.value)) == expected
        else:
            back = load(ds)
            assert back.features.tolist() == expected
            assert back.ids.tolist() == [0, 1, 2]
            assert back.observed_labels.tolist() == [0, 1, 2]
            assert back.true_labels.tolist() == [0, 2, 2]


def test_load_parses_a_written_file_in_one_vectorised_pass(tmp_path):
    # without the digests, as a directory saved before data.npy existed;
    # the CSV pass must give the data.npy path's bits
    D = corrupt_dataset(blob(npc=30), NoiseSpec(kind="symmetric", ratio=0.3, seed=2))
    save(D, tmp_path / "ds")
    from_npy = load(tmp_path / "ds")
    back = _load_from_data_csv(tmp_path / "ds")
    _assert_same_bits(back, D)
    assert np.array_equal(back.features.view(np.uint64), from_npy.features.view(np.uint64))
    assert back.features.flags.c_contiguous and back.ids.flags.c_contiguous


def _refuse(*args):
    raise AssertionError("parsed data.csv")


def _noisy(npc=30):
    return corrupt_dataset(blob(npc=npc), NoiseSpec(kind="symmetric", ratio=0.3, seed=2))


def _assert_same_bits(back, D):
    assert np.array_equal(back.features.view(np.uint64), D.features.view(np.uint64))
    assert np.array_equal(back.ids, D.ids)
    assert np.array_equal(back.observed_labels, D.observed_labels)
    assert np.array_equal(back.true_labels, D.true_labels)


def test_load_reads_a_saved_dataset_from_data_npy(tmp_path, monkeypatch):
    monkeypatch.setattr(data_mod, "_parse_vectorised", _refuse)
    monkeypatch.setattr(data_mod, "_parse_rows", _refuse)
    D = _noisy()
    save(D, tmp_path / "ds")
    back = load(tmp_path / "ds")
    _assert_same_bits(back, D)
    assert back.noise == D.noise and back.blob == D.blob
    assert back.features.flags.c_contiguous and back.ids.flags.c_contiguous


@pytest.mark.parametrize(
    "dropped, remove_npy",
    [(("data_csv_sha256",), False), (("data_npy_sha256",), False), ((), True)],
    ids=["no-csv-digest", "no-npy-digest", "no-data-npy"],
)
def test_load_without_both_digests_parses_data_csv(tmp_path, dropped, remove_npy):
    # test_load_parses_a_written_file_in_one_vectorised_pass drops both
    D = _noisy()
    ds = tmp_path / "ds"
    save(D, ds)
    if remove_npy:
        (ds / "data.npy").unlink()
    _assert_same_bits(_load_from_data_csv(ds, dropped), D)


def test_load_falls_back_to_data_csv_on_a_damaged_data_npy(tmp_path):
    D = _noisy()
    ds = tmp_path / "ds"
    save(D, ds)
    raw = bytearray((ds / "data.npy").read_bytes())
    raw[-D.n * (D.d + 3) * 8 + 8] ^= 0xFF  # the lowest byte of row 0's f0
    (ds / "data.npy").write_bytes(bytes(raw))
    assert np.load(ds / "data.npy")["f"][0, 0] != D.features[0, 0]
    _assert_same_bits(_load_from_data_csv(ds, dropped=()), D)


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
        backs = (load(tmp_path / "ds"), _load_from_data_csv(tmp_path / "ds"))
    for back in backs:
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
    for back in (load(ds), _load_from_data_csv(ds)):
        assert np.array_equal(back.features.view(np.uint64), features.view(np.uint64))
    # the row-by-row parser, kept as the reference, reads the same bits
    ref = data_mod._parse_rows(ds / "data.csv", D.n, D.d, False)
    assert np.array_equal(ref[1].view(np.uint64), features.view(np.uint64))


_special_bits = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, np.nan, -np.nan, np.inf, -np.inf]
).map(lambda v: int(np.float64(v).view(np.uint64)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=0, max_value=4), with_truth=st.booleans())
def test_save_writes_what_write_csv_writes(data, d, with_truth, tmp_path_factory):
    # save formats data.csv itself; its bytes must stay those of the table
    # writer, fed numpy scalars rather than tolist() values
    ids = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=12))
    n = len(ids)
    bits = data.draw(st.lists(_float_bits | _special_bits, min_size=n * d, max_size=n * d))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    D = LabeledDataset(
        features=np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d),
        observed_labels=data.draw(labels),
        ids=ids,
        c=3,
        true_labels=data.draw(labels) if with_truth else None,
    )
    tmp = tmp_path_factory.mktemp("ds")
    save(D, tmp / "ds")
    header = ["id", *(f"f{j}" for j in range(d)), "observed_label"]
    header += ["true_label"] if with_truth else []
    rows = [
        [D.ids[r], *D.features[r], D.observed_labels[r]]
        + ([D.true_labels[r]] if with_truth else [])
        for r in range(n)
    ]
    write_csv(tmp / "table.csv", header, rows)
    assert (tmp / "ds" / "data.csv").read_bytes() == (tmp / "table.csv").read_bytes()


_DATASET_FILES = ("data.csv", "data.npy", "manifest.json")


def _refused(name):
    def refuse(*args):
        raise AssertionError(f"save ran {name}")

    return refuse


def _assert_source_save(D2, src, tmp, spliced, out=None):
    """save(D2, out, source=src) writes the three files save(D2) writes
    elsewhere, through the splice when `spliced` and through the format
    path when not: the other path is patched to raise."""
    out = out or tmp / "from_source"
    save(D2, tmp / "formatted")
    refused = "_formatted_rows" if spliced else "_spliced_rows"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_mod, refused, _refused(refused))
        save(D2, out, source=src)
    for name in _DATASET_FILES:
        assert (out / name).read_bytes() == (tmp / "formatted" / name).read_bytes()


_NEW_NOISE = NoiseSpec(kind="symmetric", ratio=0.5, seed=1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(min_value=0, max_value=4),
       source_truth=st.booleans(), truth=st.booleans())
def test_save_from_source_writes_the_formatted_bytes(data, d, source_truth, truth,
                                                      tmp_path_factory):
    # arbitrary float64 bit patterns: -0.0, subnormals, extreme exponents,
    # NaN and infinities; save copies the source's text for all of them
    ids = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=12))
    n = len(ids)
    bits = data.draw(st.lists(_float_bits | _special_bits, min_size=n * d, max_size=n * d))
    labels = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    src = LabeledDataset(
        features=np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, d),
        observed_labels=data.draw(labels),
        ids=ids,
        c=3,
        true_labels=data.draw(labels) if source_truth else None,
    )
    tmp = tmp_path_factory.mktemp("ds")
    save(src, tmp / "src")
    D2 = replace(src, observed_labels=data.draw(labels),
                 true_labels=data.draw(labels) if truth else None, noise=_NEW_NOISE)
    _assert_source_save(D2, tmp / "src", tmp, spliced=True)


@pytest.mark.parametrize("source_truth", [True, False], ids=["source-truth", "source-no-truth"])
@pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
def test_save_from_source_splices_with_and_without_true_labels(tmp_path, source_truth, truth):
    D = _noisy()
    src = D if source_truth else replace(D, true_labels=None)
    save(src, tmp_path / "src")
    D2 = corrupt_dataset(D, _NEW_NOISE)
    if not truth:
        D2 = replace(D2, true_labels=None)
    _assert_source_save(D2, tmp_path / "src", tmp_path, spliced=True)


def _edit_data_csv(ds, D):
    # the first feature of the first row, as a hand edit after save would
    lines = (ds / "data.csv").read_text().split("\n")
    fields = lines[1].split(",")
    fields[1] = "99"
    lines[1] = ",".join(fields)
    (ds / "data.csv").write_text("\n".join(lines))
    return D


def _drop_manifest_keys(*keys):
    def drop(ds, D):
        manifest = json.loads((ds / "manifest.json").read_text())
        for key in keys:
            del manifest[key]
        data_mod.write_json(ds / "manifest.json", manifest)
        return D

    return drop


def _damage_data_npy(ds, D):
    raw = bytearray((ds / "data.npy").read_bytes())
    raw[-1] ^= 0xFF  # the last row's last label
    (ds / "data.npy").write_bytes(bytes(raw))
    return D


def _negate_zero(ds, D):
    # the source holds 0.0 here, which formats as 0; -0.0 formats as -0
    features = D.features.copy()
    features[0, 0] = -0.0
    return replace(D, features=features)


def _reverse_rows(ds, D):
    return D._take(np.arange(D.n)[::-1])


def _shift_ids(ds, D):
    return replace(D, ids=D.ids + D.n)


def _remove_source(ds, D):
    for name in _DATASET_FILES:
        (ds / name).unlink()
    return D


@pytest.mark.parametrize(
    "edit",
    [_edit_data_csv, _drop_manifest_keys(*_DIGESTS), _drop_manifest_keys("data_csv_sha256"),
     _drop_manifest_keys("data_npy_sha256"), _damage_data_npy, _negate_zero, _reverse_rows,
     _shift_ids, _remove_source],
    ids=["edited-data-csv", "no-digests", "no-csv-digest", "no-npy-digest", "damaged-data-npy",
         "signed-zero", "row-order", "other-ids", "no-source"],
)
def test_save_from_an_unverified_source_formats_every_row(tmp_path, edit):
    D = _noisy()
    features = D.features.copy()
    features[0, 0] = 0.0
    D = replace(D, features=features)
    save(D, tmp_path / "src")
    D2 = corrupt_dataset(edit(tmp_path / "src", D), _NEW_NOISE)
    _assert_source_save(D2, tmp_path / "src", tmp_path, spliced=False)


def test_save_over_its_own_source_formats_every_row(tmp_path):
    # opening data.csv for writing would truncate the text to be copied
    D = _noisy()
    save(D, tmp_path / "ds")
    D2 = corrupt_dataset(D, _NEW_NOISE)
    _assert_source_save(D2, tmp_path / "ds", tmp_path, spliced=False, out=tmp_path / "ds")


def test_load_rejects_unknown_schema_version(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


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
    for back in (load(tmp / "ds"), _load_from_data_csv(tmp / "ds")):
        assert np.array_equal(back.features, D.features)
        assert np.array_equal(back.observed_labels, D.observed_labels)
