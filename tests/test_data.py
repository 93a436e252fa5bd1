import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_save_load_without_truth(tmp_path):
    D = blob(npc=4)
    bare = LabeledDataset(
        features=D.features, observed_labels=D.observed_labels, ids=D.ids, c=D.c
    )
    save(bare, tmp_path / "ds")
    back = load(tmp_path / "ds")
    assert back.true_labels is None


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


def test_load_rejects_unknown_schema_version(tmp_path):
    D = blob(npc=3)
    save(D, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(SchemaError):
        load(tmp_path / "ds")


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
