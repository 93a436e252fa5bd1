import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelnoise.noise import (
    NoiseSpec,
    TransitionMatrix,
    actual_noise_ratio,
    asymmetric_matrix,
    corrupt_labels,
    cyclic_mapping,
    matrix_from_spec,
    random_diagonal_dominant,
    symmetric_matrix,
)


def test_transition_matrix_validates_row_sums():
    with pytest.raises(ValueError):
        TransitionMatrix(c=2, entries=np.array([[0.6, 0.3], [0.5, 0.5]]))


def test_transition_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        TransitionMatrix(c=2, entries=np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_transition_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        TransitionMatrix(c=3, entries=np.eye(2))


def test_row_cdf_monotone_ends_at_one():
    T = symmetric_matrix(5, 0.3)
    cdf = T.row_cdf()
    assert np.all(np.diff(cdf, axis=1) >= 0)
    assert np.allclose(cdf[:, -1], 1.0, atol=1e-12)


def test_symmetric_matrix_structure():
    T = symmetric_matrix(10, 0.5)
    assert np.allclose(np.diag(T.entries), 0.5)
    off = T.entries[~np.eye(10, dtype=bool)]
    assert np.allclose(off, 0.5 / 9)


def test_symmetric_matrix_zero_ratio_is_identity():
    T = symmetric_matrix(4, 0.0)
    assert np.array_equal(T.entries, np.eye(4))


def test_symmetric_matrix_warns_when_diagonal_not_dominant():
    with pytest.warns(UserWarning):
        symmetric_matrix(10, 0.95)


def test_asymmetric_matrix_uses_cyclic_target_by_default():
    T = asymmetric_matrix(4, 0.4)
    expected = np.zeros((4, 4))
    for i in range(4):
        expected[i, i] = 0.6
        expected[i, (i + 1) % 4] = 0.4
    assert np.allclose(T.entries, expected)


def test_asymmetric_matrix_respects_custom_mapping():
    mapping = (1, 0, 3, 2)
    T = asymmetric_matrix(4, 0.3, mapping=mapping)
    for i, j in enumerate(mapping):
        assert T.entries[i, j] == pytest.approx(0.3)


def test_asymmetric_matrix_rejects_fixed_point_mapping():
    with pytest.raises(ValueError):
        asymmetric_matrix(3, 0.3, mapping=(0, 2, 1))


def test_asymmetric_matrix_warns_at_half():
    with pytest.warns(UserWarning):
        asymmetric_matrix(4, 0.5)


def test_cyclic_mapping_is_fixed_point_free_permutation():
    m = cyclic_mapping(6)
    assert sorted(m) == list(range(6))
    assert all(m[i] != i for i in range(6))


def test_matrix_from_spec_round_trips_both_kinds():
    sym = matrix_from_spec(NoiseSpec(kind="symmetric", ratio=0.2, seed=0), c=5)
    assert np.allclose(sym.entries, symmetric_matrix(5, 0.2).entries)
    asym = matrix_from_spec(NoiseSpec(kind="asymmetric", ratio=0.2, seed=0), c=5)
    assert np.allclose(asym.entries, asymmetric_matrix(5, 0.2).entries)


def test_matrix_from_spec_rejects_custom_kind():
    with pytest.raises(ValueError):
        matrix_from_spec(NoiseSpec(kind="custom", ratio=0.0, seed=0), c=3)


def test_noise_spec_takes_a_mapping_of_whole_numbers():
    spec = NoiseSpec(kind="asymmetric", ratio=0.4, mapping=np.array([1.0, 2.0, 0.0]))
    assert spec.mapping == (1, 2, 0) and all(type(m) is int for m in spec.mapping)


@pytest.mark.parametrize("mapping", [(1.5, 2, 0), (True, False)], ids=["fraction", "bool"])
def test_noise_spec_refuses_a_mapping_that_is_not_whole_numbers(mapping):
    # int() read (1.5, 2, 0) as the permutation (1, 2, 0)
    with pytest.raises(ValueError, match="^mapping must be 1-d whole numbers, got "):
        NoiseSpec(kind="asymmetric", ratio=0.4, mapping=mapping)


def test_corrupt_labels_identity_is_noop():
    labels = np.array([0, 1, 2, 1, 0])
    T = symmetric_matrix(3, 0.0)
    assert np.array_equal(corrupt_labels(labels, T, seed=3), labels)


def test_corrupt_labels_full_flip_two_classes():
    labels = np.array([0, 1, 0, 1])
    with pytest.warns(UserWarning):
        T = symmetric_matrix(2, 1.0)
    assert np.array_equal(corrupt_labels(labels, T, seed=4), 1 - labels)


def test_corrupt_labels_deterministic_per_seed():
    labels = np.random.default_rng(0).integers(0, 5, size=1000)
    T = symmetric_matrix(5, 0.4)
    a = corrupt_labels(labels, T, seed=11)
    b = corrupt_labels(labels, T, seed=11)
    c = corrupt_labels(labels, T, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_corrupt_labels_realized_ratio_matches_target():
    n = 100000
    labels = np.random.default_rng(1).integers(0, 10, size=n)
    T = symmetric_matrix(10, 0.5)
    noisy = corrupt_labels(labels, T, seed=2)
    # binomial 3 sigma at n=1e5 is about 0.0047
    assert actual_noise_ratio(noisy, labels) == pytest.approx(0.5, abs=0.005)


def test_corrupt_labels_matches_each_row_distribution():
    n = 200000
    labels = np.zeros(n, dtype=np.int64)
    T = asymmetric_matrix(4, 0.3)
    noisy = corrupt_labels(labels, T, seed=5)
    freq = np.bincount(noisy, minlength=4) / n
    assert np.max(np.abs(freq - T.entries[0])) < 0.005


def test_corrupt_labels_rejects_out_of_range():
    with pytest.raises(ValueError):
        corrupt_labels(np.array([0, 3]), symmetric_matrix(3, 0.1), seed=0)


@pytest.mark.parametrize(
    "labels", [[0.5, 1.7, 2], np.zeros((3, 1), dtype=np.int64), np.array([True, False])],
    ids=["fractions", "column", "bool"],
)
def test_corrupt_labels_refuses_labels_that_are_not_1d_whole_numbers(labels):
    with pytest.raises(ValueError, match="^labels must be 1-d whole numbers, got "):
        corrupt_labels(labels, symmetric_matrix(3, 0.1), seed=0)


def test_actual_noise_ratio_hand_case():
    assert actual_noise_ratio(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2])) == 0.25


def test_actual_noise_ratio_length_mismatch():
    with pytest.raises(ValueError):
        actual_noise_ratio(np.array([0, 1]), np.array([0]))


def test_random_diagonal_dominant_is_stochastic_and_dominant():
    T = random_diagonal_dominant(6, seed=3)
    assert np.allclose(T.entries.sum(axis=1), 1.0, atol=1e-12)
    diag = np.diag(T.entries)
    assert np.all(diag > 0.5)
    assert np.all(diag >= T.entries.max(axis=1) - 1e-12)


def test_random_diagonal_dominant_deterministic():
    a = random_diagonal_dominant(5, seed=8)
    b = random_diagonal_dominant(5, seed=8)
    assert np.array_equal(a.entries, b.entries)


@given(
    c=st.integers(min_value=2, max_value=12),
    ratio=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_symmetric_rows_always_stochastic(c, ratio):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        T = symmetric_matrix(c, ratio)
    assert np.all(T.entries >= 0)
    assert np.all(T.entries <= 1)
    assert np.allclose(T.entries.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=40)
@given(
    c=st.integers(min_value=2, max_value=8),
    ratio=st.floats(min_value=0.0, max_value=0.49),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=0, max_value=200),
)
def test_corrupted_labels_stay_in_range(c, ratio, seed, n):
    labels = np.random.default_rng(seed).integers(0, c, size=n)
    noisy = corrupt_labels(labels, asymmetric_matrix(c, ratio), seed=seed)
    assert noisy.shape == labels.shape
    if n:
        assert noisy.min() >= 0 and noisy.max() < c
