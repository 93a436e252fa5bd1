import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_relative_gradient_error, set_flat_params
from labelnoise import learners
from labelnoise.data import (
    BlobSpec,
    LabeledDataset,
    corrupt_dataset,
    make_blobs,
    split_per_class,
)
from labelnoise.learners import (
    DIVERGENCE_LIMIT,
    LOSS_CLAMP,
    DivergenceError,
    KnnLearner,
    MissingTrueLabelsError,
    OracleLearner,
    SoftmaxLearner,
    TrainConfig,
    _row_uniforms,
    knn_factory,
    oracle_factory,
    softmax_factory,
    train_stacked,
)
from labelnoise.noise import NoiseSpec, TransitionMatrix, symmetric_matrix


def random_features(n, d, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


# ---------------------------------------------------------------------------
# hash-draw plumbing


def test_row_uniforms_in_unit_interval():
    u = _row_uniforms(random_features(5000, 3), seed=1)
    assert np.all(u >= 0.0)
    assert np.all(u < 1.0)


def test_row_uniforms_duplicated_rows_identical():
    X = random_features(10, 4, seed=2)
    stacked = np.vstack([X, X])
    u = _row_uniforms(stacked, seed=9)
    assert np.array_equal(u[:10], u[10:])


def test_row_uniforms_seed_changes_values():
    X = random_features(100, 3, seed=3)
    assert not np.array_equal(_row_uniforms(X, 0), _row_uniforms(X, 1))


def test_row_uniforms_roughly_uniform():
    # 20-bin occupancy at n=1e5: each bin ~5000, 5 sigma ~ 350
    u = _row_uniforms(random_features(100_000, 2, seed=4), seed=0)
    counts, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    assert np.all(np.abs(counts - 5000) < 350)
    assert abs(u.mean() - 0.5) < 0.005


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64),
        min_size=2,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=2**63),
)
def test_row_uniforms_any_float_content(row, seed):
    X = np.array([row, row], dtype=np.float64)
    u = _row_uniforms(X, seed)
    assert 0.0 <= u[0] < 1.0
    assert u[0] == u[1]


# ---------------------------------------------------------------------------
# oracle learner


def oracle_case(eps=0.3, c=4, n=2000, seed=11):
    T = symmetric_matrix(c, eps)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    true = rng.integers(0, c, size=n)
    return OracleLearner(T, seed=5), X, true


def test_oracle_requires_true_labels():
    learner, X, _ = oracle_case()
    with pytest.raises(MissingTrueLabelsError):
        learner.predict_proba(X)


def test_oracle_length_mismatch_rejected():
    learner, X, true = oracle_case()
    with pytest.raises(ValueError, match="length"):
        learner.predict_proba(X, true[:-1])


@pytest.mark.parametrize("method", ["predict_labels", "predict_proba"])
def test_oracle_rejects_true_labels_outside_the_classes(method):
    # rows of label 7 or -1 would keep np.empty's contents, or read T's last row
    learner = OracleLearner(symmetric_matrix(3, 0.3), seed=5)
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got range \[-1, 7\]"):
        getattr(learner, method)(random_features(4, 2), [0, 7, -1, 2])


@pytest.mark.parametrize(
    "labels, got",
    [([0.5, 1.7, 2, 0], "float64 of shape (4,)"),
     (np.zeros((4, 1), dtype=np.int64), "int64 of shape (4, 1)"),
     ([True, False, True, False], "bool of shape (4,)")],
    ids=["fractions", "column", "bool"],
)
@pytest.mark.parametrize("method", ["predict_labels", "predict_proba"])
def test_oracle_refuses_true_labels_that_are_not_1d_whole_numbers(method, labels, got):
    # a cast to int64 read 0.5 and 1.7 as classes 0 and 1
    learner = OracleLearner(symmetric_matrix(3, 0.3), seed=5)
    with pytest.raises(ValueError) as excinfo:
        getattr(learner, method)(random_features(4, 2), labels)
    assert str(excinfo.value) == f"true_labels must be 1-d whole numbers, got {got}"


def test_oracle_rows_sum_to_one():
    learner, X, true = oracle_case()
    probs = learner.predict_proba(X, true)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_oracle_label_is_argmax_even_near_half_noise():
    # mixture weight 0.5 on the drawn one-hot keeps the argmax at the draw
    # no matter how lopsided the transition row is
    T = TransitionMatrix(c=2, entries=np.array([[0.51, 0.49], [0.49, 0.51]]))
    rng = np.random.default_rng(0)
    X = rng.standard_normal((500, 2))
    true = rng.integers(0, 2, size=500)
    learner = OracleLearner(T, seed=3)
    probs = learner.predict_proba(X, true)
    labels = learner.predict_labels(X, true)
    assert np.array_equal(labels, np.argmax(probs, axis=1))
    assert np.all(probs[np.arange(500), labels] > 0.5)


def test_oracle_identity_matrix_predicts_truth_exactly():
    T = symmetric_matrix(3, 0.0)
    learner = OracleLearner(T, seed=1)
    X = random_features(50, 2, seed=6)
    true = np.arange(50) % 3
    assert np.array_equal(learner.predict_labels(X, true), true)
    probs = learner.predict_proba(X, true)
    assert np.array_equal(probs[np.arange(50), true], np.ones(50))


def test_oracle_deterministic_and_seed_sensitive():
    T = symmetric_matrix(2, 0.4)
    X = random_features(200, 3, seed=7)
    true = np.zeros(200, dtype=np.int64)
    a = OracleLearner(T, seed=0).predict_labels(X, true)
    b = OracleLearner(T, seed=0).predict_labels(X, true)
    c = OracleLearner(T, seed=1).predict_labels(X, true)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_oracle_draw_frequencies_match_transition_rows():
    eps, c, n = 0.3, 4, 40_000
    T = symmetric_matrix(c, eps)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((n, 3))
    true = np.repeat(np.arange(c), n // c)
    labels = OracleLearner(T, seed=17).predict_labels(X, true)
    for i in range(c):
        drawn = labels[true == i]
        freq = np.bincount(drawn, minlength=c) / len(drawn)
        # binomial 4 sigma at n=1e4 is ~0.018
        np.testing.assert_allclose(freq, T.entries[i], atol=0.02)


def test_oracle_training_is_a_noop(tiny_blobs):
    learner = OracleLearner(symmetric_matrix(4, 0.2), seed=0)
    assert learner.train(tiny_blobs) is learner
    X = tiny_blobs.features
    before = learner.predict_labels(X, tiny_blobs.true_labels)
    after = learner.train(tiny_blobs).predict_labels(X, tiny_blobs.true_labels)
    assert np.array_equal(before, after)


def test_oracle_disagreeing_losses_separate_clean_from_corrupted():
    # for samples whose prediction misses the observed label, the loss is
    # -log(0.5 T[true, observed]): clean samples hit the dominant diagonal
    # and score strictly lower than corrupted ones
    eps, c = 0.3, 4
    D = corrupt_dataset(
        make_blobs(BlobSpec(c=c, d=3, n_per_class=500, separation=5.0, spread=1.0, seed=3)),
        NoiseSpec(kind="symmetric", ratio=eps, seed=10),
    )
    learner = OracleLearner(symmetric_matrix(c, eps), seed=2)
    pred = learner.predict_dataset(D)
    losses = learner.losses(D.features, D.observed_labels, D.true_labels)
    disagree = pred != D.observed_labels
    clean = disagree & (D.observed_labels == D.true_labels)
    corrupted = disagree & (D.observed_labels != D.true_labels)
    assert clean.sum() > 50 and corrupted.sum() > 50
    np.testing.assert_allclose(losses[clean], -np.log(0.5 * (1 - eps)), atol=1e-12)
    np.testing.assert_allclose(
        losses[corrupted], -np.log(0.5 * eps / (c - 1)), atol=1e-12
    )
    assert losses[clean].max() < losses[corrupted].min()


def test_loss_clamp_keeps_zero_probability_finite():
    learner = OracleLearner(symmetric_matrix(3, 0.0), seed=0)
    X = random_features(4, 2, seed=8)
    true = np.zeros(4, dtype=np.int64)
    wrong = np.ones(4, dtype=np.int64)  # identity rows put mass 0 there
    losses = learner.losses(X, wrong, true)
    assert np.all(np.isfinite(losses))
    np.testing.assert_allclose(losses, -np.log(LOSS_CLAMP))


# ---------------------------------------------------------------------------
# k-nearest-neighbor learner


def knn_trainset(features, labels, c):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return LabeledDataset(
        features=features,
        observed_labels=labels,
        ids=np.arange(len(labels), dtype=np.int64),
        c=c,
    )


def test_knn_untrained_prediction_rejected():
    with pytest.raises(RuntimeError, match="not been trained"):
        KnnLearner().predict_proba(np.zeros((1, 2)))


def test_knn_empty_trainset_rejected():
    D = knn_trainset(np.zeros((0, 2)), np.zeros(0), c=2)
    with pytest.raises(ValueError, match="empty"):
        KnnLearner().train(D)


def test_knn_memorizes_training_labels():
    D = corrupt_dataset(
        make_blobs(BlobSpec(c=3, d=4, n_per_class=40, separation=6.0, spread=1.0, seed=1)),
        NoiseSpec(kind="symmetric", ratio=0.4, seed=2),
    )
    learner = KnnLearner().train(D)
    assert np.array_equal(learner.predict_labels(D.features), D.observed_labels)


def test_knn_hand_votes_k1():
    D = knn_trainset([[0.0], [1.0], [10.0]], [0, 1, 2], c=3)
    learner = KnnLearner().train(D)
    probs = learner.predict_proba([[0.1]])
    np.testing.assert_allclose(probs[0], [0.5, 0.25, 0.25])
    assert learner.predict_labels([[0.1]])[0] == 0


def naive_knn_probs(train_X, train_y, X, k, c):
    probs = np.empty((len(X), c))
    for i, x in enumerate(X):
        d2 = np.sum((train_X - x) ** 2, axis=1)
        votes = train_y[np.argsort(d2)[:k]]
        counts = np.bincount(votes, minlength=c)
        probs[i] = (counts + 1.0) / (k + c)
    return probs


@pytest.mark.parametrize("block_bytes", [None, 8 * 60 * 7], ids=["1", "1-blocks7"])
def test_knn_matches_naive_reference(block_bytes, monkeypatch):
    if block_bytes is not None:
        # 7-row blocks over 60 training rows: the 25 queries run as 7, 7, 7, 4
        monkeypatch.setattr(learners, "KNN_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(33)
    train_X = rng.standard_normal((60, 3))
    train_y = rng.integers(0, 4, size=60)
    X = rng.standard_normal((25, 3))
    learner = KnnLearner().train(knn_trainset(train_X, train_y, c=4))
    np.testing.assert_allclose(learner.predict_proba(X), naive_knn_probs(train_X, train_y, X, 1, 4))


def test_knn_rejects_queries_of_the_wrong_width():
    learner = KnnLearner().train(knn_trainset(np.zeros((3, 2)), [0, 1, 0], c=2))
    with pytest.raises(ValueError, match="expected 2 features, got 3"):
        learner.predict_proba(np.zeros((4, 3)))


def three_step_sq_distances(train_X, X):
    """Squared distances as (|t|^2 - 2q.t) + |q|^2, three passes over the block."""
    d2 = np.matmul(2.0 * X, train_X.T)
    np.subtract(np.einsum("ij,ij->i", train_X, train_X), d2, out=d2)
    d2 += np.einsum("ij,ij->i", X, X)[:, None]
    return d2


def index_learner(train_X):
    """A 1-NN learner whose class labels are its training row indices."""
    n = len(train_X)
    return KnnLearner().train(knn_trainset(train_X, np.arange(n), c=n))


def test_knn_nearest_rows_match_the_three_step_reference_off_near_ties():
    # 500 training rows: a BLAS shape where some distances move by an ulp
    rng = np.random.default_rng(41)
    train_X = rng.standard_normal((500, 10))
    X = rng.standard_normal((300, 10))
    ref = three_step_sq_distances(train_X, X)
    two = np.sort(ref, axis=1)[:, :2]
    clear = two[:, 1] - two[:, 0] > 1e-12 * two[:, 1]
    assert clear.sum() > 250
    nearest = index_learner(train_X).predict_labels(X)
    assert np.array_equal(nearest[clear], np.argmin(ref, axis=1)[clear])


@pytest.mark.parametrize("k", [1])
def test_knn_duplicated_training_rows_resolve_to_the_lowest_index(k):
    # 40 rows over 5 integer points: every distance is exact, so ties are real
    rng = np.random.default_rng(8)
    points = rng.integers(-3, 4, size=(5, 2)).astype(np.float64)
    train_X = points[rng.integers(0, 5, size=40)]
    X = np.vstack([points, rng.integers(-4, 5, size=(30, 2)).astype(np.float64)])
    probs = index_learner(train_X).predict_proba(X)
    for q, row in zip(X, probs):
        d2 = np.sum((train_X - q) ** 2, axis=1)
        expected = np.sort(np.argsort(d2, kind="stable")[:k])
        assert np.array_equal(np.flatnonzero(row > row.min()), expected)


def test_knn_distances_match_the_three_step_reference_bit_for_bit():
    # simulate's shape; a BLAS that rounds the augmented product differently fails here
    rng = np.random.default_rng(2)
    train_X = rng.standard_normal((20_000, 10)) * 2.0
    X = rng.standard_normal((300, 10)) * 2.0
    learner = index_learner(train_X)
    for start, neg_d2 in learner._neg_sq_distances(X):
        ref = three_step_sq_distances(train_X, X[start : start + len(neg_d2)])
        assert np.array_equal(-neg_d2, ref)


def float64_nearest(learner, X):
    """The float64 kernel alone: _neg_sq_distances, then the first argmax."""
    return np.concatenate([np.argmax(b, axis=1) for _, b in learner._neg_sq_distances(X)])


def float64_nearest_off_near_ties(learner, train_X, X):
    """(the float64 kernel's nearest rows, whether each query's nearest two
    squared distances lie more than 1e-12 of its error scale apart)."""
    neg_d2 = np.vstack([b.copy() for _, b in learner._neg_sq_distances(X)])
    two = -np.sort(-neg_d2, axis=1)[:, :2]
    bound = (np.sqrt(np.sum(X**2, axis=1)) + np.sqrt(np.sum(train_X**2, axis=1)).max()) ** 2
    clear = (two[:, 0] - two[:, -1] > 1e-12 * bound) | (len(train_X) == 1)
    return np.argmax(neg_d2, axis=1), clear


@pytest.fixture
def reranked(monkeypatch):
    """Row counts that KnnLearner's float64 kernel is asked to rank, one per call."""
    calls = []
    kernel = KnnLearner._neg_sq_distances

    def spy(self, X):
        calls.append(len(X))
        return kernel(self, X)

    monkeypatch.setattr(KnnLearner, "_neg_sq_distances", spy)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3000),
    d=st.integers(1, 40),
    log_scale=st.floats(-3.0, 6.0),
    offset=st.sampled_from([0.0, 1.0, 100.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_knn_screened_nearest_rows_match_the_float64_kernel_off_near_ties(
    n, d, log_scale, offset, seed
):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    train_X = (rng.standard_normal((n, d)) + offset) * scale
    pairs = rng.integers(0, n, size=(10, 2))
    # rows 1e-5 apart: a query 1e-3 from them is clear in float64, not in float32
    train_X[pairs[:, 1]] = train_X[pairs[:, 0]] + 1e-5 * scale * rng.standard_normal((10, d))
    X = np.vstack([
        (rng.standard_normal((40, d)) + offset) * scale,
        train_X[pairs[:, 0]],
        train_X[pairs[:, 0]] + 1e-3 * scale * rng.standard_normal((10, d)),
        (train_X[pairs[:, 0]] + train_X[pairs[:, 1]]) / 2,
    ])
    learner = index_learner(train_X)
    expected, clear = float64_nearest_off_near_ties(learner, train_X, X)
    assert np.array_equal(learner._nearest(X)[clear], expected[clear])


def test_knn_screen_reranks_a_lone_ambiguous_row(reranked):
    rng = np.random.default_rng(3)
    train_X = rng.standard_normal((500, 6))
    train_X[7] = train_X[3]
    # each query sits 1e-3 from its own training row, far clear of the runner-up,
    # except query 20, which ties rows 3 and 7 exactly
    X = train_X[10:70] + 1e-3 * rng.standard_normal((60, 6))
    X[20] = train_X[3]
    learner = index_learner(train_X)
    nearest = learner._nearest(X)
    assert reranked == [1]
    assert nearest[20] == 3
    assert np.array_equal(nearest, float64_nearest(learner, X))


def test_knn_screen_with_one_training_row_reranks_nothing(reranked):
    learner = index_learner(np.array([[1.0, -2.0]]))
    X = np.random.default_rng(6).standard_normal((30, 2))
    assert np.array_equal(learner._nearest(X), np.zeros(30))
    assert sum(reranked) == 0


def test_knn_screen_resolves_duplicated_rows_to_the_lowest_index_at_simulate_shape():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((5_000, 10)) * 2.0
    which = rng.integers(0, 5_000, size=20_000)
    present, first = np.unique(which, return_index=True)
    X = np.vstack([base[which[:200]], rng.standard_normal((200, 10)) * 2.0])
    learner = index_learner(base[which])
    nearest = learner._nearest(X)
    closest = np.argmin(three_step_sq_distances(base[present], X), axis=1)
    assert np.array_equal(nearest, first[closest])
    assert np.array_equal(nearest, float64_nearest(learner, X))


@pytest.mark.parametrize("value", [np.nan, 1e20], ids=["nan", "1e20"])
@pytest.mark.parametrize("where", ["query", "train"])
def test_knn_screen_falls_back_to_float64_on_non_finite_or_huge_features(where, value, reranked):
    rng = np.random.default_rng(4)
    train_X = rng.standard_normal((300, 5))
    X = rng.standard_normal((40, 5))
    (X if where == "query" else train_X)[[3, 17], 2] = value
    learner = index_learner(train_X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nearest = learner._nearest(X)
    assert reranked == ([2] if where == "query" else [40])
    assert np.array_equal(nearest, float64_nearest(learner, X))


@pytest.mark.parametrize("k", [1])
def test_knn_zero_queries_give_zero_rows(k):
    learner = KnnLearner().train(knn_trainset(np.eye(4), [0, 1, 2, 0], c=3))
    assert learner.predict_proba(np.empty((0, 4))).shape == (0, 3)


def test_knn_screen_reranks_under_one_percent_at_simulate_shape(reranked):
    # the 1-NN simulate split: 20k training rows of 10-d blobs, queries from the
    # other half; at separation 3.5 the screen computes about 70% of the pairs
    for separation in (6.0, 3.5):
        spec = BlobSpec(c=10, d=10, n_per_class=4_000, separation=separation, spread=1.0, seed=5)
        train, test = split_per_class(make_blobs(spec), 2_000)
        X = test.features[::4]
        learner = KnnLearner().train(train)
        reranked.clear()
        nearest = learner._nearest(X)
        assert sum(reranked) < 0.01 * len(X)
        expected, clear = float64_nearest_off_near_ties(learner, train.features, X)
        assert np.array_equal(nearest[clear], expected[clear])


def test_knn_cell_screen_reaches_under_a_quarter_of_the_pairs_at_simulate_shape(monkeypatch):
    D = make_blobs(BlobSpec(c=10, d=10, n_per_class=4_000, separation=6.0, spread=1.0, seed=5))
    train, test = split_per_class(D, 2_000)
    learner = KnnLearner().train(train)
    pairs = []
    screen_cell = KnnLearner._screen_cell

    def spy(self, left, queries, lo, hi, block, floor=None):
        pairs.append(len(queries) * (hi - lo))
        return screen_cell(self, left, queries, lo, hi, block, floor)

    monkeypatch.setattr(KnnLearner, "_screen_cell", spy)
    learner._nearest(test.features)
    assert 0 < sum(pairs) < 0.25 * test.n * train.n


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 3000),
    d=st.integers(1, 40),
    separation=st.one_of(st.none(), st.floats(2.0, 10.0)),
    offset=st.sampled_from([0.0, 1.0, 100.0]),
    duplicated=st.booleans(),
    block_bytes=st.sampled_from([None, 1 << 12, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_knn_cell_screen_finds_the_full_screens_nearest_rows_off_near_ties(
    n, d, separation, offset, duplicated, block_bytes, seed
):
    rng = np.random.default_rng(seed)

    def rows(m):
        if separation is None:  # uniform in a cube
            return rng.uniform(-3.0, 3.0, (m, d))
        return centers[rng.integers(0, 5, m)] + rng.standard_normal((m, d))

    centers = rng.standard_normal((5, d)) * separation if separation else None
    train_X = rows(n) + offset
    if duplicated:
        # half the rows repeat others, so pivots repeat and leave cells empty
        train_X[rng.integers(0, n, n // 2)] = train_X[rng.integers(0, n, n // 2)]
    X = np.vstack([rows(150) + offset, train_X[rng.integers(0, n, 50)]])
    learner = index_learner(train_X)
    expected, clear = float64_nearest_off_near_ties(learner, train_X, X)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            # blocks of a few rows: every query block, cell and product splits
            mp.setattr(learners, "KNN_BLOCK_BYTES", block_bytes)
        cells = learner._nearest(X)
    assert np.array_equal(cells[clear], expected[clear])


def test_knn_peak_memory_is_bounded_by_the_block_size():
    rng = np.random.default_rng(5)
    train_X = rng.standard_normal((20_000, 10))
    train_y = rng.integers(0, 4, size=20_000)
    learner = KnnLearner().train(knn_trainset(train_X, train_y, c=4))
    X = rng.standard_normal((2_000, 10))
    tracemalloc.start()
    try:
        learner.predict_proba(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * learners.KNN_BLOCK_BYTES


# ---------------------------------------------------------------------------
# label-first contract: predict_labels(x) is argmax(predict_proba(x))


def reference_oracle_proba(T, u, true):
    """The oracle's probabilities written out in full from its uniforms u:
    half the transition row of each true label plus half a one-hot at the
    label that u draws by inverse CDF."""
    cdf = T.row_cdf()
    drawn = np.empty(len(true), dtype=np.int64)
    for i in range(T.c):
        mask = true == i
        drawn[mask] = np.searchsorted(cdf[i], u[mask], side="right")
    drawn = np.clip(drawn, 0, T.c - 1)
    probs = 0.5 * T.entries[true]
    probs[np.arange(len(true)), drawn] += 0.5
    return probs


def reference_knn_proba(train_labels, nearest, c):
    """The 1-NN probabilities written out in full: the nearest row's one-hot,
    Laplace-smoothed."""
    counts = np.zeros((len(nearest), c))
    counts[np.arange(len(nearest)), train_labels[nearest]] = 1.0
    return (counts + 1.0) / (1 + c)


@st.composite
def transition_rows(draw, c):
    """A row-stochastic row: random, one-hot, or random with its largest
    entry shaved until the cumulative sum ends below 1.0 (its last entry
    zero or not), so a uniform at or above that sum draws past the row."""
    kind = draw(st.sampled_from(["random", "one-hot", "short", "short, zero tail"]))
    if kind == "one-hot":
        row = np.zeros(c)
        row[draw(st.integers(0, c - 1))] = 1.0
        return row
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=c, max_size=c)))
    if kind == "short, zero tail":
        w[-1] = 0.0
    if w.sum() == 0.0:
        w[0] = 1.0
    row = w / w.sum()
    if kind.startswith("short"):
        k = int(np.argmax(row))
        while np.cumsum(row)[-1] >= 1.0:
            row[k] = np.nextafter(row[k], 0.0)
    return row


@st.composite
def oracle_draws(draw):
    """(T, true labels, uniforms): the uniforms include 0, the largest
    uniform below 1 and the row's own cumulative sums."""
    c = draw(st.integers(2, 6))
    T = TransitionMatrix(c=c, entries=np.array([draw(transition_rows(c)) for _ in range(c)]))
    cdf = T.row_cdf()
    n = draw(st.integers(1, 30))
    true = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    u = np.empty(n)
    for r in range(n):
        u[r] = draw(st.one_of(
            st.sampled_from([0.0, 1.0 - 2.0**-53]),
            st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53),
            st.integers(0, c - 1).map(lambda j, i=true[r]: min(cdf[i, j], 1.0 - 2.0**-53)),
        ))
    return T, true, u


@settings(max_examples=200, deadline=None)
@given(oracle_draws())
def test_oracle_labels_are_the_argmax_of_its_probabilities(case):
    T, true, u = case
    X = random_features(len(true), 2)
    learner = OracleLearner(T, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learners, "_row_uniforms", lambda features, seed: u)
        labels = learner.predict_labels(X, true)
        probs = learner.predict_proba(X, true)
    assert np.array_equal(labels, np.argmax(probs, axis=-1))
    assert probs.tobytes() == reference_oracle_proba(T, u, true).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(2, 5),
    d=st.integers(1, 4),
    npc=st.integers(1, 20),
    step=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**32),
)
def test_knn_labels_are_the_argmax_of_its_probabilities(c, d, npc, step, seed):
    # blob rows rounded to a coarse grid repeat, and noisy labels make the
    # repeats disagree; midpoints of two rows are exactly as near to both
    D = make_blobs(BlobSpec(c=c, d=d, n_per_class=npc, separation=2.0, spread=1.0, seed=seed))
    rng = np.random.default_rng(seed)
    grid = np.round(D.features / step) * step
    train_X = np.vstack([grid, grid[:3]])
    train_y = rng.integers(0, c, size=len(train_X))
    a, b = rng.integers(0, len(grid), size=(2, 10))
    X = np.vstack([grid, (grid[a] + grid[b]) / 2, 2.0 * rng.standard_normal((10, d))])
    learner = KnnLearner().train(knn_trainset(train_X, train_y, c))
    labels = learner.predict_labels(X)
    probs = learner.predict_proba(X)
    assert np.array_equal(labels, np.argmax(probs, axis=-1))
    assert probs.tobytes() == reference_knn_proba(train_y, learner._nearest(X), c).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    hidden=st.sampled_from([None, 5]),
    scale=st.sampled_from([0.0, 1.0, 50.0]),
    seed=st.integers(0, 2**32),
)
def test_softmax_labels_are_the_argmax_of_its_probabilities(hidden, scale, seed):
    # zero parameters give every class the same probability: a tie on every row
    learner = SoftmaxLearner(4, 3, softmax_cfg(seed=seed % 1000), hidden)
    set_flat_params(learner, scale * learner.flat_params())
    X = np.vstack([random_features(30, 3, seed=seed), np.zeros((2, 3))])
    assert np.array_equal(learner.predict_labels(X), np.argmax(learner.predict_proba(X), axis=-1))


# ---------------------------------------------------------------------------
# softmax learner


def softmax_cfg(**kw):
    base = dict(epochs=20, batch_size=16, learning_rate=0.5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.mark.parametrize("bad", [dict(epochs=0), dict(batch_size=0),
                                 dict(learning_rate=0.0)])
def test_train_config_validation(bad):
    with pytest.raises(ValueError):
        softmax_cfg(**bad)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_a_non_finite_learning_rate(value):
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        softmax_cfg(learning_rate=value)


def test_softmax_constructor_validation():
    with pytest.raises(ValueError, match="class count"):
        SoftmaxLearner(1, 3, softmax_cfg())
    with pytest.raises(ValueError, match="hidden width"):
        SoftmaxLearner(3, 3, softmax_cfg(), hidden=0)


def test_softmax_dimension_mismatch_rejected():
    learner = SoftmaxLearner(3, 4, softmax_cfg())
    with pytest.raises(ValueError, match="expected 4 features"):
        learner.predict_proba(np.zeros((2, 5)))


def test_softmax_zero_init_gives_uniform_probabilities():
    learner = SoftmaxLearner(5, 3, softmax_cfg())
    set_flat_params(learner, np.zeros_like(learner.flat_params()))
    probs = learner.predict_proba(random_features(10, 3))
    np.testing.assert_array_equal(probs, np.full((10, 5), 0.2))


@pytest.mark.parametrize("hidden", [None, 8])
def test_softmax_fits_separable_blobs(hidden):
    D = make_blobs(BlobSpec(c=3, d=4, n_per_class=60, separation=8.0, spread=1.0, seed=5))
    learner = SoftmaxLearner(3, 4, softmax_cfg(epochs=30), hidden=hidden).train(D)
    acc = np.mean(learner.predict_labels(D.features) == D.true_labels)
    assert acc >= 0.99


@pytest.mark.parametrize("hidden", [None, 8])
def test_softmax_retrain_is_bit_identical(hidden, tiny_blobs):
    a = SoftmaxLearner(4, 3, softmax_cfg(epochs=5), hidden=hidden).train(tiny_blobs)
    b = SoftmaxLearner(4, 3, softmax_cfg(epochs=5), hidden=hidden).train(tiny_blobs)
    assert np.array_equal(a.flat_params(), b.flat_params())


def test_softmax_seed_changes_trajectory(tiny_blobs):
    a = SoftmaxLearner(4, 3, softmax_cfg(epochs=3, seed=0)).train(tiny_blobs)
    b = SoftmaxLearner(4, 3, softmax_cfg(epochs=3, seed=1)).train(tiny_blobs)
    assert not np.array_equal(a.flat_params(), b.flat_params())


def test_softmax_divergence_guard(tiny_blobs):
    learner = SoftmaxLearner(4, 3, softmax_cfg(epochs=5, learning_rate=1e8))
    with pytest.raises(DivergenceError):
        learner.train(tiny_blobs)


def test_softmax_step_rejects_over_limit_loss():
    learner = SoftmaxLearner(2, 2, softmax_cfg())
    set_flat_params(learner, np.zeros_like(learner.flat_params()))
    learner.params["b"] = np.array([0.0, 2 * DIVERGENCE_LIMIT])
    with pytest.raises(DivergenceError):
        learner.sgd_step(np.zeros((1, 2)), np.array([0]), lr=0.1)


def test_softmax_probabilities_sum_to_one():
    learner = SoftmaxLearner(6, 5, softmax_cfg(), hidden=7)
    probs = learner.predict_proba(random_features(40, 5, seed=12) * 50.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


@pytest.mark.parametrize("hidden", [None, 6])
def test_softmax_gradients_match_finite_differences(hidden):
    rng = np.random.default_rng(41)
    for trial in range(5):
        learner = SoftmaxLearner(3, 4, softmax_cfg(seed=trial), hidden=hidden)
        X = rng.standard_normal((8, 4))
        y = rng.integers(0, 3, size=8)
        assert max_relative_gradient_error(learner, X, y) <= 1e-5


def test_softmax_flat_params_round_trip():
    learner = SoftmaxLearner(3, 4, softmax_cfg(), hidden=5)
    flat = learner.flat_params()
    set_flat_params(learner, np.zeros_like(flat))
    assert np.all(learner.flat_params() == 0.0)
    set_flat_params(learner, flat)
    assert np.array_equal(learner.flat_params(), flat)


def test_softmax_empty_trainset_rejected(tiny_blobs):
    learner = SoftmaxLearner(4, 3, softmax_cfg())
    with pytest.raises(ValueError, match="cannot train on an empty dataset"):
        learner.train(tiny_blobs.subset([]))


def test_softmax_returned_arrays_do_not_alias_the_learner():
    # sgd_step reuses its gradient buffer and updates the parameter vector
    # in place; nothing handed out may share memory with either
    f1, f2 = lone_pair(3, 4, 5)
    X, y = random_features(6, 4, seed=8), np.array([0, 1, 2, 0, 1, 2])
    pair = SoftmaxLearner.stack(f1, f2)
    for learner, Xb, yb in ((f1, X, y), (pair, np.stack([X, X]), np.stack([y, y[::-1]]))):
        loss, grad = learner.loss_and_grad(Xb, yb)
        returned = [grad, learner.flat_params()]
        kept = [a.copy() for a in returned]
        step_loss = learner.sgd_step(Xb, yb, 0.5)
        learner.sgd_step(Xb, yb, 0.5)
        assert np.array_equal(step_loss, loss)
        assert all(np.array_equal(a, b) for a, b in zip(returned, kept))
        before = learner.flat_params()
        for a in returned:
            a[...] = np.nan
        assert np.array_equal(learner.flat_params(), before)


# ---------------------------------------------------------------------------
# paired softmax learners


def lone_pair(c, d, hidden, seeds=(1, 2), **cfg):
    return [SoftmaxLearner(c, d, softmax_cfg(seed=s, **cfg), hidden) for s in seeds]


@pytest.mark.parametrize(
    "c, d, hidden, k",
    [(10, 10, 32, 32), (10, 10, 32, 29), (10, 10, None, 32), (10, 32, 64, 128)],
    ids=["desk-mlp", "desk-mlp-short-batch", "desk-linear", "scale-mlp"],
)
def test_paired_steps_are_bit_identical_to_two_lone_chains(c, d, hidden, k):
    # Fails loudly on a BLAS whose batched matmul rounds differently from
    # its 2-D matmul: co-training and INCV results would silently change.
    rng = np.random.default_rng(k * d)
    lone = lone_pair(c, d, hidden)
    members = lone_pair(c, d, hidden)
    pair = SoftmaxLearner.stack(*members)
    for step in range(300):
        if step % 50 == 0:
            probe, labels = rng.standard_normal((40, d)), rng.integers(0, c, 40)
            stacked = pair.losses(probe, labels)
            for i, f in enumerate(lone):
                assert np.array_equal(stacked[i], f.losses(probe, labels))
        X, y = rng.standard_normal((2, k, d)), rng.integers(0, c, (2, k))
        losses = pair.sgd_step(X, y, 0.3)
        assert [f.sgd_step(X[i], y[i], 0.3) for i, f in enumerate(lone)] == losses.tolist()
    for f, g in zip(lone, members):
        assert np.array_equal(f.flat_params(), g.flat_params())


def test_paired_members_keep_working_on_their_own():
    f1, f2 = lone_pair(3, 4, 5)
    pair = SoftmaxLearner.stack(f1, f2)
    X = random_features(6, 4, seed=3)
    probs = pair.predict_proba(X)
    assert probs.shape == (2, 6, 3)
    assert np.array_equal(probs[0], f1.predict_proba(X))
    assert np.array_equal(probs[1], f2.predict_proba(X))
    assert np.array_equal(pair.predict_labels(X), np.argmax(probs, axis=-1))
    # a lone step and set_flat_params write through to the stacks
    f2.sgd_step(X, np.array([0, 1, 2, 0, 1, 2]), 0.5)
    set_flat_params(f1, np.zeros_like(f1.flat_params()))
    probs = pair.predict_proba(X)
    np.testing.assert_array_equal(probs[0], np.full((6, 3), 1 / 3))
    assert np.array_equal(probs[1], f2.predict_proba(X))


def test_pair_rejects_learners_of_another_arch():
    with pytest.raises(TypeError, match=r"\(3, 4, 5\) and \(3, 4, None\)"):
        SoftmaxLearner.stack(
            SoftmaxLearner(3, 4, softmax_cfg(), 5), SoftmaxLearner(3, 4, softmax_cfg())
        )


def test_labels_must_fit_the_batch():
    f1, f2 = lone_pair(3, 4, None)
    with pytest.raises(ValueError, match=r"labels of shape \(5,\)"):
        f1.sgd_step(random_features(6, 4), np.zeros(5, dtype=np.int64), 0.1)
    pair = SoftmaxLearner.stack(f1, f2)
    # a lone-shaped batch would step member 2 on no labels at all
    with pytest.raises(ValueError, match=r"do not fit a batch of \(2, 6\) rows"):
        pair.sgd_step(random_features(6, 4), np.zeros(6, dtype=np.int64), 0.1)


def test_pair_divergence_names_the_member_and_updates_neither():
    f1, f2 = lone_pair(2, 2, None)
    for f in (f1, f2):
        set_flat_params(f, np.zeros_like(f.flat_params()))
    pair = SoftmaxLearner.stack(f1, f2)
    f2.params["b"][:] = [0.0, 2 * DIVERGENCE_LIMIT]
    before = [f.flat_params() for f in (f1, f2)]
    with pytest.raises(DivergenceError, match="member 2 of 2: batch loss"):
        pair.sgd_step(np.zeros((2, 1, 2)), np.zeros((2, 1), dtype=np.int64), lr=0.1)
    assert all(np.array_equal(b, f.flat_params()) for b, f in zip(before, (f1, f2)))


@pytest.mark.parametrize(
    "loss, message",
    [([0.5, np.nan], "member 2 of 2: batch loss nan"),
     ([np.inf, 0.5, 0.5], "member 1 of 3: batch loss inf"),
     ([0.5, -np.inf], "member 2 of 2: batch loss -inf"),
     ([0.5, 2e6, np.nan], "member 2 of 3: batch loss 2000000.0"),
     (np.float64(np.nan), "batch loss nan"),
     (np.float64(3e6), "batch loss 3000000.0")],
)
def test_check_loss_names_the_first_member_that_fails(loss, message):
    with pytest.raises(DivergenceError) as excinfo:
        learners._check_loss(np.asarray(loss) if isinstance(loss, list) else loss)
    assert str(excinfo.value) == f"{message} is not finite or exceeds limit"


@pytest.mark.parametrize(
    "loss", [[0.0, DIVERGENCE_LIMIT], [-0.0, 1.5], np.float64(DIVERGENCE_LIMIT)]
)
def test_check_loss_passes_finite_losses_up_to_the_limit(loss):
    learners._check_loss(np.asarray(loss) if isinstance(loss, list) else loss)


def plain_train(learner, X, y):
    """The lone SGD loop: a fresh permutation per pass from
    default_rng(seed + 1), cut into batch_size slices."""
    cfg = learner.cfg
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            b = order[start : start + cfg.batch_size]
            learner.sgd_step(X[b], y[b], cfg.learning_rate)
    return learner


# (c, d, hidden, batch, samples per class)
TINY, DESK, SCALE = (4, 3, 6, 16, 25), (10, 10, 32, 32, 60), (10, 32, 64, 128, 120)


@pytest.mark.parametrize("shape, sizes, lrs", [
    pytest.param(TINY, (64, 64), (0.5, 0.5), id="sizes0-lrs0"),
    pytest.param(TINY, (65, 64), (0.5, 0.5), id="sizes1-lrs1"),
    pytest.param(TINY, (47, 48), (0.5, 0.5), id="sizes2-lrs2"),
    pytest.param(TINY, (64, 64), (0.5, 0.25), id="sizes3-lrs3"),
    pytest.param(DESK, (500,), (0.3,), id="desk-m1"),
    pytest.param(DESK, (500, 500), (0.3, 0.3), id="desk-m2-equal"),
    pytest.param(DESK, (517, 483), (0.3, 0.3), id="desk-m2-unequal"),
    pytest.param(DESK, (500, 517, 483), (0.3, 0.3, 0.3), id="desk-m3-unequal"),
    pytest.param(SCALE, (1000,), (0.1,), id="scale-m1"),
    pytest.param(SCALE, (1024, 1024), (0.1, 0.1), id="scale-m2-equal"),
    pytest.param(SCALE, (1100, 950), (0.1, 0.1), id="scale-m2-unequal"),
])
def test_pair_train_matches_two_lone_trains(shape, sizes, lrs):
    # 65 vs 64 rows: 5 vs 4 batches; 47 vs 48: equal counts, short last
    # batches of different sizes; members of unequal learning rates cannot stack
    c, d, hidden, batch, per_class = shape
    D = make_blobs(BlobSpec(c=c, d=d, n_per_class=per_class, separation=6.0, spread=1.0, seed=7))
    rng = np.random.default_rng(sum(sizes))
    rows = [np.sort(rng.choice(D.n, size=m, replace=False)) for m in sizes]
    cfgs = [softmax_cfg(epochs=3, batch_size=batch, learning_rate=lr, seed=4 + i)
            for i, lr in enumerate(lrs)]
    members = [SoftmaxLearner(c, d, cfg, hidden) for cfg in cfgs]
    if len(set(lrs)) > 1:
        with pytest.raises(ValueError, match="one epoch count, batch size and learning rate"):
            train_stacked(members, D.features, D.observed_labels, rows)
        return
    train_stacked(members, D.features, D.observed_labels, rows)
    for cfg, r, g in zip(cfgs, rows, members):
        lone = plain_train(SoftmaxLearner(c, d, cfg, hidden), D.features[r], D.observed_labels[r])
        assert np.array_equal(lone.flat_params(), g.flat_params())


# ---------------------------------------------------------------------------
# the SGD step against a per-array reference
#
# The reference below is the plain form of the softmax math: one fresh array
# per operation, labels picked by a 2-d fancy index, and each parameter
# updated on its own. SoftmaxLearner computes the same float operations in
# the same order, but in place, into out= buffers and on one flat vector.
# These tests fail loudly on a BLAS or numpy build that rounds those forms
# differently, because every selection and co-training result would move.


def reference_forward(params, hidden, X):
    if hidden is None:
        return None, X @ params["w"] + params["b"][..., None, :]
    act = np.maximum(X @ params["w1"] + params["b1"][..., None, :], 0.0)
    return act, act @ params["w2"] + params["b2"][..., None, :]


def reference_probabilities(params, hidden, X):
    _, logits = reference_forward(params, hidden, X)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_step(params, hidden, X, y, lr):
    act, logits = reference_forward(params, hidden, X)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1))
    log_probs = shifted - log_z[..., None]
    n, c = log_probs.shape[-2:]
    pick = (np.arange(y.size), y.ravel())
    loss = -log_probs.reshape(-1, c)[pick].reshape(y.shape).sum(axis=-1) / n
    dlogits = np.exp(log_probs)
    dlogits.reshape(-1, c)[pick] -= 1.0
    dlogits /= n
    if hidden is None:
        grads = {"w": X.swapaxes(-1, -2) @ dlogits, "b": dlogits.sum(axis=-2)}
    else:
        dpre = (dlogits @ params["w2"].swapaxes(-1, -2)) * (act > 0.0)
        grads = {
            "w1": X.swapaxes(-1, -2) @ dpre,
            "b1": dpre.sum(axis=-2),
            "w2": act.swapaxes(-1, -2) @ dlogits,
            "b2": dlogits.sum(axis=-2),
        }
    for name, g in grads.items():
        params[name] -= lr * g
    return loss


def assert_same_bits(learner, params, probe):
    for name, value in params.items():
        assert learner.params[name].tobytes() == value.tobytes(), name
    expected = reference_probabilities(params, learner.hidden, probe)
    assert learner.predict_proba(probe).tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden", [None, 32, 64])
@pytest.mark.parametrize(
    "c, d, k",
    [(10, 10, 32), (10, 10, 8), (10, 10, 29), (10, 32, 128)],
    ids=["desk", "desk-short", "desk-odd", "scale"],
)
def test_sgd_steps_are_bit_identical_to_the_reference(c, d, k, hidden):
    rng = np.random.default_rng(c * d + k)
    lone = SoftmaxLearner(c, d, softmax_cfg(seed=3), hidden)
    ref_lone = {name: v.copy() for name, v in lone.params.items()}
    f1, f2 = lone_pair(c, d, hidden)
    ref_pair = {name: np.stack([f1.params[name], f2.params[name]]) for name in f1.params}
    pair = SoftmaxLearner.stack(f1, f2)
    for _ in range(300):
        X, y = rng.standard_normal((2, k, d)), rng.integers(0, c, (2, k))
        assert lone.sgd_step(X[0], y[0], 0.3) == reference_step(ref_lone, hidden, X[0], y[0], 0.3)
        assert np.array_equal(pair.sgd_step(X, y, 0.3), reference_step(ref_pair, hidden, X, y, 0.3))
    probe = rng.standard_normal((40, d))
    assert_same_bits(lone, ref_lone, probe)
    assert_same_bits(pair, ref_pair, probe)


@pytest.mark.parametrize("hidden", [None, 32])
def test_train_is_bit_identical_to_the_reference(hidden, tiny_blobs):
    # 100 rows in batches of 12: every epoch ends on a short batch of 4
    cfg = softmax_cfg(epochs=7, batch_size=12, seed=9)
    learner = SoftmaxLearner(4, 3, cfg, hidden)
    params = {name: v.copy() for name, v in learner.params.items()}
    learner.train(tiny_blobs)
    rng = np.random.default_rng(cfg.seed + 1)
    for _ in range(cfg.epochs):
        order = rng.permutation(tiny_blobs.n)
        for start in range(0, tiny_blobs.n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            reference_step(params, hidden, tiny_blobs.features[rows],
                           tiny_blobs.observed_labels[rows], cfg.learning_rate)
    assert_same_bits(learner, params, random_features(20, 3, seed=4))


# ---------------------------------------------------------------------------
# factories


def test_oracle_factory_threads_seed():
    T = symmetric_matrix(3, 0.2)
    learner = oracle_factory(T)(123)
    assert isinstance(learner, OracleLearner)
    assert learner.seed == 123
    assert np.array_equal(learner.T.entries, T.entries)


def test_knn_factory_ignores_seed(tiny_blobs):
    a = knn_factory()(0).train(tiny_blobs)
    b = knn_factory()(99).train(tiny_blobs)
    X = random_features(10, 3, seed=15)
    assert np.array_equal(a.predict_labels(X), b.predict_labels(X))


def test_softmax_factory_overrides_seed():
    cfg = softmax_cfg(seed=0)
    learner = softmax_factory(4, 3, cfg, hidden=5)(7)
    assert learner.cfg.seed == 7
    assert learner.hidden == 5
    assert cfg.seed == 0  # factory must not mutate the template


@pytest.mark.parametrize("offset", [100.0, 1e4])
def test_knn_screen_reranks_under_one_percent_on_offset_features(offset, reranked):
    # the same split shifted far from the origin: distances, and so the screen, do not move
    D = make_blobs(BlobSpec(c=10, d=10, n_per_class=4_000, separation=6.0, spread=1.0, seed=5))
    train, test = split_per_class(D, 2_000)
    train = knn_trainset(train.features + offset, train.observed_labels, train.c)
    X = test.features[::4] + offset
    learner = KnnLearner().train(train)
    nearest = learner._nearest(X)
    assert sum(reranked) < 0.01 * len(X)
    assert np.array_equal(nearest, float64_nearest(learner, X))
