import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_relative_gradient_error
from labelnoise.data import BlobSpec, LabeledDataset, corrupt_dataset, make_blobs
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
    learner.reinitialize()  # must not raise or reset anything
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


def test_knn_requires_positive_k():
    with pytest.raises(ValueError, match="k must be"):
        KnnLearner(k=0)


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
    learner = KnnLearner(k=1).train(D)
    assert np.array_equal(learner.predict_labels(D.features), D.observed_labels)


def test_knn_hand_votes_k1():
    D = knn_trainset([[0.0], [1.0], [10.0]], [0, 1, 2], c=3)
    learner = KnnLearner(k=1).train(D)
    probs = learner.predict_proba([[0.1]])
    np.testing.assert_allclose(probs[0], [0.5, 0.25, 0.25])
    assert learner.predict_labels([[0.1]])[0] == 0


def test_knn_hand_votes_k2():
    D = knn_trainset([[0.0], [0.2], [10.0]], [1, 1, 2], c=3)
    learner = KnnLearner(k=2).train(D)
    probs = learner.predict_proba([[0.1]])
    np.testing.assert_allclose(probs[0], [0.2, 0.6, 0.2])
    assert learner.predict_labels([[0.1]])[0] == 1


def test_knn_vote_tie_breaks_toward_lowest_class():
    D = knn_trainset([[0.0], [1.0]], [1, 0], c=2)
    learner = KnnLearner(k=2).train(D)
    probs = learner.predict_proba([[0.5]])
    np.testing.assert_allclose(probs[0], [0.5, 0.5])
    assert learner.predict_labels([[0.5]])[0] == 0


def test_knn_k_capped_at_trainset_size():
    D = knn_trainset([[0.0], [1.0]], [1, 1], c=2)
    probs = KnnLearner(k=10).train(D).predict_proba([[0.4]])
    # effective k=2: counts (0, 2) smoothed by (k + c) = 4
    np.testing.assert_allclose(probs[0], [0.25, 0.75])


def naive_knn_probs(train_X, train_y, X, k, c):
    probs = np.empty((len(X), c))
    for i, x in enumerate(X):
        d2 = np.sum((train_X - x) ** 2, axis=1)
        votes = train_y[np.argsort(d2)[:k]]
        counts = np.bincount(votes, minlength=c)
        probs[i] = (counts + 1.0) / (k + c)
    return probs


@pytest.mark.parametrize("k", [1, 3, 7])
def test_knn_matches_naive_reference(k):
    rng = np.random.default_rng(33)
    train_X = rng.standard_normal((60, 3))
    train_y = rng.integers(0, 4, size=60)
    X = rng.standard_normal((25, 3))
    learner = KnnLearner(k=k).train(knn_trainset(train_X, train_y, c=4))
    np.testing.assert_allclose(
        learner.predict_proba(X), naive_knn_probs(train_X, train_y, X, k, 4)
    )


def test_knn_reinitialize_forgets_trainset(tiny_blobs):
    learner = KnnLearner().train(tiny_blobs)
    learner.reinitialize()
    with pytest.raises(RuntimeError):
        learner.predict_proba(tiny_blobs.features)


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
    learner = SoftmaxLearner(5, 3, softmax_cfg(init_scale=0.0))
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
    a_params = a.flat_params().copy()
    a.reinitialize()
    assert not np.array_equal(a.flat_params(), a_params)
    a.train(tiny_blobs)
    assert np.array_equal(a.flat_params(), a_params)


def test_softmax_seed_changes_trajectory(tiny_blobs):
    a = SoftmaxLearner(4, 3, softmax_cfg(epochs=3, seed=0)).train(tiny_blobs)
    b = SoftmaxLearner(4, 3, softmax_cfg(epochs=3, seed=1)).train(tiny_blobs)
    assert not np.array_equal(a.flat_params(), b.flat_params())


def test_softmax_divergence_guard(tiny_blobs):
    learner = SoftmaxLearner(4, 3, softmax_cfg(epochs=5, learning_rate=1e8))
    with pytest.raises(DivergenceError):
        learner.train(tiny_blobs)


def test_softmax_step_rejects_over_limit_loss():
    learner = SoftmaxLearner(2, 2, softmax_cfg(init_scale=0.0))
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
    learner.set_flat_params(np.zeros_like(flat))
    assert np.all(learner.flat_params() == 0.0)
    learner.set_flat_params(flat)
    assert np.array_equal(learner.flat_params(), flat)


# ---------------------------------------------------------------------------
# factories


def test_oracle_factory_threads_seed():
    T = symmetric_matrix(3, 0.2)
    learner = oracle_factory(T)(123)
    assert isinstance(learner, OracleLearner)
    assert learner.seed == 123
    assert np.array_equal(learner.T.entries, T.entries)


def test_knn_factory_ignores_seed(tiny_blobs):
    a = knn_factory(k=1)(0).train(tiny_blobs)
    b = knn_factory(k=1)(99).train(tiny_blobs)
    X = random_features(10, 3, seed=15)
    assert np.array_equal(a.predict_labels(X), b.predict_labels(X))


def test_softmax_factory_overrides_seed():
    cfg = softmax_cfg(seed=0)
    learner = softmax_factory(4, 3, cfg, hidden=5)(7)
    assert learner.cfg.seed == 7
    assert learner.hidden == 5
    assert cfg.seed == 0  # factory must not mutate the template
