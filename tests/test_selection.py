import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hand_dataset, stub_factory
from labelnoise import data as data_mod
from labelnoise.cli import main
from labelnoise.data import BlobSpec, LabeledDataset, corrupt_dataset, make_blobs, split_half
from labelnoise.learners import (
    DivergenceError,
    SoftmaxLearner,
    TrainConfig,
    knn_factory,
    oracle_factory,
    softmax_factory,
)
from labelnoise.noise import NoiseSpec, symmetric_matrix
from labelnoise.theory import estimate_epsilon_symmetric
from labelnoise.selection import (
    IterationRecord,
    SelectionResult,
    UndefinedMetricError,
    _iteration_seeds,
    confusion_matrix,
    incv,
    ncv,
    selection_metrics,
    selection_result_from_json,
)


def sym_lp(eps, c):
    row_sq = (1 - eps) ** 2 + eps**2 / (c - 1)
    return (1 - eps) ** 2 / row_sq


def oracle_selection_case(eps=0.4, c=4, n_per_class=800, seed=9):
    clean = make_blobs(
        BlobSpec(c=c, d=3, n_per_class=n_per_class, separation=6.0, spread=1.0, seed=seed)
    )
    D = corrupt_dataset(clean, NoiseSpec(kind="symmetric", ratio=eps, seed=seed + 1))
    return D, oracle_factory(symmetric_matrix(c, eps))


# ---------------------------------------------------------------------------
# seeds


def test_iteration_seeds_deterministic_and_distinct():
    assert _iteration_seeds(3, 1) == _iteration_seeds(3, 1)
    a = _iteration_seeds(3, 1)
    b = _iteration_seeds(3, 2)
    c = _iteration_seeds(4, 1)
    assert a != b and a != c
    assert len(set(a)) == 3  # split and the two folds draw independently


# ---------------------------------------------------------------------------
# single pass, hand-traceable


def test_single_pass_selects_exactly_the_agreeing_ids():
    # stub predicts feature 0; ids 0,1 agree with their observed labels
    D = hand_dataset(pred_labels=[0, 1, 0, 1], observed=[0, 1, 1, 0])
    result = ncv(D, stub_factory(D.c), seed=5)
    assert set(result.selected) == {0, 1}
    assert set(result.candidate) == {2, 3}
    assert len(result.removed) == 0
    assert result.halt_reason is None
    # selection rate 1/2 inverted under the two-class agreement law
    assert result.epsilon_hat == pytest.approx(0.5)
    (record,) = result.history
    assert record.iteration == 1
    assert record.n_s1 + record.n_s2 == 2
    assert record.n_r1 == record.n_r2 == 0


def test_single_pass_with_perfect_agreement_selects_everything():
    D = hand_dataset(pred_labels=[0, 1, 1, 0, 1], observed=[0, 1, 1, 0, 1])
    result = ncv(D, stub_factory(D.c), seed=1)
    assert set(result.selected) == set(D.ids)
    assert len(result.candidate) == 0
    assert result.epsilon_hat == 0.0
    record = result.history[0]
    assert record.acc1 == 1.0 and record.acc2 == 1.0


@pytest.mark.parametrize("c", [2, 3, 7])
def test_incv_on_noise_free_data_selects_everything(c):
    clean = make_blobs(
        BlobSpec(c=c, d=3, n_per_class=30, separation=6.0, spread=1.0, seed=c)
    )
    result = incv(clean, oracle_factory(symmetric_matrix(c, 0.0)), iterations=2, seed=1)
    assert result.epsilon_hat == 0.0
    assert set(result.selected) == set(clean.ids)


def test_single_pass_equals_one_iteration_without_removal():
    D, factory = oracle_selection_case(n_per_class=100)
    a = ncv(D, factory, seed=7)
    b = incv(D, factory, iterations=1, remove_ratio=0.0, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_asymmetric_inversion_of_the_selection_rate():
    # 13 of 25 agree -> rate 0.52 -> (1 - sqrt(2*0.52 - 1)) / 2 = 0.4
    D = hand_dataset(pred_labels=[0] * 25, observed=[0] * 13 + [1] * 12, c=2)
    result = ncv(D, stub_factory(2), seed=2, noise_kind="asymmetric")
    assert result.epsilon_hat == pytest.approx(0.4, abs=1e-12)


def test_unknown_noise_kind_rejected():
    D = hand_dataset(pred_labels=[0, 1], observed=[0, 1])
    with pytest.raises(ValueError, match="noise kind"):
        ncv(D, stub_factory(2), noise_kind="uniform")


def test_input_validation():
    D = hand_dataset(pred_labels=[0, 1], observed=[0, 1])
    with pytest.raises(ValueError, match="iterations"):
        incv(D, stub_factory(2), iterations=0)
    with pytest.raises(ValueError, match="remove_ratio"):
        incv(D, stub_factory(2), iterations=1, remove_ratio=-0.1)
    for ratio in (math.nan, math.inf):
        with pytest.raises(ValueError, match="remove_ratio must be finite"):
            incv(D, stub_factory(2), iterations=1, remove_ratio=ratio)
    single = hand_dataset(pred_labels=[0], observed=[0], c=2)
    with pytest.raises(ValueError, match="at least 2"):
        incv(single, stub_factory(2), iterations=1)


# ---------------------------------------------------------------------------
# removal ranking


def expected_fold_outcome(fold, remove_ratio):
    """Reference: agreeing ids kept; floor(r * kept) disagreeing removed,
    largest loss first, ties by ascending id."""
    agree = fold.features[:, 0].astype(np.int64) == fold.observed_labels
    selected = fold.ids[agree]
    pool_ids = fold.ids[~agree]
    losses = fold.features[~agree, 1]
    order = np.lexsort((pool_ids, -losses))
    n_remove = int(remove_ratio * len(selected))
    return selected, np.sort(pool_ids[order[:n_remove]])


def test_removal_ranks_by_loss_with_id_tiebreak():
    # ids 0..5 agree; 6..11 disagree with scripted losses. id 11 carries the
    # largest loss, 6..9 tie at 7.0 (ascending id breaks it), 10 is smallest.
    losses = [0, 0, 0, 0, 0, 0, 7.0, 7.0, 7.0, 7.0, 2.0, 9.0]
    D = hand_dataset(
        pred_labels=[0] * 12,
        observed=[0] * 6 + [1] * 6,
        losses=losses,
        c=2,
    )
    seed, r = 5, 0.5
    result = incv(D, stub_factory(2), iterations=1, remove_ratio=r, seed=seed)

    split_seed, _, _ = _iteration_seeds(seed, 1)
    C1, C2 = split_half(D, seed=split_seed)
    sel_c2, rem_c2 = expected_fold_outcome(C2, r)  # first fold pass evaluates C2
    sel_c1, rem_c1 = expected_fold_outcome(C1, r)
    assert set(result.selected) == set(sel_c1) | set(sel_c2)
    assert set(result.removed) == set(rem_c1) | set(rem_c2)
    (record,) = result.history
    assert (record.n_s1, record.n_r1) == (len(sel_c2), len(rem_c2))
    assert (record.n_s2, record.n_r2) == (len(sel_c1), len(rem_c1))
    assert set(result.candidate) == set(D.ids) - set(result.selected) - set(result.removed)


def test_oversized_removal_ratio_clears_the_disagreeing_pool():
    D = hand_dataset(
        pred_labels=[0] * 8,
        observed=[0, 0, 0, 0, 1, 1, 1, 1],
        losses=[0] * 4 + [1.0, 2.0, 3.0, 4.0],
        c=2,
    )
    result = incv(D, stub_factory(2), iterations=1, remove_ratio=10.0, seed=3)
    assert set(result.selected) == {0, 1, 2, 3}
    assert set(result.removed) == {4, 5, 6, 7}
    assert len(result.candidate) == 0


def test_zero_ratio_never_removes():
    D, factory = oracle_selection_case(n_per_class=50)
    result = incv(D, factory, iterations=3, remove_ratio=0.0, seed=11)
    assert len(result.removed) == 0
    assert all(r.n_r1 == 0 and r.n_r2 == 0 for r in result.history)


# ---------------------------------------------------------------------------
# iteration behavior


@pytest.mark.parametrize("learner", ["oracle", "knn", "softmax"])
def test_partition_invariant_across_iterations(learner):
    D, oracle = oracle_selection_case(n_per_class=800 if learner == "oracle" else 200)
    factory = {
        "oracle": oracle,
        "knn": knn_factory(),
        "softmax": softmax_factory(
            D.c, D.d, TrainConfig(epochs=2, batch_size=32, learning_rate=0.3)
        ),
    }[learner]
    result = incv(D, factory, iterations=3, remove_ratio="auto", seed=12)
    merged = np.concatenate([result.selected, result.candidate, result.removed])
    assert len(merged) == D.n  # pairwise disjoint and jointly exhaustive
    assert np.array_equal(np.sort(merged), np.sort(D.ids))


def test_iteration_prefixes_are_deterministic():
    D, factory = oracle_selection_case(n_per_class=200)
    runs = [
        incv(D, factory, iterations=k, remove_ratio="auto", seed=13)
        for k in (1, 2, 3)
    ]
    assert runs[2].history[:1] == runs[0].history
    assert runs[2].history[:2] == runs[1].history
    assert runs[0].epsilon_hat == runs[1].epsilon_hat == runs[2].epsilon_hat


def replay_incv(D, factory, iterations, seed):
    """Documented algorithm, reimplemented with the folds run one after
    the other: each fold learner trains alone on its own subset."""

    def fold_pass(train_ids, fold, fold_seed, r):
        learner = factory(fold_seed).train(D.subset(train_ids))
        agree = learner.predict_labels(fold.features) == fold.observed_labels
        kept, pool = fold.ids[agree], fold.subset(fold.ids[~agree])
        losses = learner.losses(pool.features, pool.observed_labels)
        order = np.lexsort((pool.ids, -losses))
        return kept, np.sort(pool.ids[order[: int(r * len(kept))]]), float(agree.mean())

    selected = removed = np.empty(0, dtype=np.int64)
    candidate, r, eps, history = np.sort(D.ids), 0.0, 0.0, []
    for iteration in range(1, iterations + 1):
        split_seed, seed1, seed2 = _iteration_seeds(seed, iteration)
        C1, C2 = split_half(D.subset(candidate), seed=split_seed)
        s1, r1, acc1 = fold_pass(np.union1d(selected, C1.ids), C2, seed1, r)
        s2, r2, acc2 = fold_pass(np.union1d(selected, C2.ids), C1, seed2, r)
        if iteration == 1:
            eps = estimate_epsilon_symmetric((len(s1) + len(s2)) / len(candidate), D.c)
            r = eps / (1.0 - eps)
        history.append(IterationRecord(iteration, len(s1), len(s2), len(r1), len(r2),
                                       acc1, acc2))
        fresh = np.concatenate([s1, s2, r1, r2])
        selected = np.union1d(selected, np.concatenate([s1, s2]))
        removed = np.union1d(removed, np.concatenate([r1, r2]))
        candidate = np.setdiff1d(candidate, fresh)
    return selected, candidate, removed, eps, tuple(history)


@pytest.mark.parametrize(
    "n_per_class, batch, hidden",
    [(101, 16, None), (43, 32, None), (37, 8, 6), (30, 8, "mixed")],
    ids=["odd-candidates", "32m-and-32m+1-rows", "hidden-layer", "mixed-arch"],
)
def test_softmax_incv_matches_sequential_fold_passes(n_per_class, batch, hidden):
    # 3 x 101 = 303 candidates split 152/151; 3 x 43 = 129 split 65/64 at a
    # batch of 32, so the folds run 3 and 2 batches per epoch. Fold learners
    # of two arches ("mixed") cannot pair and train alone.
    D, _ = oracle_selection_case(eps=0.3, c=3, n_per_class=n_per_class, seed=5)
    cfg = TrainConfig(epochs=4, batch_size=batch, learning_rate=0.3)
    if hidden == "mixed":
        def factory(seed):
            return SoftmaxLearner(D.c, D.d, replace(cfg, seed=seed), 4 if seed % 2 else None)
    else:
        factory = softmax_factory(D.c, D.d, cfg, hidden=hidden)
    result = incv(D, factory, iterations=3, remove_ratio="auto", seed=17)
    selected, candidate, removed, eps, history = replay_incv(D, factory, 3, seed=17)
    assert np.array_equal(result.selected, selected)
    assert np.array_equal(result.candidate, candidate)
    assert np.array_equal(result.removed, removed)
    assert result.epsilon_hat == eps
    assert result.history == history
    assert any(h.n_r1 + h.n_r2 > 0 for h in history)  # the removal path ran


def test_divergence_propagates_from_incv():
    D, _ = oracle_selection_case(n_per_class=50)
    factory = softmax_factory(D.c, D.d, TrainConfig(epochs=3, batch_size=16, learning_rate=1e9))
    with pytest.raises(DivergenceError):
        incv(D, factory, iterations=2, seed=3)


def test_no_removal_during_first_auto_pass():
    D, factory = oracle_selection_case(n_per_class=200)
    result = incv(D, factory, iterations=3, remove_ratio="auto", seed=13)
    first, *rest = result.history
    assert first.n_r1 == first.n_r2 == 0
    assert any(r.n_r1 + r.n_r2 > 0 for r in rest)


def test_recall_grows_as_iterations_accumulate():
    D, factory = oracle_selection_case(n_per_class=500, seed=4)
    recalls = [
        selection_metrics(
            incv(D, factory, iterations=k, remove_ratio="auto", seed=6).selected, D
        ).lr
        for k in (1, 2, 3)
    ]
    assert recalls[0] < recalls[1] < recalls[2]


def test_selection_rate_inversion_near_truth():
    eps = 0.4
    D, factory = oracle_selection_case(eps=eps, n_per_class=800)
    result = ncv(D, factory, seed=21)
    assert result.epsilon_hat == pytest.approx(eps, abs=0.05)


def test_monte_carlo_precision_and_recall_match_closed_forms():
    eps, c = 0.4, 4
    D, factory = oracle_selection_case(eps=eps, c=c, n_per_class=800)
    metrics = selection_metrics(ncv(D, factory, seed=8).selected, D)
    assert metrics.lp == pytest.approx(sym_lp(eps, c), abs=0.035)
    assert metrics.lr == pytest.approx(1 - eps, abs=0.035)
    np.testing.assert_allclose(metrics.lp_i, sym_lp(eps, c), atol=0.06)
    np.testing.assert_allclose(metrics.lr_i, 1 - eps, atol=0.06)


def test_halt_records_reason_and_stops_early():
    D = hand_dataset(pred_labels=[0, 1, 0], observed=[0, 1, 0])
    result = incv(D, stub_factory(2), iterations=4, remove_ratio=0.0, seed=1)
    assert len(result.history) == 1  # everything selected in the first pass
    assert result.halt_reason is not None
    assert "exhausted before iteration 2" in result.halt_reason
    assert set(result.selected) == {0, 1, 2}


@settings(max_examples=40, deadline=None)
@given(
    agree=st.lists(st.booleans(), min_size=4, max_size=24),
    seed=st.integers(min_value=0, max_value=10_000),
    ratio=st.floats(min_value=0.0, max_value=2.0),
)
def test_partition_invariant_holds_for_any_agreement_pattern(agree, seed, ratio):
    observed = [0 if a else 1 for a in agree]
    D = hand_dataset(pred_labels=[0] * len(agree), observed=observed, c=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rate below the accuracy floor clamps
        result = incv(D, stub_factory(2), iterations=2, remove_ratio=ratio, seed=seed)
    merged = np.concatenate([result.selected, result.candidate, result.removed])
    assert len(merged) == len(set(merged.tolist())) == D.n
    if len(result.history) < 2:
        assert result.halt_reason is not None


# ---------------------------------------------------------------------------
# result container


def test_result_rejects_overlapping_ids():
    with pytest.raises(ValueError, match="disjoint"):
        SelectionResult(
            selected=np.array([1, 2]),
            candidate=np.array([2, 3]),
            removed=np.array([], dtype=np.int64),
            epsilon_hat=0.1,
            history=(),
        )


@pytest.mark.parametrize(
    "selected, candidate, removed",
    [([1, 2], [3, 4], [2]), ([5], [1], [1]), ([7, 8], [], [7])],
    ids=["selected-removed", "candidate-removed", "selected-removed-no-candidate"],
)
def test_result_rejects_an_id_in_two_lists(selected, candidate, removed):
    message = "^selected, candidate, and removed ids must be disjoint$"
    with pytest.raises(ValueError, match=message):
        SelectionResult(selected=np.array(selected), candidate=np.array(candidate),
                        removed=np.array(removed, dtype=np.int64), epsilon_hat=0.1, history=())


def test_result_accepts_an_id_repeated_within_one_list():
    # only ids shared between lists make them overlap
    result = SelectionResult(selected=np.array([2, 1, 2]), candidate=np.array([3, 3]),
                             removed=np.array([4]), epsilon_hat=0.1, history=())
    assert result.to_json_dict()["selected"] == [2, 1, 2]


def test_result_json_lists_python_ints_in_stored_order():
    result = SelectionResult(selected=np.array([9, 2**62, 0]), candidate=np.array([5]),
                             removed=np.empty(0, dtype=np.int64), epsilon_hat=0.0, history=())
    payload = result.to_json_dict()
    assert payload["selected"] == [9, 2**62, 0] and payload["removed"] == []
    assert all(type(i) is int for key in ("selected", "candidate") for i in payload[key])


def test_result_rejects_out_of_range_estimate():
    with pytest.raises(ValueError, match="epsilon_hat"):
        SelectionResult(
            selected=np.array([1]),
            candidate=np.array([2]),
            removed=np.array([3]),
            epsilon_hat=1.5,
            history=(),
        )


def test_result_json_round_trip():
    D, factory = oracle_selection_case(n_per_class=100)
    result = incv(D, factory, iterations=2, remove_ratio="auto", seed=17)
    payload = json.loads(json.dumps(result.to_json_dict()))
    restored = selection_result_from_json(payload)
    assert np.array_equal(np.sort(result.selected), restored.selected)
    assert np.array_equal(np.sort(result.candidate), restored.candidate)
    assert np.array_equal(np.sort(result.removed), restored.removed)
    assert restored.epsilon_hat == result.epsilon_hat
    assert restored.history == result.history
    assert restored.halt_reason == result.halt_reason


def test_result_json_sorts_ids():
    payload = {
        "selected": [5, 1],
        "candidate": [4],
        "removed": [3, 2],
        "epsilon_hat": 0.25,
        "history": [],
    }
    restored = selection_result_from_json(payload)
    assert restored.selected.tolist() == [1, 5]
    assert restored.removed.tolist() == [2, 3]
    assert restored.halt_reason is None


def test_result_json_casts_history_by_field_type():
    record = {"iteration": 1.0, "n_s1": 4, "n_s2": 3, "n_r1": 0, "n_r2": 1,
              "acc1": 1, "acc2": 0.75}
    payload = {"selected": [1], "candidate": [], "removed": [], "epsilon_hat": 0.0,
               "history": [record], "halt_reason": None}
    restored = selection_result_from_json(payload).to_json_dict()
    # json.dumps tells 1 from 1.0, so this pins each field's type and order
    assert json.dumps(restored["history"]) == json.dumps([{**record, "iteration": 1, "acc1": 1.0}])
    del record["acc2"]
    with pytest.raises(ValueError, match="^selection JSON: missing key 'acc2'$"):
        selection_result_from_json(payload)


# ---------------------------------------------------------------------------
# confusion matrix


def test_confusion_hand_case():
    matrix, zero = confusion_matrix([0, 1, 1, 1], [0, 0, 1, 1], c=2)
    np.testing.assert_array_equal(matrix, [[0.5, 0.5], [0.0, 1.0]])
    assert not zero.any()


def test_confusion_perfect_predictions_give_identity():
    true = np.arange(12) % 3
    matrix, zero = confusion_matrix(true, true, c=3)
    np.testing.assert_array_equal(matrix, np.eye(3))
    assert not zero.any()


def test_confusion_missing_class_row_is_nan():
    matrix, zero = confusion_matrix([0, 1], [0, 0], c=3)
    assert zero.tolist() == [False, True, True]
    assert np.isnan(matrix[1]).all() and np.isnan(matrix[2]).all()
    np.testing.assert_array_equal(matrix[0], [0.5, 0.5, 0.0])


def test_confusion_length_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        confusion_matrix([0, 1], [0], c=2)


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("where", ["predictions", "truth"])
def test_confusion_rejects_out_of_range_labels(bad, where):
    pred, true = [0, 1, 2], [0, 1, 2]
    (pred if where == "predictions" else true)[1] = bad
    with pytest.raises(ValueError, match=r"\[0, 3\)"):
        confusion_matrix(pred, true, c=3)


# ---------------------------------------------------------------------------
# selection metrics


def metrics_hand_case():
    # ids 0..3 clean, ids 4..7 flipped; selection keeps 3 clean + 1 noisy
    D = hand_dataset(
        pred_labels=[0, 0, 1, 1, 0, 0, 1, 1],
        observed=[0, 0, 1, 1, 1, 1, 0, 0],
        true=[0, 0, 1, 1, 0, 0, 1, 1],
        c=2,
    )
    return D, [0, 1, 2, 4]


def test_metrics_hand_values():
    D, ids = metrics_hand_case()
    m = selection_metrics(ids, D)
    assert m.lp == pytest.approx(0.75)
    assert m.lr == pytest.approx(0.75)
    assert m.eps_s == pytest.approx(0.25)
    np.testing.assert_allclose(m.lp_i, [2 / 3, 1.0])
    np.testing.assert_allclose(m.lr_i, [1.0, 0.5])


def test_metrics_all_clean_selection_is_perfect():
    D = hand_dataset(
        pred_labels=[0, 1, 0, 1],
        observed=[0, 1, 0, 1],
        true=[0, 1, 0, 1],
        c=2,
    )
    m = selection_metrics(D.ids, D)
    assert m.lp == 1.0 and m.lr == 1.0 and m.eps_s == 0.0


def test_metrics_duplicate_ids_counted_once():
    D, ids = metrics_hand_case()
    assert selection_metrics(ids + ids, D).lp == selection_metrics(ids, D).lp


def test_metrics_require_true_labels():
    D = hand_dataset(pred_labels=[0, 1], observed=[0, 1])
    with pytest.raises(ValueError, match="true labels"):
        selection_metrics([0], D)


def test_metrics_reject_foreign_ids():
    D, _ = metrics_hand_case()
    with pytest.raises(ValueError, match="subset"):
        selection_metrics([0, 99], D)


@pytest.mark.parametrize("ids", [[0.5, 1.9], [[0, 1]], [True]], ids=["fractions", "column", "bool"])
def test_metrics_refuse_ids_that_are_not_1d_whole_numbers(ids):
    # a cast to int64 scored [0.5, 1.9] as the ids 0 and 1
    D, _ = metrics_hand_case()
    with pytest.raises(ValueError, match="^selected_ids must be 1-d whole numbers, got "):
        selection_metrics(ids, D)


def test_metrics_undefined_for_empty_selection():
    D, _ = metrics_hand_case()
    with pytest.raises(UndefinedMetricError, match="empty selection"):
        selection_metrics([], D)


def test_metrics_undefined_without_any_clean_sample():
    D = hand_dataset(
        pred_labels=[0, 1], observed=[1, 0], true=[0, 1], c=2
    )
    with pytest.raises(UndefinedMetricError, match="no clean samples"):
        selection_metrics([0], D)


def test_metrics_flag_unsupported_classes():
    # class 2 is never selected and never clean anywhere in the dataset
    D = hand_dataset(
        pred_labels=[0, 0, 1, 1, 2, 2],
        observed=[0, 0, 1, 1, 0, 1],
        true=[0, 0, 1, 1, 2, 2],
        c=3,
    )
    with pytest.warns(UserWarning, match="no selected samples"):
        m = selection_metrics([0, 1, 2, 3], D)
    assert np.isnan(m.lp_i[2]) and np.isnan(m.lr_i[2])
    assert m.lp == 1.0  # the selected subset itself is clean


def test_metrics_class_selected_but_never_clean():
    # class 2 is selected (ids 4, 5) but none of its samples is clean:
    # precision 0, recall NaN, and no warning since it has selected samples
    D = hand_dataset(
        pred_labels=[0, 0, 1, 1, 0, 1],
        observed=[0, 0, 1, 1, 0, 1],
        true=[0, 0, 1, 1, 2, 2],
        c=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = selection_metrics(D.ids, D)
    assert m.lp_i[2] == 0.0 and np.isnan(m.lr_i[2])
    np.testing.assert_array_equal(m.lp_i[:2], [1.0, 1.0])
    np.testing.assert_array_equal(m.lr_i[:2], [1.0, 1.0])
    assert m.lp == 4 / 6 and m.lr == 1.0


def reference_metrics(ids, true, observed, c):
    """Label precision/recall from scratch: per-class counts over the
    distinct selected ids (ids are row positions here)."""
    rows = sorted(set(ids))
    clean = [true[r] == observed[r] for r in range(len(true))]
    n_clean_S = sum(clean[r] for r in rows)
    lp_i, lr_i = [], []
    for i in range(c):
        n_S = sum(true[r] == i for r in rows)
        clean_S = sum(true[r] == i and clean[r] for r in rows)
        clean_D = sum(true[r] == i and clean[r] for r in range(len(true)))
        lp_i.append(clean_S / n_S if n_S else float("nan"))
        lr_i.append(clean_S / clean_D if clean_D else float("nan"))
    return n_clean_S / len(rows), n_clean_S / sum(clean), lp_i, lr_i


@settings(max_examples=60, deadline=None)
@given(data=st.data(), c=st.integers(min_value=2, max_value=6))
def test_metrics_match_a_per_class_reference(data, c):
    n = data.draw(st.integers(min_value=1, max_value=30))
    label = st.integers(min_value=0, max_value=c - 1)
    true = data.draw(st.lists(label, min_size=n, max_size=n))
    observed = data.draw(st.lists(label, min_size=n, max_size=n))
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1))
    if not any(t == o for t, o in zip(true, observed)):
        observed[0] = true[0]
    D = hand_dataset(pred_labels=[0] * n, observed=observed, true=true, c=c)
    lp, lr, lp_i, lr_i = reference_metrics(ids, true, observed, c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # classes without selected samples
        m = selection_metrics(ids, D)
    assert m.lp == lp and m.lr == lr
    np.testing.assert_array_equal(m.lp_i, lp_i)  # NaN equals NaN here
    np.testing.assert_array_equal(m.lr_i, lr_i)


# ---------------------------------------------------------------------------
# CSV output


def ncv_metrics_rows(tmp_path, D, experiment):
    """metrics.csv rows of `labelnoise ncv --learner oracle` on D, plus
    the selected ids it wrote."""
    data_mod.save(D, tmp_path / "in")
    out = tmp_path / experiment
    assert main(["ncv", "--in", str(tmp_path / "in"), "--learner", "oracle",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
    return rows, json.loads((out / "selection.json").read_text())["selected"]


def test_metrics_csv_layout(tmp_path):
    D, _ = oracle_selection_case(n_per_class=50)
    rows, selected = ncv_metrics_rows(tmp_path, D, "trial")
    m = selection_metrics(selected, D)
    assert rows[0] == ["experiment", "class", "lp", "lr", "eps_s"]
    assert len(rows) == 2 + D.c
    assert rows[1][:2] == ["trial", "all"]
    assert float(rows[1][2]) == m.lp
    assert float(rows[1][3]) == m.lr
    assert float(rows[1][4]) == m.eps_s
    for i in range(D.c):
        assert rows[2 + i][:2] == ["trial", str(i)]
        assert float(rows[2 + i][2]) == m.lp_i[i]
        assert float(rows[2 + i][3]) == m.lr_i[i]
        assert float(rows[2 + i][4]) == 1.0 - m.lp_i[i]


def test_metrics_csv_writes_nan_for_missing_support(tmp_path, capsys):
    # a zero noise ratio makes the oracle predict the true label, so
    # exactly the clean ids 0..3 are selected and true class 2 has no
    # selected and no clean samples
    D = LabeledDataset(
        features=np.arange(12.0).reshape(6, 2),
        observed_labels=[0, 0, 1, 1, 0, 1],
        ids=np.arange(6),
        c=3,
        true_labels=[0, 0, 1, 1, 2, 2],
        noise=NoiseSpec(kind="symmetric", ratio=0.0, seed=0),
    )
    rows, selected = ncv_metrics_rows(tmp_path, D, "x")
    assert "warning: classes [2] have no selected samples" in capsys.readouterr().err
    assert selected == [0, 1, 2, 3]
    class2 = rows[-1]
    assert class2[1] == "2"
    assert class2[2] == "nan" and class2[3] == "nan" and class2[4] == "nan"
