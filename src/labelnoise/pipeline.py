"""The desk experiment: naive training against selection then co-training.

Each seed samples overlapping gaussian blobs, splits them per class and
resamples a fraction of the train labels symmetrically. Two contenders are
scored on the clean held-out split: a softmax MLP trained directly on the
noisy labels, and iterative selection followed by co-training on it.
"""

import hashlib

import numpy as np

from .cotraining import CoTrainConfig, cotrain, resolve_eps_s
from .data import BlobSpec, corrupt_dataset, make_blobs, split_per_class
from .learners import SoftmaxLearner, TrainConfig, softmax_factory
from .noise import NoiseSpec
from .selection import incv, selection_metrics

# scripts/run_pipeline.py's defaults, the values of the benchmark's desk workload
DESK = dict(classes=10, dims=10, per_class=150, train_per_class=100, separation=3.5,
            spread=1.0, noise=0.5, hidden=32, batch=32, lr=0.3, naive_epochs=120,
            select_epochs=25, iterations=3, warmup=20, cotrain_epochs=60)


def seed_data(params: dict, seed: int):
    """(noisy train, clean test) for one seed: blobs, per-class split, corruption."""
    p = params
    clean = make_blobs(BlobSpec(c=p["classes"], d=p["dims"], n_per_class=p["per_class"],
                                separation=p["separation"], spread=p["spread"], seed=seed * 31))
    train, test = split_per_class(clean, p["train_per_class"])
    noise = NoiseSpec(kind="symmetric", ratio=p["noise"], seed=seed * 31 + 1)
    return corrupt_dataset(train, noise), test


def run_seeds(params: dict, inputs) -> list[dict]:
    """One row per (seed, noisy, test) of inputs: both contenders' clean-test
    accuracies and their margin, the selection's LP/LR, noise estimates and
    size, and the sha256 of its selected ids (``selected``)."""
    p = params
    c, d, batch, lr = p["classes"], p["dims"], p["batch"], p["lr"]
    rows = []
    for seed, noisy, test in inputs:
        naive = SoftmaxLearner(c, d, TrainConfig(epochs=p["naive_epochs"], batch_size=batch,
                                                 learning_rate=lr, seed=seed * 31 + 2),
                               hidden=p["hidden"]).train(noisy)
        naive_acc = float(np.mean(naive.predict_labels(test.features) == test.true_labels))

        sel_cfg = TrainConfig(epochs=p["select_epochs"], batch_size=batch, learning_rate=lr)
        result = incv(noisy, softmax_factory(c, d, sel_cfg), iterations=p["iterations"],
                      remove_ratio="auto", seed=seed * 31 + 3)
        metrics = selection_metrics(result.selected, noisy)
        eps_s, _ = resolve_eps_s(result.selected, noisy, result.epsilon_hat)

        S = noisy.subset(result.selected)
        C = noisy.subset(result.candidate) if len(result.candidate) else None
        cfg = CoTrainConfig(warmup_epochs=p["warmup"], total_epochs=p["cotrain_epochs"],
                            base_batch=batch, eps_s=eps_s, seed=seed * 31 + 4, learning_rate=lr)
        step_cfg = TrainConfig(epochs=1, batch_size=batch, learning_rate=lr)
        _, _, report = cotrain(S, C, cfg, softmax_factory(c, d, step_cfg, hidden=p["hidden"]),
                               clean_test=test, eps_s_source="measured")
        last = report.records[-1]
        pipeline_acc = max(last.acc_f1, last.acc_f2)
        rows.append({
            "seed": seed,
            "naive_acc": naive_acc,
            "pipeline_acc": pipeline_acc,
            "margin": pipeline_acc - naive_acc,
            "lp": metrics.lp,
            "lr": metrics.lr,
            "epsilon_hat": result.epsilon_hat,
            "eps_s": eps_s,
            "n_selected": len(result.selected),
            "selected": hashlib.sha256(result.selected.tobytes()).hexdigest(),
        })
    return rows
