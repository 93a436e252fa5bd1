#!/usr/bin/env python3
"""Noisy-label robustness experiment: naive training vs select-then-cotrain.

For each seed: sample overlapping gaussian blobs, resample a fraction of
the train labels symmetrically, then score two contenders on the clean
held-out split -- a softmax MLP trained directly on the noisy labels, and
the iterative-selection + co-training pipeline. Writes one CSV row per
seed and prints the margin summary.

Typical invocation:
    python3 scripts/run_pipeline.py --seeds 1 2 3 4 5 --out pipeline.csv
"""

import argparse
import sys
import time

import numpy as np

from labelnoise.cotraining import CoTrainConfig, cotrain, resolve_eps_s
from labelnoise.data import BlobSpec, corrupt_dataset, make_blobs, split_per_class, write_csv
from labelnoise.learners import SoftmaxLearner, TrainConfig, softmax_factory
from labelnoise.noise import NoiseSpec
from labelnoise.selection import incv, selection_metrics


def run_seed(args, seed):
    clean = make_blobs(
        BlobSpec(c=args.classes, d=args.dims, n_per_class=args.per_class,
                 separation=args.separation, spread=args.spread, seed=seed * 31)
    )
    train, test = split_per_class(clean, args.train_per_class)
    noisy = corrupt_dataset(
        train, NoiseSpec(kind="symmetric", ratio=args.noise, seed=seed * 31 + 1)
    )

    naive = SoftmaxLearner(
        args.classes, args.dims,
        TrainConfig(epochs=args.naive_epochs, batch_size=args.batch,
                    learning_rate=args.lr, seed=seed * 31 + 2),
        hidden=args.hidden,
    ).train(noisy)
    naive_acc = float(np.mean(naive.predict_labels(test.features) == test.true_labels))

    sel_cfg = TrainConfig(epochs=args.select_epochs, batch_size=args.batch,
                          learning_rate=args.lr)
    result = incv(
        noisy,
        softmax_factory(args.classes, args.dims, sel_cfg),
        iterations=args.iterations,
        remove_ratio="auto",
        seed=seed * 31 + 3,
    )
    metrics = selection_metrics(result.selected, noisy)
    eps_s, _ = resolve_eps_s(result.selected, noisy, result.epsilon_hat)

    S = noisy.subset(result.selected)
    C = noisy.subset(result.candidate) if len(result.candidate) else None
    cfg = CoTrainConfig(
        warmup_epochs=args.warmup, total_epochs=args.cotrain_epochs,
        base_batch=args.batch, eps_s=eps_s, seed=seed * 31 + 4,
        learning_rate=args.lr,
    )
    step_cfg = TrainConfig(epochs=1, batch_size=args.batch, learning_rate=args.lr)
    _, _, report = cotrain(
        S, C, cfg,
        softmax_factory(args.classes, args.dims, step_cfg, hidden=args.hidden),
        clean_test=test, eps_s_source="measured",
    )
    last = report.records[-1]
    return {
        "seed": seed,
        "naive_acc": naive_acc,
        "pipeline_acc": max(last.acc_f1, last.acc_f2),
        "margin": max(last.acc_f1, last.acc_f2) - naive_acc,
        "lp": metrics.lp,
        "lr": metrics.lr,
        "epsilon_hat": result.epsilon_hat,
        "eps_s": eps_s,
        "n_selected": len(result.selected),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--dims", type=int, default=10)
    parser.add_argument("--per-class", type=int, default=150)
    parser.add_argument("--train-per-class", type=int, default=100)
    parser.add_argument("--separation", type=float, default=3.5)
    parser.add_argument("--spread", type=float, default=1.0)
    parser.add_argument("--noise", type=float, default=0.5)
    parser.add_argument("--hidden", type=int, default=32)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--lr", type=float, default=0.3)
    parser.add_argument("--naive-epochs", type=int, default=120)
    parser.add_argument("--select-epochs", type=int, default=25)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=20)
    parser.add_argument("--cotrain-epochs", type=int, default=60)
    parser.add_argument("--out", default=None, help="summary CSV path")
    args = parser.parse_args(argv)

    rows = []
    for seed in args.seeds:
        started = time.monotonic()
        row = run_seed(args, seed)
        rows.append(row)
        print(
            "seed %d: naive %.3f  pipeline %.3f  margin %+.3f  "
            "(lp %.3f lr %.3f eps_hat %.3f, %.1fs)"
            % (seed, row["naive_acc"], row["pipeline_acc"], row["margin"],
               row["lp"], row["lr"], row["epsilon_hat"], time.monotonic() - started)
        )

    margins = [row["margin"] for row in rows]
    print(
        "margin over %d seeds: min %+.3f  mean %+.3f  max %+.3f"
        % (len(rows), min(margins), sum(margins) / len(margins), max(margins))
    )
    if args.out:
        write_csv(args.out, list(rows[0]), [list(row.values()) for row in rows])
        print(f"wrote {args.out}")
    return 0 if min(margins) > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
