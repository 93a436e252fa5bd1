"""The three workloads: inputs from a seed, one timed iteration, its checks.

Every call into the package goes through a module attribute
(``selection.incv``, not a name imported here), so the wrappers that a
traced iteration installs on those attributes see it.

Each workload is a closed loop with one caller. ``run`` returns the
outcome of every operation it attempted; ``check`` turns the outputs into
further outcomes and into the informational quality figures and digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import labelnoise.cli as cli
import labelnoise.cotraining as cotraining
import labelnoise.data as data
import labelnoise.learners as learners
import labelnoise.noise as noise
import labelnoise.selection as selection

WORK = Path(".perfbench-out")


@dataclass
class Iteration:
    """One iteration: an (operation or check, ok, message) per outcome, the
    work done, raw outputs, informational quality figures and digests."""

    outcomes: list = field(default_factory=list)
    items: float = 0.0
    outputs: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def record(self, op: str, ok: bool, message: str = "") -> None:
        self.outcomes.append((op, bool(ok), message))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.outcomes if not ok)


def _failure(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _cli(tracer, argv: list[str]) -> tuple[int, str]:
    """labelnoise.cli.main(argv) inside a cli.<command> span; (code, stdout)."""
    out = io.StringIO()
    with _span(tracer, f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _digest_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# --------------------------------------------------------------------------
# desk: the scripts/run_pipeline.py defaults, five seeds, in process


DESK = dict(classes=10, dims=10, per_class=150, train_per_class=100, separation=3.5,
            spread=1.0, noise=0.5, hidden=32, batch=32, lr=0.3, naive_epochs=120,
            select_epochs=25, iterations=3, warmup=20, cotrain_epochs=60)
DESK_SEEDS = 5


class Desk:
    name = "desk"
    unit = "seeds/s"

    def setup(self, seed: int):
        """Five pipeline seeds from the workload seed; seed 0 gives 1..5."""
        p = DESK
        inputs = []
        for s in range(DESK_SEEDS * seed + 1, DESK_SEEDS * seed + DESK_SEEDS + 1):
            clean = data.make_blobs(data.BlobSpec(
                c=p["classes"], d=p["dims"], n_per_class=p["per_class"],
                separation=p["separation"], spread=p["spread"], seed=s * 31))
            train, test = data.split_per_class(clean, p["train_per_class"])
            noisy = data.corrupt_dataset(
                train, noise.NoiseSpec(kind="symmetric", ratio=p["noise"], seed=s * 31 + 1))
            inputs.append((s, noisy, test))
        return inputs

    def reset(self) -> None:
        pass

    def run(self, inputs, tracer) -> Iteration:
        it = Iteration(items=float(len(inputs)))
        for s, noisy, test in inputs:
            try:
                it.outputs[s] = _desk_seed(s, noisy, test)
                it.record(f"seed {s}", True)
            except Exception as exc:  # one failed seed must not end the run
                it.record(f"seed {s}", False, _failure(exc))
        return it

    def check(self, inputs, it: Iteration) -> None:
        rows = list(it.outputs.values())
        for s, row in it.outputs.items():
            it.record(f"seed {s} margin", row["margin"] > 0,
                      f"pipeline {row['pipeline_acc']} <= naive {row['naive_acc']}")
        blob = json.dumps(it.outputs, sort_keys=True).encode()
        it.digests = {"results.json": hashlib.sha256(blob).hexdigest()}
        it.quality = {
            "clean_acc": float(np.mean([r["pipeline_acc"] for r in rows])) if rows else math.nan,
            "margin_min": min((r["margin"] for r in rows), default=math.nan),
        }


def _desk_seed(s: int, noisy, test) -> dict:
    p = DESK
    c, d = p["classes"], p["dims"]
    naive = learners.SoftmaxLearner(
        c, d,
        learners.TrainConfig(epochs=p["naive_epochs"], batch_size=p["batch"],
                             learning_rate=p["lr"], seed=s * 31 + 2),
        hidden=p["hidden"],
    ).train(noisy)
    naive_acc = float(np.mean(naive.predict_labels(test.features) == test.true_labels))

    sel_cfg = learners.TrainConfig(epochs=p["select_epochs"], batch_size=p["batch"],
                                   learning_rate=p["lr"])
    result = selection.incv(noisy, learners.softmax_factory(c, d, sel_cfg),
                            iterations=p["iterations"], remove_ratio="auto",
                            seed=s * 31 + 3)
    metrics = selection.selection_metrics(result.selected, noisy)
    eps_s, _ = cotraining.resolve_eps_s(result.selected, noisy, result.epsilon_hat)

    S = noisy.subset(result.selected)
    C = noisy.subset(result.candidate) if len(result.candidate) else None
    cfg = cotraining.CoTrainConfig(
        warmup_epochs=p["warmup"], total_epochs=p["cotrain_epochs"], base_batch=p["batch"],
        eps_s=eps_s, seed=s * 31 + 4, learning_rate=p["lr"])
    step_cfg = learners.TrainConfig(epochs=1, batch_size=p["batch"], learning_rate=p["lr"])
    _, _, report = cotraining.cotrain(
        S, C, cfg, learners.softmax_factory(c, d, step_cfg, hidden=p["hidden"]),
        clean_test=test, eps_s_source="measured")
    last = report.records[-1]
    pipeline_acc = max(last.acc_f1, last.acc_f2)
    return {
        "naive_acc": naive_acc,
        "pipeline_acc": pipeline_acc,
        "margin": pipeline_acc - naive_acc,
        "lp": metrics.lp,
        "lr": metrics.lr,
        "epsilon_hat": result.epsilon_hat,
        "selected": hashlib.sha256(result.selected.tobytes()).hexdigest(),
    }


# --------------------------------------------------------------------------
# scale: a CLI chain over ~30k train and 6k test rows on disk


SCALE = dict(classes=10, dims=32, per_class=3600, train_per_class=3000,
             separation=3.5, spread=1.0, noise=0.4)


class Scale:
    name = "scale"
    unit = "rows/s"

    def setup(self, seed: int):
        p = SCALE
        clean = data.make_blobs(data.BlobSpec(
            c=p["classes"], d=p["dims"], n_per_class=p["per_class"],
            separation=p["separation"], spread=p["spread"], seed=seed))
        train, test = data.split_per_class(clean, p["train_per_class"])
        return seed, train, test

    def reset(self) -> None:
        shutil.rmtree(WORK / "scale", ignore_errors=True)

    def run(self, inputs, tracer) -> Iteration:
        seed, train, test = inputs
        w = WORK / "scale"
        it = Iteration(items=float(train.n + test.n))
        ops = [
            ("corrupt", ["--in", w / "clean", "--noise", "symmetric",
                         "--ratio", SCALE["noise"], "--out", w / "noisy"]),
            ("incv", ["--in", w / "noisy", "--learner", "softmax", "--hidden", 64,
                      "--batch", 128, "--iterations", 2, "--epochs", 2, "--out", w / "incv"]),
            ("cotrain", ["--in", w / "noisy", "--selection", w / "incv" / "selection.json",
                         "--hidden", 64, "--batch", 128, "--warmup", 1, "--epochs", 3,
                         "--test", w / "test", "--out", w / "cotrain"]),
            ("report", ["--runs", w / "incv", w / "cotrain", "--out", w / "report"]),
        ]
        try:
            data.save(train, w / "clean")
            data.save(test, w / "test")
            it.record("save", True)
        except Exception as exc:
            it.record("save", False, _failure(exc))
        for command, args in ops:
            if it.failed:
                it.record(command, False, "skipped after an earlier failure")
                continue
            argv = [command] + [str(a) for a in args] + ["--seed", str(seed)]
            try:
                code, _ = _cli(tracer, argv)
                it.record(command, code == 0, f"exit code {code}")
            except Exception as exc:
                it.record(command, False, _failure(exc))
        return it

    def check(self, inputs, it: Iteration) -> None:
        w = WORK / "scale"
        ids = set(int(i) for i in inputs[1].ids)
        it.quality["clean_acc"] = math.nan
        if it.failed:
            return
        try:
            sel = json.loads((w / "incv" / "selection.json").read_text())
            parts = [set(sel[k]) for k in ("selected", "candidate", "removed")]
            disjoint = sum(len(p) for p in parts) == len(set().union(*parts))
            it.record("partition", disjoint and set().union(*parts) == ids,
                      "selected/candidate/removed must be disjoint and cover the ids")
            for path in sorted(w.rglob("*")):
                if path.suffix in (".json", ".csv"):
                    it.record(f"parse {path.relative_to(w)}", _parses(path))
            best = json.loads((w / "cotrain" / "final.json").read_text())["best_acc"]
            it.record("best_acc", 0.0 <= best <= 1.0, f"best_acc {best}")
            it.quality["clean_acc"] = best
        except (OSError, ValueError, KeyError, TypeError) as exc:
            it.record("artifacts", False, _failure(exc))
        it.digests = _digest_tree(w)


def _parses(path: Path) -> bool:
    try:
        if path.suffix == ".json":
            json.loads(path.read_text())
            return True
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return bool(rows) and len({len(r) for r in rows}) == 1
    except (OSError, ValueError, csv.Error):
        return False


# --------------------------------------------------------------------------
# simulate: oracle and 1-NN Monte Carlo checks of the closed forms


SIM_RUNS = (
    ("oracle", ["--learner", "oracle", "--samples", "100000", "--grid", "0.1:0.7:0.2"]),
    ("knn", ["--learner", "knn", "--samples", "20000", "--grid", "0.2,0.5"]),
)
# Oracle deviations must stay within the acceptance tests' 0.01, or within
# five binomial standard errors of the estimate where that is wider: at
# eps=0.7 only 14% of 100k rows agree, so LP's error alone is about 0.004
# and 0.01 would fail about one seed in forty on sampling noise.
SIM_TOL = 0.01
SIM_SIGMAS = 5.0


class Simulate:
    name = "simulate"
    unit = "samples/s"

    def setup(self, seed: int):
        return seed

    def reset(self) -> None:
        shutil.rmtree(WORK / "simulate", ignore_errors=True)

    def run(self, seed, tracer) -> Iteration:
        w = WORK / "simulate"
        it = Iteration()
        for label, args in SIM_RUNS:
            argv = ["simulate"] + args + ["--seed", str(seed), "--out", str(w / label)]
            try:
                code, _ = _cli(tracer, argv)
                it.record(label, code == 0, f"exit code {code}")
            except Exception as exc:
                it.record(label, False, _failure(exc))
        return it

    def check(self, seed, it: Iteration) -> None:
        w = WORK / "simulate"
        devs = []
        for label, _ in SIM_RUNS:
            path = w / label / "simulate.csv"
            try:
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
            except OSError as exc:
                it.record(f"{label} rows", False, _failure(exc))
                continue
            for row in rows:
                it.items += float(row["n"])
                if label == "knn":
                    values = [float(v) for k, v in row.items() if k != "kind"]
                    it.record(f"knn eps={row['epsilon']} finite",
                              all(math.isfinite(v) for v in values))
                    continue
                for key, tol in _oracle_tolerances(row).items():
                    dev = float(row[f"{key}_dev"])
                    devs.append(dev)
                    it.record(f"oracle eps={row['epsilon']} {key}", dev <= tol,
                              f"deviation {dev} > tolerance {tol}")
        it.quality["theory_dev_max"] = max(devs, default=math.nan)
        it.digests = _digest_tree(w)


def _oracle_tolerances(row: dict) -> dict:
    n = float(row["n"])
    eps = float(row["epsilon"])
    acc = float(row["acc_theory"])
    lp = float(row["lp_theory"])
    lr = float(row["lr_theory"])
    sigma = {
        "acc": math.sqrt(acc * (1 - acc) / n),
        "lp": math.sqrt(lp * (1 - lp) / (n * acc)),
        "lr": math.sqrt(lr * (1 - lr) / (n * (1 - eps))),
    }
    return {k: max(SIM_TOL, SIM_SIGMAS * s) for k, s in sigma.items()}


WORKLOADS = {w.name: w for w in (Desk(), Scale(), Simulate())}
