"""Spans recorded around calls into labelnoise's public callables.

The wrappers live here, not in the package: each one replaces a function
or method on its module or class for the length of one traced iteration
and is removed afterwards, so untraced iterations run the unmodified
code. A function is patched under every name a caller looks it up by
(``labelnoise.cli.incv`` beside ``labelnoise.selection.incv``), because
the CLI imports names directly from the other modules.

``theory`` is not wrapped: its closed forms run below timer resolution,
so their time is folded into the self time of whichever span calls them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Layers with self-time shares: every module but theory, which is not wrapped.
LAYERS = ("noise", "data", "learners", "selection", "cotraining", "cli")


class Tracer:
    """Spans (name, start, end, parent, thread) and per-iteration counters.

    Spans are kept in memory and written out by ``write`` at exit. A span
    opened on a worker thread with nothing open on that thread takes the
    innermost span open on the creating thread as its parent: the
    benchmark is a closed loop with one caller, so that is the span that
    handed the work to the pool.
    """

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, iteration)
        self.counters = defaultdict(lambda: defaultdict(float))
        self.iteration = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = self._stack()
        self._lock = threading.Lock()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[self.iteration][key] += value

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def _close(self, stack, sid, name, start, end, parent) -> None:
        stack.pop()
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), self.iteration)
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark's own code around a block."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, name, start, time.perf_counter(), parent)

    def wrap(self, name, fn, after=None):
        """fn recording a span per call; after(tracer, args, result) adds counts."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = tracer._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(stack, sid, name, start, clock(), parent)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, package) -> list[str]:
        """Patch every target; returns the targets that could not be found."""
        missing = []
        for owner_path, attr, name, after in TARGETS:
            owner = _resolve(package, owner_path)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(owner, type):
                self._patch(owner, attr, self.wrap(name, original, after))
                continue
            wrapped = self.wrap(name, _with_batch_counter(self, original)
                                if name == "cotraining.cotrain" else original, after)
            for module in _submodules(package):
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapped)
        return missing

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """One CSV line per span; times are perf_counter seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,thread,iteration\n")
            for sid, name, start, end, parent, thread, it in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{thread},{it}\n")


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _submodules(package):
    prefix = package.__name__ + "."
    mods = [package]
    mods += [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m]
    return mods


def _with_batch_counter(tracer: Tracer, cotrain):
    """cotrain with an on_batch hook that counts batches and kept rows.

    A hook the caller passed is still called after the counting one.
    """
    signature = inspect.signature(cotrain)

    @functools.wraps(cotrain)
    def counted(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        user_hook = bound.arguments.get("on_batch")

        def hook(epoch, batch, ids, kept1, kept2):
            tracer.count("cotraining.batches")
            tracer.count("cotraining.rows_ranked", 2 * len(ids))
            tracer.count("cotraining.rows_stepped", len(kept1) + len(kept2))
            if user_hook is not None:
                user_hook(epoch, batch, ids, kept1, kept2)

        bound.arguments["on_batch"] = hook
        return cotrain(*bound.args, **bound.kwargs)

    return counted


# --------------------------------------------------------------------------
# what is wrapped, and the counts taken after each call


def _sgd_rows(tracer, args, result):
    tracer.count("learners.sgd_step.rows", len(args[2]))


def _knn_work(tracer, args, result):
    learner, features = args[0], args[1]
    q = len(features)
    n, d = learner._X.shape
    tracer.count("learners.knn.gflop", 2.0 * q * n * d / 1e9)
    # Block bytes mirror KnnLearner.predict_proba's chunking (2e7 elements
    # per block): a computed figure, not a measured allocation.
    chunk = min(q, max(1, int(2e7) // max(1, n)))
    with tracer._lock:
        block = tracer.counters[tracer.iteration]
        block["learners.knn.block_mb"] = max(block["learners.knn.block_mb"],
                                             chunk * n * 8 / 1e6)


def _dataset_mb(key):
    def after(tracer, args, result):
        path = Path(args[1] if key == "data.save.mb" else args[0])
        size = sum(f.stat().st_size for f in (path / "data.csv", path / "manifest.json"))
        tracer.count(key, size / 1e6)

    return after


def _incv_work(tracer, args, result):
    """Fold passes and agreement (selected over evaluated) from the history."""
    remaining = args[0].n
    for record in result.history:
        tracer.count("selection.fold_passes", 2)
        tracer.count("selection.agreement_base", remaining)
        tracer.count("selection.agreed", record.n_s1 + record.n_s2)
        remaining -= record.n_s1 + record.n_s2 + record.n_r1 + record.n_r2


# (owner path under labelnoise, attribute, span name, counter) per wrapped
# callable. A cli.<command> span is recorded by the benchmark around each
# labelnoise.cli.main call, so its self time covers argparse and writers.
TARGETS = [
    ("noise", "corrupt_labels", "noise.corrupt_labels", None),
    ("noise", "matrix_from_spec", "noise.matrix_from_spec", None),
    ("data", "make_blobs", "data.make_blobs", None),
    ("data", "corrupt_dataset", "data.corrupt_dataset", None),
    ("data", "split_half", "data.split_half", None),
    ("data", "split_per_class", "data.split_per_class", None),
    ("data", "save", "data.save", _dataset_mb("data.save.mb")),
    ("data", "load", "data.load", _dataset_mb("data.load.mb")),
    ("data.LabeledDataset", "subset", "data.subset", None),
    ("learners.SoftmaxLearner", "sgd_step", "learners.sgd_step", _sgd_rows),
    ("learners.SoftmaxLearner", "predict_proba", "learners.forward", None),
    ("learners.SoftmaxLearner", "train", "learners.train", None),
    ("learners.Learner", "losses", "learners.losses", None),
    ("learners.KnnLearner", "train", "learners.train", None),
    ("learners.KnnLearner", "predict_proba", "learners.knn", _knn_work),
    ("learners.OracleLearner", "predict_proba", "learners.oracle", None),
    ("selection", "incv", "selection.incv", _incv_work),
    ("selection", "selection_metrics", "selection.selection_metrics", None),
    ("selection", "confusion_matrix", "selection.confusion_matrix", None),
    ("selection", "selection_result_from_json",
     "selection.selection_result_from_json", None),
    ("selection", "write_metrics_csv", "selection.write_metrics_csv", None),
    ("cotraining", "cotrain", "cotraining.cotrain", None),
    ("cotraining", "resolve_eps_s", "cotraining.resolve_eps_s", None),
    ("cotraining", "write_cotrain_csv", "cotraining.write_cotrain_csv", None),
    ("cli", "_simulate_point", "cli.simulate_point", None),
]


# --------------------------------------------------------------------------
# per-iteration analysis


CLI_COMMANDS = ("corrupt", "incv", "cotrain", "report", "simulate")


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def iteration_layers(spans, counters, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration.

    busy is the time inside a span (outermost spans only, where a group
    nests in itself); self is busy minus the part of the span its child
    spans cover, on any thread. Shares are percent of the iteration's
    wall time, summed over threads, so a pool of two can reach 200%.
    Returns (metrics, seconds): the shares and counts for the result line,
    and the same busy and self times in seconds for the printed table.
    """
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] in by_id:
            children[s[4]].append((s[2], s[3]))

    def self_time(s):
        lo, hi = s[2], s[3]
        kids = [(max(a, lo), min(b, hi)) for a, b in children.get(s[0], ())]
        return (hi - lo) - _union_length([k for k in kids if k[1] > k[0]])

    def parent_name(s):
        p = by_id.get(s[4])
        return None if p is None else p[1]

    def group(*names):
        return [s for n in names for s in by_name[n] if parent_name(s) not in names]

    out, seconds = {}, {}
    c = counters

    def timed(key, t):
        """Record t as key_s (seconds) and key_pct (share of wall)."""
        seconds[f"{key}_s"] = t
        out[f"{key}_pct"] = 100.0 * t / wall
        return t

    def busy(key, *names):
        return timed(f"{key}.busy", sum(s[3] - s[2] for s in group(*names)))

    def busy_and_self(key):
        busy(key, key)
        timed(f"{key}.self", sum(self_time(s) for s in group(key)))

    def ratio(a, b):
        return a / b if b else 0.0

    sgd = group("learners.sgd_step")
    out["learners.sgd_step.calls"] = float(len(sgd))
    out["learners.sgd_step.rows"] = c.get("learners.sgd_step.rows", 0.0)
    t = busy("learners.sgd_step", "learners.sgd_step")
    seconds["learners.sgd_step.us_per_call"] = 1e6 * ratio(t, len(sgd))

    forward = by_name["learners.forward"]
    out["learners.forward.calls"] = float(len(forward))
    busy("learners.forward", "learners.forward", "learners.losses")

    t = busy("learners.knn", "learners.knn")
    out["learners.knn.gflop"] = c.get("learners.knn.gflop", 0.0)
    out["learners.knn.gflop_per_s"] = ratio(out["learners.knn.gflop"], t)
    out["learners.knn.block_mb"] = c.get("learners.knn.block_mb", 0.0)
    busy("learners.oracle", "learners.oracle")

    for op in ("data.save", "data.load"):
        t = busy(op, op)
        out[f"{op}.mb"] = c.get(f"{op}.mb", 0.0)
        out[f"{op}.mb_per_s"] = ratio(out[f"{op}.mb"], t)
    out["data.subset.calls"] = float(len(group("data.subset")))
    busy("data.subset", "data.subset")

    busy_and_self("selection.incv")
    out["selection.fold_passes"] = c.get("selection.fold_passes", 0.0)
    out["selection.agreement_base"] = c.get("selection.agreement_base", 0.0)
    out["selection.agreement_rate"] = ratio(c.get("selection.agreed", 0.0),
                                            out["selection.agreement_base"])
    busy("selection.selection_metrics", "selection.selection_metrics")

    busy_and_self("cotraining.cotrain")
    out["cotraining.batches"] = c.get("cotraining.batches", 0.0)
    out["cotraining.rows_ranked"] = c.get("cotraining.rows_ranked", 0.0)
    out["cotraining.kept_fraction"] = ratio(c.get("cotraining.rows_stepped", 0.0),
                                            out["cotraining.rows_ranked"])
    timed("cotraining.eval_busy", sum(
        s[3] - s[2] for s in forward if parent_name(s) == "cotraining.cotrain"))

    out["noise.corrupt_labels.calls"] = float(len(group("noise.corrupt_labels")))
    busy("noise.corrupt_labels", "noise.corrupt_labels")

    for cmd in CLI_COMMANDS:
        busy_and_self(f"cli.{cmd}")

    # Pool threads are observed, not configured: the most distinct threads
    # that ran the points of one simulate command.
    points = by_name["cli.simulate_point"]
    threads, capacity = 0, 0.0
    for cmd in by_name["cli.simulate"]:
        mine = {s[5] for s in points if s[4] == cmd[0]}
        threads = max(threads, len(mine))
        capacity += max(1, len(mine)) * (cmd[3] - cmd[2])
    out["cli.simulate.pool_threads"] = float(threads)
    out["cli.simulate.parallel_efficiency"] = ratio(sum(s[3] - s[2] for s in points),
                                                    capacity)

    for layer in LAYERS:
        timed(f"{layer}.self", sum(self_time(s) for s in spans
                                   if s[1].split(".", 1)[0] == layer))

    out["trace.spans"] = float(len(spans))
    return out, seconds


# Counts that must repeat exactly between iterations and runs on one seed.
DETERMINISTIC = (
    "learners.sgd_step.calls",
    "learners.sgd_step.rows",
    "learners.forward.calls",
    "learners.knn.gflop",
    "learners.knn.block_mb",
    "data.save.mb",
    "data.load.mb",
    "data.subset.calls",
    "selection.fold_passes",
    "selection.agreement_base",
    "cotraining.batches",
    "cotraining.rows_ranked",
    "noise.corrupt_labels.calls",
    "trace.spans",
)
