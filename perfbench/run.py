#!/usr/bin/env python3
"""Benchmark of the labelnoise package: desk, scale and simulate workloads.

Run from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each run repeats one iteration of the workload until --seconds have
passed, setting up the inputs from --seed before every iteration (to
time set-up) and checking every iteration's outputs. It prints readable
lines and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 traced and untraced iterations
alternate and the metrics are per layer, from spans recorded around the
calls into each labelnoise module.

The package is imported from src/ beside this directory, never from an
installed copy. Outputs go to .perfbench-out/: the workload's artifacts,
result-<workload>-seed<n>-trace<t>.json with every figure and the
provenance, and, for traced runs, spans-<workload>.csv (the latest run's).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench-out")
MIN_ITERATIONS = 3

# BLAS threads and labelnoise simulate pool threads per workload. Their
# product is capped at the CPUs this process may use: more threads than
# cores slowed simulate by about a quarter and widened desk's spread.
THREADS = {"desk": (1, 1), "scale": (1, 1), "simulate": (1, 2)}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "throughput": "items/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def set_threads(workload: str) -> dict:
    cpus = len(os.sched_getaffinity(0))
    blas, pool = THREADS[workload]
    blas = max(1, min(blas, cpus))
    pool = max(1, min(pool, cpus // blas))
    for var in BLAS_VARS:
        os.environ[var] = str(blas)
    os.environ["LABNOISE_THREADS"] = str(pool)
    return {"cpus": cpus, "blas_threads": blas, "labelnoise_threads": pool,
            **{var: os.environ[var] for var in BLAS_VARS + ("LABNOISE_THREADS",)}}


def import_seconds() -> float:
    """Time to import labelnoise in a fresh interpreter with this environment."""
    code = ("import time; t = time.perf_counter(); import labelnoise.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def provenance(seed: int, threads: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": threads["cpus"],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "commit": git_commit(),
        "seed": seed,
        "tuning": "none: no CPU pinning, no governor change, no cache drops",
    }


def git_commit() -> str:
    """HEAD's commit read from .git, so nothing outside the checkout is read."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "labelnoise" / "__init__.py").is_file():
        print(f"error: no labelnoise package under {SRC}", file=sys.stderr)
        return 2
    threads = set_threads(args.workload)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    import labelnoise
    import tracing
    import workloads

    if Path(labelnoise.__file__).resolve().parent != SRC / "labelnoise":
        print(f"error: imported labelnoise from {labelnoise.__file__}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    setups, untraced, traced, iterations = [], [], [], []
    missing = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        # Set-up is repeated before every iteration, so its median samples
        # the same spread of machine load as the iterations do.
        imported = import_seconds()
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        setups.append(imported + time.perf_counter() - start)
        trace_now = tracer is not None and index % 2 == 1
        workload.reset()
        if trace_now:
            tracer.iteration = index
            missing = tracer.install(labelnoise)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        it = workload.run(inputs, tracer if trace_now else None)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if trace_now:
            tracer.uninstall()
        workload.check(inputs, it)
        if iterations and it.digests != iterations[0].digests:
            it.record("outputs repeat across iterations", False, "artifact digests differ")
        iterations.append(it)
        (traced if trace_now else untraced).append((index, wall, cpu, it.items))
        index += 1
        if args.trace:
            enough = len(traced) >= 2 and len(untraced) >= 2
        else:
            enough = len(untraced) >= MIN_ITERATIONS
        if enough and time.perf_counter() >= deadline:
            break

    walls = [w for _, w, _, _ in untraced]
    run_s = statistics.median(walls)
    first = iterations[0]
    info = {"quality": first.quality, "digests": first.digests,
            "samples": len(walls), "setup_samples": setups,
            "run_samples": walls, "run_s_tail": tail(walls)}

    if args.trace:
        per_iter, table = [], []
        for i, wall, _, _ in traced:
            spans = [s for s in tracer.spans if s[6] == i]
            metrics, seconds = tracing.iteration_layers(spans, tracer.counters[i], wall)
            per_iter.append(metrics)
            table.append(seconds)
        for later in per_iter[1:]:
            for key in tracing.DETERMINISTIC:
                if later[key] != per_iter[0][key]:
                    iterations[-1].record(f"count {key} repeats", False,
                                          f"{later[key]} != {per_iter[0][key]}")
        metrics = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        metrics["trace.run_s"] = statistics.median(w for _, w, _, _ in traced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - run_s
        seconds = {k: statistics.median(t[k] for t in table) for k in table[0]}
        info["layer_seconds"] = seconds
        info["missing_targets"] = missing
        units = {k: _layer_unit(k) for k in metrics}
        tracer.write(OUT / f"spans-{args.workload}.csv")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "cpu_s": statistics.median(c for _, _, c, _ in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput": statistics.median(n / w for _, w, _, n in untraced),
        }
        units = END_TO_END_UNITS

    outcomes = [o for it in iterations for o in it.outcomes]
    failed = [o for o in outcomes if not o[1]]
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    prov = provenance(args.seed, threads)
    report(args, workload, prov, result, info)
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, provenance=prov,
                  info=info, failures=failed)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))
    return 0


def _layer_unit(key: str) -> str:
    suffix = key.rsplit(".", 1)[-1]
    return {
        "calls": "count", "rows": "count", "fold_passes": "count", "batches": "count",
        "agreement_base": "count", "rows_ranked": "count", "pool_threads": "count",
        "spans": "count", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s", "block_mb": "MB",
        "mb": "MB", "mb_per_s": "MB/s", "agreement_rate": "ratio",
        "kept_fraction": "ratio", "parallel_efficiency": "ratio", "run_s": "s",
        "overhead_s": "s",
    }.get(suffix, "%")


def report(args, workload, prov, result, info) -> None:
    """Readable lines before the JSON line: provenance, metrics, checks."""
    print(f"# labelnoise benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("# provenance " + json.dumps(prov, sort_keys=True, default=str))
    for name, m in result["metrics"].items():
        unit = workload.unit if name == "throughput" else m["unit"]
        print(f"{name} {m['value']:.6g} {unit}")
    if not args.trace:
        t = info["run_s_tail"]
        print(f"run_s samples {info['samples']}; tail " + (
            f"p{t[0]:.0f} {t[1]:.6g} s" if t else "undefined below 11 samples"))
    else:
        print("# per-layer busy and self time in seconds, median over traced iterations")
        for name, value in sorted(info["layer_seconds"].items()):
            print(f"{name} {value:.6g} {'us' if name.endswith('us_per_call') else 's'}")
        if info["missing_targets"]:
            print("# not traced (not found): " + ", ".join(info["missing_targets"]))
    for name, value in info["quality"].items():
        print(f"{name} {value:.6g} (informational)")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate {rate:.6g} ({result['failed']} of {result['attempted']} "
          "operations and checks failed)")
    for name, digest in info["digests"].items():
        print(f"sha256 {digest} {name}")


if __name__ == "__main__":
    sys.exit(main())
