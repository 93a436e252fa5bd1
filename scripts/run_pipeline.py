#!/usr/bin/env python3
"""Noisy-label robustness experiment: naive training vs select-then-cotrain.

Runs labelnoise.pipeline seed by seed, at its DESK parameters unless an
option overrides one, writes one CSV row per seed and prints the margin
summary. Exits 0 when every margin is positive, 1 otherwise or on an error.

Typical invocation:
    python3 scripts/run_pipeline.py --seeds 1 2 3 4 5 --out pipeline.csv
"""

import argparse
import sys
import time
from pathlib import Path

from labelnoise import pipeline
from labelnoise.data import write_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    for name, default in pipeline.DESK.items():
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    parser.add_argument("--out", default=None, help="summary CSV path")
    args = parser.parse_args(argv)
    params = {name: getattr(args, name) for name in pipeline.DESK}

    try:
        rows = []
        for seed in args.seeds:
            started = time.monotonic()
            [row] = pipeline.run_seeds(params, [(seed, *pipeline.seed_data(params, seed))])
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
            header = [key for key in rows[0] if key != "selected"]
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            write_csv(args.out, header, [[row[key] for key in header] for row in rows])
            print(f"wrote {args.out}")
    except (ValueError, OSError, RuntimeError) as exc:  # the errors labelnoise exits 1 on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if min(margins) > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
