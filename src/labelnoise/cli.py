"""Command-line front end producing reproducible CSV/JSON experiment artifacts.

Every run writes a resolved_config.json capturing the exact parameter
values used (defaults included), and identical arguments always produce
byte-identical output files. Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import data as data_mod
from .cotraining import CoTrainConfig, cotrain, resolve_eps_s
from .data import format_float, json_float, write_csv, write_json
from .learners import (
    KnnLearner,
    OracleLearner,
    TrainConfig,
    knn_factory,
    oracle_factory,
    softmax_factory,
)
from .noise import NoiseSpec, actual_noise_ratio, matrix_from_spec
from .selection import (
    confusion_matrix,
    incv,
    selection_metrics,
    selection_result_from_json,
)
from .theory import theory_curve, theory_point

THEORY_CSV_HEADER = ["kind", "c", "epsilon", "accuracy", "lp", "lr", "eps_s"]

SIMULATE_CSV_HEADER = [
    "kind", "c", "d", "n", "epsilon",
    "acc_emp", "acc_theory", "acc_dev",
    "lp_emp", "lp_theory", "lp_dev",
    "lr_emp", "lr_theory", "lr_dev",
    "m_dev",
]

REPORT_CSV_HEADER = [
    "run", "lp", "lr", "eps_s", "epsilon_hat", "acc_f1", "acc_f2", "best_acc",
]


class UsageError(ValueError):
    pass


MAX_GRID_POINTS = 10**6


def parse_grid(text: str) -> list[float]:
    """Noise-ratio grids: 'a:b:step' (inclusive), 'x,y,z', or one value.

    Values are rounded to 12 decimals so a step grid lands on exact
    figures like 0.05 rather than accumulated float error. A value that is
    not a finite number, or a range of more than MAX_GRID_POINTS points, is
    a UsageError raised before any point is made.
    """
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid range must be start:stop:step, got {text!r}")
        start, stop, step = (_grid_value(p) for p in parts)
        if step <= 0:
            raise UsageError(f"--grid step must be > 0, got {step}")
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:  # also catches an overflow to inf
            raise UsageError(f"--grid {text!r} has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        if count < 1:
            return []
        values = [start + i * step for i in range(count)]
    else:
        values = [_grid_value(p) for p in text.split(",") if p.strip()]
    return [float(np.round(v, 12)) for v in values]


def _grid_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--grid value {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise UsageError(f"--grid value {text.strip()!r} is not finite")
    return value


def _write_resolved_config(out: Path, args: argparse.Namespace) -> None:
    payload = {
        k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    }
    write_json(out / "resolved_config.json", payload)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_json(path: Path):
    """The JSON value in path, or a ValueError that names the file."""
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_table(out: Path, name: str, fmt: str, header, rows) -> None:
    """Write rows as out/<name>.csv, or with fmt "json" as out/<name>.json,
    a list of one header-keyed object per row."""
    if fmt == "csv":
        write_csv(out / f"{name}.csv", header, rows)
    else:
        write_json(out / f"{name}.json", [dict(zip(header, r)) for r in rows])


# --------------------------------------------------------------------------
# corrupt


def cmd_corrupt(args) -> int:
    mapping = None
    if args.mapping is not None:
        if args.noise != "asymmetric":
            raise UsageError(f"--mapping applies only to --noise asymmetric, not {args.noise}")
        try:
            mapping = tuple(int(p) for p in args.mapping.split(","))
        except ValueError:
            raise UsageError(
                f"--mapping must be comma-separated class indices, got {args.mapping!r}"
            ) from None
    spec = NoiseSpec(kind=args.noise, ratio=args.ratio, mapping=mapping, seed=args.seed)
    out = Path(args.out)
    noisy = data_mod.relabel(args.in_dir, out, spec)
    _write_resolved_config(out, args)
    realized = actual_noise_ratio(noisy.observed_labels, noisy.true_labels)
    print(f"realized noise ratio: {format_float(realized)}")
    return 0


# --------------------------------------------------------------------------
# theory


def cmd_theory(args) -> int:
    grid = parse_grid(args.grid)
    points = theory_curve(args.kind, args.classes, grid)
    out = _out_dir(args)
    rows = [
        [args.kind, p.c, p.epsilon, p.accuracy, p.lp, p.lr, p.eps_s] for p in points
    ]
    _write_table(out, "theory", args.format, THEORY_CSV_HEADER, rows)
    _write_resolved_config(out, args)
    print(f"wrote {len(points)} theory points to {out}")
    return 0


# --------------------------------------------------------------------------
# simulate


def _simulate_point(args, eps: float, index: int):
    kind, c, d = args.kind, args.classes, args.dims
    spec = NoiseSpec(kind=kind, ratio=eps, seed=args.seed + 7919 * index + 1)
    T = matrix_from_spec(spec, c)
    point = theory_point(kind, c, eps)
    per_class = args.samples // c
    # the 1-NN learner trains on another per_class samples of each class
    blob = data_mod.BlobSpec(
        c=c, d=d, n_per_class=per_class if args.learner == "oracle" else 2 * per_class,
        separation=args.separation, spread=args.spread,
        seed=args.seed + 7919 * index,
    )
    D = data_mod.corrupt_dataset(data_mod.make_blobs(blob), spec, T)
    if args.learner == "oracle":
        model = OracleLearner(T, seed=args.seed + 7919 * index + 2)
        pred = model.predict_labels(D.features, D.true_labels)
    else:
        train, D = data_mod.split_per_class(D, per_class)
        model = KnnLearner().train(train)
        pred = model.predict_labels(D.features)

    agree = pred == D.observed_labels
    acc_emp = float(agree.mean())
    metrics = selection_metrics(D.ids[agree], D) if agree.any() else None
    lp_emp = metrics.lp if metrics else float("nan")
    lr_emp = metrics.lr if metrics else float("nan")
    M, _ = confusion_matrix(pred, D.true_labels, c)
    m_dev = float(np.max(np.abs(M - T.entries)))
    row = {
        "kind": kind, "c": c, "d": d, "n": D.n, "epsilon": eps,
        "acc_emp": acc_emp, "acc_theory": point.accuracy,
        "acc_dev": abs(acc_emp - point.accuracy),
        "lp_emp": lp_emp, "lp_theory": point.lp, "lp_dev": abs(lp_emp - point.lp),
        "lr_emp": lr_emp, "lr_theory": point.lr, "lr_dev": abs(lr_emp - point.lr),
        "m_dev": m_dev,
    }
    return row, M


def cmd_simulate(args) -> int:
    if args.samples < args.classes:
        raise UsageError(f"--samples must be at least --classes, got {args.samples}")
    grid = parse_grid(args.grid)
    env = os.environ.get("LABNOISE_THREADS")
    try:
        threads = int(env) if env else (os.cpu_count() or 1)
    except ValueError:
        raise UsageError(f"LABNOISE_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise UsageError(f"LABNOISE_THREADS must be an integer >= 1, got {env!r}")
    threads = min(threads, max(1, len(grid)))
    # pool.map yields results in grid order whatever the thread count
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda ie: _simulate_point(args, ie[1], ie[0]), enumerate(grid)))

    out = _out_dir(args)
    rows = [r for r, _ in results]
    _write_table(
        out, "simulate", args.format, SIMULATE_CSV_HEADER,
        [[row[k] for k in SIMULATE_CSV_HEADER] for row in rows],
    )
    for i, (_, M) in enumerate(results):
        write_csv(out / f"confusion_{i:03d}.csv", None, M)
    _write_resolved_config(out, args)
    if rows:
        print(
            "max deviations: accuracy %s lp %s lr %s confusion %s"
            % tuple(
                format_float(max(row[k] for row in rows))
                for k in ("acc_dev", "lp_dev", "lr_dev", "m_dev")
            )
        )
    else:
        print("empty grid; wrote headers only")
    return 0


# --------------------------------------------------------------------------
# selection commands


def _learner_factory(args, D):
    if args.learner == "oracle":
        if D.noise is None:
            raise ValueError(
                "oracle learner needs the dataset manifest to record its noise spec"
            )
        return oracle_factory(matrix_from_spec(D.noise, D.c))
    if args.learner == "knn":
        return knn_factory()
    cfg = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
    )
    return softmax_factory(D.c, D.d, cfg, args.hidden)


def _run_selection(args, iterations: int, remove_ratio) -> int:
    D = data_mod.load(Path(args.in_dir))
    factory = _learner_factory(args, D)
    result = incv(
        D,
        factory,
        iterations=iterations,
        remove_ratio=remove_ratio,
        seed=args.seed,
        noise_kind=args.noise_kind,
    )
    out = _out_dir(args)
    write_json(out / "selection.json", result.to_json_dict())
    if D.true_labels is not None and len(result.selected) > 0:
        m = selection_metrics(result.selected, D)
        rows = [[out.name, "all", m.lp, m.lr, m.eps_s]]
        rows += [
            [out.name, i, lp_i, lr_i, 1.0 - lp_i]
            for i, (lp_i, lr_i) in enumerate(zip(m.lp_i, m.lr_i))
        ]
        write_csv(out / "metrics.csv", ["experiment", "class", "lp", "lr", "eps_s"], rows)
    _write_resolved_config(out, args)
    print(
        f"selected {len(result.selected)} of {D.n} samples; "
        f"estimated noise ratio {format_float(result.epsilon_hat)}"
    )
    if result.halt_reason is not None:
        warnings.warn(result.halt_reason)
    return 0


def cmd_ncv(args) -> int:
    return _run_selection(args, iterations=1, remove_ratio=0.0)


def cmd_incv(args) -> int:
    ratio = args.remove_ratio
    if ratio != "auto":
        try:
            ratio = float(ratio)
        except ValueError:
            raise UsageError(f"--remove-ratio must be 'auto' or a number, got {ratio!r}")
        if not 0 <= ratio < math.inf:
            raise UsageError(f"--remove-ratio must be finite and >= 0, got {args.remove_ratio}")
    return _run_selection(args, iterations=args.iterations, remove_ratio=ratio)


# --------------------------------------------------------------------------
# cotrain


def cmd_cotrain(args) -> int:
    try:
        decay_epochs = tuple(int(e) for e in args.decay_epochs.split(",") if e.strip())
    except ValueError:
        raise UsageError(
            f"--decay-epochs must be comma-separated epochs, got {args.decay_epochs!r}"
        ) from None
    selection_path = Path(args.selection)
    if not selection_path.is_file():
        raise UsageError(f"selection JSON not found: {selection_path}")
    payload = _read_json(selection_path)
    try:
        result = selection_result_from_json(payload)
    except ValueError as exc:
        raise ValueError(f"{exc} in {selection_path}") from None
    D = data_mod.load(Path(args.in_dir))
    S = D.subset(result.selected)
    C = D.subset(result.candidate) if len(result.candidate) else None
    clean_test = data_mod.load(Path(args.test)) if args.test else None
    if clean_test is not None and (clean_test.c, clean_test.d) != (D.c, D.d):
        raise ValueError(
            f"test set has (c, d) = ({clean_test.c}, {clean_test.d}), "
            f"training set has ({D.c}, {D.d})"
        )

    if args.eps_s is not None:
        eps_s, source = args.eps_s, "given"
    else:
        eps_s, source = resolve_eps_s(
            result.selected, D, result.epsilon_hat, args.noise_kind
        )
    cfg = CoTrainConfig(
        warmup_epochs=args.warmup,
        total_epochs=args.epochs,
        base_batch=args.batch,
        eps_s=eps_s,
        seed=args.seed,
        learning_rate=args.lr,
        decay_factor=args.decay_factor,
        decay_epochs=decay_epochs,
    )
    step_cfg = TrainConfig(epochs=1, batch_size=args.batch, learning_rate=args.lr)
    factory = softmax_factory(D.c, D.d, step_cfg, args.hidden)
    f1, f2, report = cotrain(
        S, C, cfg, factory, clean_test=clean_test, eps_s_source=source
    )
    out = _out_dir(args)
    write_csv(
        out / "cotrain.csv",
        ["epoch", "n_e", "acc_f1", "acc_f2", "c_samples_used"],
        ([r.epoch, r.n_e, r.acc_f1, r.acc_f2, r.c_samples_used] for r in report.records),
    )
    last = report.records[-1]
    write_json(
        out / "final.json",
        {
            "acc_f1": last.acc_f1,
            "acc_f2": last.acc_f2,
            "best_acc": max(last.acc_f1, last.acc_f2),
            "eps_s": report.eps_s,
            "eps_s_source": report.eps_s_source,
            "epochs": len(report.records),
        },
    )
    _write_resolved_config(out, args)
    print(
        f"final clean-test accuracy: f1 {format_float(last.acc_f1)} "
        f"f2 {format_float(last.acc_f2)}"
    )
    return 0


# --------------------------------------------------------------------------
# report


def _field(record, key: str, path: Path):
    if not isinstance(record, dict):
        raise ValueError(f"{path}: field {key!r} needs a JSON object, got {type(record).__name__}")
    value = record.get(key)
    if value is None:
        raise ValueError(f"{path}: missing field {key!r}")
    return value


def _number(record, key: str, path: Path) -> float:
    # write_json writes NaN as null; an absent key stays a missing field
    if path.suffix == ".json" and isinstance(record, dict) and record.get(key, 0) is None:
        return math.nan
    value = _field(record, key, path)
    try:  # a metrics.csv cell is text
        return json_float(value) if path.suffix == ".json" else float(value)
    except ValueError:
        raise ValueError(f"{path}: field {key!r} is not a number: {value!r}") from None


def _run_summary(run: Path) -> dict:
    row = {k: float("nan") for k in REPORT_CSV_HEADER[1:]}
    metrics_path = run / "metrics.csv"
    if metrics_path.is_file():
        with open(metrics_path, newline="") as fh:
            for rec in csv.DictReader(fh):
                if _field(rec, "class", metrics_path) == "all":
                    for k in ("lp", "lr", "eps_s"):
                        row[k] = _number(rec, k, metrics_path)
    selection_path = run / "selection.json"
    if selection_path.is_file():
        selection = _read_json(selection_path)
        row["epsilon_hat"] = _number(selection, "epsilon_hat", selection_path)
    final_path = run / "final.json"
    if final_path.is_file():
        final = _read_json(final_path)
        for k in ("acc_f1", "acc_f2", "best_acc"):
            row[k] = _number(final, k, final_path)
    return row


def cmd_report(args) -> int:
    rows = []
    for run in args.runs:
        run_path = Path(run)
        if not run_path.is_dir():
            raise UsageError(f"run directory not found: {run}")
        rows.append({"run": run_path.name, **_run_summary(run_path)})
    out = _out_dir(args)
    _write_table(
        out, "report", args.format, REPORT_CSV_HEADER,
        [[row[k] for k in REPORT_CSV_HEADER] for row in rows],
    )
    _write_resolved_config(out, args)
    print(f"merged {len(rows)} runs into {out}")
    return 0


# --------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument(
        "--strict", action="store_true", help="escalate warnings to exit code 1"
    )


def _add_format(sub: argparse.ArgumentParser) -> None:
    """--format, for the commands that write one table: theory, simulate, report."""
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="tabular output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelnoise",
        description="Label-noise theory checks, clean-sample selection, and co-training.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("corrupt", help="apply label noise to a saved dataset")
    p.add_argument("--in", dest="in_dir", required=True, help="input dataset directory")
    p.add_argument("--noise", choices=("symmetric", "asymmetric"), required=True)
    p.add_argument("--ratio", type=float, required=True, help="noise ratio")
    p.add_argument(
        "--mapping",
        default=None,
        help="asymmetric target permutation as comma-separated class list",
    )
    _add_common(p)
    p.set_defaults(func=cmd_corrupt)

    p = subs.add_parser("theory", help="closed-form accuracy/LP/LR curves")
    p.add_argument("--kind", choices=("symmetric", "asymmetric"), required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--grid", required=True, help="a:b:step, x,y,z, or one value")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_theory)

    p = subs.add_parser(
        "simulate", help="Monte Carlo check of the formulas with oracle or 1-NN"
    )
    p.add_argument("--learner", choices=("oracle", "knn"), default="oracle")
    p.add_argument("--kind", choices=("symmetric", "asymmetric"), default="symmetric")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dims", type=int, default=10)
    p.add_argument("--samples", type=int, default=100000, help="evaluation sample count")
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--grid", required=True)
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_simulate)

    for name, help_text in (
        ("ncv", "single-pass cross-validation selection"),
        ("incv", "iterative cross-validation selection"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--in", dest="in_dir", required=True)
        p.add_argument("--learner", choices=("oracle", "knn", "softmax"), default="oracle")
        p.add_argument("--epochs", type=int, default=20)
        p.add_argument("--batch", type=int, default=32)
        p.add_argument("--lr", type=float, default=0.3)
        p.add_argument("--hidden", type=int, default=None)
        p.add_argument(
            "--noise-kind",
            choices=("symmetric", "asymmetric"),
            default="symmetric",
            help="accuracy inversion used for the noise-ratio estimate",
        )
        if name == "incv":
            p.add_argument("--iterations", type=int, default=4)
            p.add_argument("--remove-ratio", default="auto")
        _add_common(p)
        p.set_defaults(func=cmd_incv if name == "incv" else cmd_ncv)

    p = subs.add_parser("cotrain", help="co-train two learners on a selection")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--selection", required=True, help="selection.json from ncv/incv")
    p.add_argument("--test", default=None, help="clean test dataset directory")
    p.add_argument("--warmup", type=int, default=20)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.3)
    p.add_argument("--decay-factor", type=float, default=0.1)
    p.add_argument("--decay-epochs", default="")
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--eps-s", type=float, default=None)
    p.add_argument(
        "--noise-kind", choices=("symmetric", "asymmetric"), default="symmetric"
    )
    _add_common(p)
    p.set_defaults(func=cmd_cotrain)

    p = subs.add_parser("report", help="merge run artifacts into one comparison table")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # records every warning the command raises, simulate's pool threads
    # included (the warning filters are process-wide); each distinct
    # message is printed once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), None
        except UsageError as exc:
            code, error = 2, exc
        except (ValueError, OSError, RuntimeError) as exc:  # incl. SchemaError, DivergenceError
            code, error = 1, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    elif caught and args.strict:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
