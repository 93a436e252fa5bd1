"""Synthetic Gaussian-blob datasets, half-splitting, and persistence.

A dataset directory holds three files:

  data.csv       header id,f0,...,f{d-1},observed_label[,true_label];
                 floats written with 17 significant digits so a round trip
                 is bit-exact, labels as base-10 integers
  data.npy       the same rows as one structured array with fields id <i8,
                 f <f8 (d,), observed_label <i8[, true_label <i8], written
                 by np.save without pickles
  manifest.json  {"n", "d", "c", "noise", "blob", "schema_version": 1,
                  "data_csv_sha256", "data_npy_sha256"}

`write_csv` is the CSV table writer and `write_json` the one JSON writer.
`save` writes data.csv in its own fixed row format, byte for byte what
`write_csv` would write for the same rows. Given the directory a dataset
was derived from with its ids and features unchanged (`corrupt` relabels
its input), `save` copies each row's id and feature text from that
directory's data.csv instead of formatting it again, but only after both
of its files match their manifest digests and its data.npy holds the same
ids and feature bits; those rows are then the text `save` wrote for these
very values, so the output bytes do not depend on which path ran.

`load` reads data.npy only when the manifest records both digests and both
files on disk still hash to them, so a data.csv edited after `save`, a
stale or damaged data.npy, or a directory saved without digests is read
from data.csv. That parse is one vectorised np.loadtxt pass and falls back
to a row-by-row parser wherever numpy could read the file differently from
Python's int() and float(); both accept the same files and give the same
arrays. A blank line, a comment line or any other malformed row is rejected
with a SchemaError that names its line.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .noise import NoiseSpec, TransitionMatrix, corrupt_labels, matrix_from_spec

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A dataset file violates the on-disk schema."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class BlobSpec:
    """Gaussian class blobs: means on a seeded sphere of radius `separation`,
    isotropic within-class standard deviation `spread`."""

    c: int
    d: int
    n_per_class: int
    separation: float
    spread: float
    seed: int

    def __post_init__(self):
        if self.c < 2:
            raise ValueError(f"class count must be >= 2, got {self.c}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.n_per_class < 1:
            raise ValueError(f"n_per_class must be >= 1, got {self.n_per_class}")
        if self.separation < 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if self.spread <= 0:
            raise ValueError(f"spread must be > 0, got {self.spread}")

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "d": self.d,
            "n_per_class": self.n_per_class,
            "separation": self.separation,
            "spread": self.spread,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BlobSpec":
        return cls(
            c=int(data["c"]),
            d=int(data["d"]),
            n_per_class=int(data["n_per_class"]),
            separation=float(data["separation"]),
            spread=float(data["spread"]),
            seed=int(data["seed"]),
        )


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with observed labels and, optionally, hidden true labels."""

    features: np.ndarray
    observed_labels: np.ndarray
    ids: np.ndarray
    c: int
    true_labels: Optional[np.ndarray] = None
    noise: Optional[NoiseSpec] = None
    blob: Optional[BlobSpec] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        observed = np.asarray(self.observed_labels, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "observed_labels", observed)
        object.__setattr__(self, "ids", ids)
        if self.true_labels is not None:
            object.__setattr__(
                self, "true_labels", np.asarray(self.true_labels, dtype=np.int64)
            )
        n = features.shape[0]
        for name, vec in (
            ("observed_labels", observed),
            ("ids", ids),
            ("true_labels", self.true_labels),
        ):
            if vec is not None and vec.shape != (n,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({n},)")
        if len(_sorted_unique(ids)) != n:
            raise ValueError("sample ids must be unique")
        for name, vec in (("observed", observed), ("true", self.true_labels)):
            if vec is not None and vec.size and (vec.min() < 0 or vec.max() >= self.c):
                raise ValueError(
                    f"{name} labels must lie in [0, {self.c}), got range "
                    f"[{vec.min()}, {vec.max()}]"
                )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, ids) -> "LabeledDataset":
        """Rows whose id is in `ids`, in the stored row order."""
        if not isinstance(ids, np.ndarray):
            ids = list(ids)
        wanted = _sorted_unique(np.asarray(ids, dtype=np.int64))
        mask = np.isin(self.ids, wanted)
        if mask.sum() != len(wanted):
            raise ValueError(
                f"{len(wanted) - int(mask.sum())} requested ids are not in the dataset"
            )
        return self._take(np.flatnonzero(mask))

    def _take(self, rows: np.ndarray) -> "LabeledDataset":
        return replace(
            self,
            features=self.features[rows],
            observed_labels=self.observed_labels[rows],
            ids=self.ids[rows],
            true_labels=None if self.true_labels is None else self.true_labels[rows],
        )


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by a sort and a neighbour compare, which on numpy
    2.4 is many times faster than np.unique's hash-based path for int64."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def make_blobs(spec: BlobSpec) -> LabeledDataset:
    """Class means drawn deterministically on a sphere, then i.i.d. Gaussian
    samples around each mean. Observed labels start out clean."""
    rng = np.random.default_rng(spec.seed)
    directions = rng.standard_normal((spec.c, spec.d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = spec.separation * directions / norms
    n = spec.c * spec.n_per_class
    true_labels = np.repeat(np.arange(spec.c, dtype=np.int64), spec.n_per_class)
    features = means[true_labels] + spec.spread * rng.standard_normal((n, spec.d))
    return LabeledDataset(
        features=features,
        observed_labels=true_labels.copy(),
        ids=np.arange(n, dtype=np.int64),
        c=spec.c,
        true_labels=true_labels,
        blob=spec,
    )


def corrupt_dataset(
    D: LabeledDataset, spec: NoiseSpec, T: Optional[TransitionMatrix] = None
) -> LabeledDataset:
    """Replace observed labels with draws from the noise process.

    For kind="custom" an explicit matrix must be supplied; the manifest then
    records only the spec, not the matrix.
    """
    if D.true_labels is None:
        raise ValueError("corruption needs true labels")
    if T is None:
        T = matrix_from_spec(spec, D.c)
    elif T.c != D.c:
        raise ValueError(f"matrix has {T.c} classes, dataset has {D.c}")
    observed = corrupt_labels(D.true_labels, T, spec.seed)
    return replace(D, observed_labels=observed, noise=spec)


def split_half(D: LabeledDataset, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Disjoint uniform-random halves; the first gets the extra sample when
    n is odd."""
    if D.n < 2:
        raise ValueError(f"need at least 2 samples to split, got {D.n}")
    perm = np.random.default_rng(seed).permutation(D.n)
    cut = (D.n + 1) // 2
    return D._take(np.sort(perm[:cut])), D._take(np.sort(perm[cut:]))


def split_per_class(
    D: LabeledDataset, per_class: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """First per_class samples of every true class (by id order) vs the rest.

    Blob samples are i.i.d. within a class, so an id-order split is an
    unbiased train/test split without extra randomness.
    """
    if D.true_labels is None:
        raise ValueError("per-class split needs true labels")
    order = np.argsort(D.ids, kind="stable")
    first_rows = []
    for i in range(D.c):
        rows = order[D.true_labels[order] == i]
        if len(rows) < per_class:
            raise ValueError(
                f"class {i} has only {len(rows)} samples, need {per_class}"
            )
        first_rows.append(rows[:per_class])
    first_ids = D.ids[np.concatenate(first_rows)]
    return D.subset(first_ids), D.subset(np.setdiff1d(D.ids, first_ids))


def format_float(x) -> str:
    """17 significant digits: every float64 round-trips exactly."""
    return "%.17g" % x


def write_csv(path: Path, header, rows) -> None:
    """The CSV table writer: float cells (numpy included) with format_float,
    every other cell with str. A None header writes the rows alone."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, (float, np.floating)) else str(v)
                 for v in row]
            )


def write_json(path: Path, payload) -> None:
    """Sorted keys, two-space indent and a final newline."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def save(D: LabeledDataset, path: str | Path, source: str | Path | None = None) -> None:
    """Write data.csv with the bytes write_csv would give the same rows:
    every row has one shape, so one %-format writes them all. Then write
    the same rows to data.npy, and the sha256 of both files to the
    manifest, which `load` checks before it trusts data.npy.

    `source` names a saved dataset directory D was derived from with its
    ids and features unchanged (`corrupt` passes its input). When
    `_source_csv` verifies it, each row is the source data.csv's text up to
    the comma before observed_label, then D's labels. That text is what
    save formatted from these very ids and feature bits, so the bytes are
    those of formatting every row, which save does otherwise."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = (
        ["id"]
        + [f"f{j}" for j in range(D.d)]
        + ["observed_label"]
        + (["true_label"] if D.true_labels is not None else [])
    )
    labels = np.column_stack(
        [D.observed_labels] if D.true_labels is None else [D.observed_labels, D.true_labels]
    )
    spliced = None if source is None else _source_csv(D, path, Path(source))
    with open(path / "data.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if spliced is None:
            fh.writelines(_formatted_rows(D, labels))
        else:
            source_csv, source_labels = spliced
            with open(source_csv, newline="") as src:
                src.readline()  # the source's header; D's was written above
                fh.writelines(_spliced_rows(src, source_labels, labels))
    table = np.empty(D.n, dtype=_npy_dtype(D.d, D.true_labels is not None))
    table["id"] = D.ids
    table["f"] = D.features
    table["observed_label"] = D.observed_labels
    if D.true_labels is not None:
        table["true_label"] = D.true_labels
    np.save(path / "data.npy", table, allow_pickle=False)
    manifest = {
        "n": D.n,
        "d": D.d,
        "c": D.c,
        "noise": D.noise.to_dict() if D.noise is not None else None,
        "blob": D.blob.to_dict() if D.blob is not None else None,
        "schema_version": SCHEMA_VERSION,
        "data_csv_sha256": _sha256(path / "data.csv"),
        "data_npy_sha256": _sha256(path / "data.npy"),
    }
    write_json(path / "manifest.json", manifest)


def _formatted_rows(D: LabeledDataset, labels: np.ndarray):
    """The rows of data.csv, formatted 4096 at a time: tolist() on the whole
    matrix would hold every cell as a Python float at once."""
    fmt = "%d" + ",%.17g" * D.d + ",%d" * labels.shape[1] + "\n"
    for start in range(0, D.n, 4096):
        rows = slice(start, start + 4096)
        for i, x, y in zip(
            D.ids[rows].tolist(), D.features[rows].tolist(), labels[rows].tolist()
        ):
            yield fmt % (i, *x, *y)


def _spliced_rows(src, source_labels: int, labels: np.ndarray):
    """Each row of `src` (source data.csv past its header) without its
    `source_labels` label fields, followed by the fields of `labels`."""
    suffix = ",%d" * labels.shape[1] + "\n"
    for y, line in zip(labels.tolist(), src):
        yield line.rsplit(",", source_labels)[0] + suffix % tuple(y)


def _source_csv(D: LabeledDataset, path: Path, source: Path):
    """(source data.csv, its count of label columns) when the source
    manifest records both digests, both files hash to them (so they are one
    save's output, as `load` trusts too) and its data.npy has D's layout
    and D's ids and features byte for byte, else None. Bytes, not ==:
    -0.0 formats as -0 and 0.0 as 0. Never the data.csv about to be
    written, which opening it for writing would truncate."""
    source_csv, source_npy = source / "data.csv", source / "data.npy"
    dest = path / "data.csv"
    try:
        manifest = json.loads((source / "manifest.json").read_text())
        csv_digest = manifest.get("data_csv_sha256")
        npy_digest = manifest.get("data_npy_sha256")
        if (
            None in (csv_digest, npy_digest)
            or (dest.exists() and dest.samefile(source_csv))
            or _sha256(source_npy) != npy_digest
        ):
            return None
        ids, features, _, true = _read_npy(source_npy, D.n, D.d)
        if (
            ids.tobytes() != D.ids.tobytes()
            or features.tobytes() != D.features.tobytes()
            or _sha256(source_csv) != csv_digest
        ):
            return None
    except (OSError, ValueError):  # ValueError covers json's and _read_npy's SchemaError
        return None
    return source_csv, 1 if true is None else 2


def _npy_dtype(d: int, has_true: bool) -> np.dtype:
    """The row dtype of data.npy, little-endian on every platform."""
    fields = [("id", "<i8"), ("f", "<f8", (d,)), ("observed_label", "<i8")]
    return np.dtype(fields + ([("true_label", "<i8")] if has_true else []))


def _sha256(path: Path) -> str:
    # imported here: hashlib adds about 5 ms to `import labelnoise.cli`,
    # which commands that read no dataset need not pay
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load(path: str | Path) -> LabeledDataset:
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {manifest.get('schema_version')!r}"
        )
    try:
        n, d, c = manifest["n"], manifest["d"], manifest["c"]
    except KeyError as exc:
        raise SchemaError(f"manifest.json: missing field {exc.args[0]!r}") from None
    for key, value, low in (("n", n, 0), ("d", d, 1), ("c", c, 2)):
        # type() rather than isinstance(): JSON true is a bool, which is an int
        if type(value) is not int or value < low:
            raise SchemaError(
                f"manifest.json: field {key!r} must be an integer >= {low}, got {value!r}"
            )
    specs = {}
    for key, spec_type in (("noise", NoiseSpec), ("blob", BlobSpec)):
        try:
            specs[key] = spec_type.from_dict(manifest[key]) if manifest.get(key) else None
        except KeyError as exc:
            raise SchemaError(f"manifest.json: missing field '{key}.{exc.args[0]}'") from None

    csv_path, npy_path = path / "data.csv", path / "data.npy"
    digests = (manifest.get("data_csv_sha256"), manifest.get("data_npy_sha256"))
    recorded = None not in digests and npy_path.exists()
    if recorded and digests == (_sha256(csv_path), _sha256(npy_path)):
        ids, features, observed, true = _read_npy(npy_path, n, d)
    else:
        ids, features, observed, true = _read_csv(csv_path, n, d)

    # value checks run vectorised after the parse; the first bad row names
    # the line (row 0 is line 2, after the header; data.npy holds the rows
    # of data.csv in its order)
    for name, vec in (("observed_label", observed), ("true_label", true)):
        if vec is None:
            continue
        bad = np.flatnonzero((vec < 0) | (vec >= c))
        if len(bad):
            raise SchemaError(
                f"manifest declares c={c} but {name} contains {int(vec[bad[0]])}",
                line=int(bad[0]) + 2,
            )
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        row = features[bad[0]]
        j = int(np.flatnonzero(~np.isfinite(row))[0])
        raise SchemaError(f"feature f{j} is {row[j]}, not finite", line=int(bad[0]) + 2)

    return LabeledDataset(
        features=features,
        observed_labels=observed,
        ids=ids,
        c=c,
        true_labels=true,
        noise=specs["noise"],
        blob=specs["blob"],
    )


def _read_npy(npy_path: Path, n: int, d: int):
    """The columns of data.npy, after checking its dtype against the
    manifest's d and its row count against n."""
    table = np.load(npy_path, allow_pickle=False)
    has_true = table.dtype.names[-1] == "true_label"
    if table.dtype != _npy_dtype(d, has_true):
        raise SchemaError(f"manifest declares d={d} but data.npy has dtype {table.dtype}")
    if table.shape != (n,):
        raise SchemaError(f"manifest declares n={n} but data.npy has shape {table.shape}")
    return (
        table["id"].copy(),
        table["f"].copy(),
        table["observed_label"].copy(),
        table["true_label"].copy() if has_true else None,
    )


def _read_csv(csv_path: Path, n: int, d: int):
    """The columns of data.csv, after checking its header against the
    manifest's d."""
    with open(csv_path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("data.csv is empty", line=1)
        expected = ["id"] + [f"f{j}" for j in range(d)] + ["observed_label"]
        has_true = header == expected + ["true_label"]
        if not has_true and header != expected:
            missing = [col for col in expected if col not in header]
            if missing:
                raise SchemaError(f"missing column(s) {missing}", line=1)
            raise SchemaError(f"unexpected header {header}", line=1)
        columns = _parse_vectorised(fh, n, d, has_true)
    if columns is None:
        columns = _parse_rows(csv_path, n, d, has_true)
    return columns


def _parse_vectorised(fh, n: int, d: int, has_true: bool):
    """The rest of `fh` (the rows of data.csv) in one np.loadtxt pass, or
    None where the row parser must decide: a parse error, or input that
    numpy may read differently from int() and float(). That covers a line
    count other than n, a blank line (loadtxt would skip it, and warn when
    no data is left), a non-ASCII line (numpy reads some letters as digits)
    and the characters \\x1c-\\x1f (numpy strips them as whitespace).
    With those out, each line is one row. At n = 0 loadtxt would warn
    about empty input, so that goes to the row parser too."""
    if n == 0:
        return None

    def lines():
        count = 0
        for line in fh:
            count += 1
            if (
                count > n
                or line.isspace()
                or not line.isascii()
                or "\x1c" in line
                or "\x1d" in line
                or "\x1e" in line
                or "\x1f" in line
            ):
                raise ValueError("left to the row parser")
            yield line
        if count < n:
            raise ValueError("left to the row parser")

    fields = [("id", np.int64), ("f", np.float64, (d,)), ("obs", np.int64)]
    if has_true:
        fields.append(("true", np.int64))
    try:
        table = np.loadtxt(lines(), dtype=fields, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return (
        table["id"].copy(),
        table["f"].copy(),
        table["obs"].copy(),
        table["true"].copy() if has_true else None,
    )


def _parse_rows(csv_path: Path, n: int, d: int, has_true: bool):
    """data.csv row by row with int() and float(); every malformed row
    raises a SchemaError that names its line."""
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, checked by load
        width = d + (3 if has_true else 2)
        ids = np.empty(n, dtype=np.int64)
        features = np.empty((n, d))
        observed = np.empty(n, dtype=np.int64)
        true = np.empty(n, dtype=np.int64) if has_true else None
        t = 0
        for lineno, row in enumerate(reader, start=2):
            if t >= n:
                raise SchemaError(f"more than the {n} rows declared in manifest", line=lineno)
            if len(row) != width:
                raise SchemaError(f"expected {width} fields, got {len(row)}", line=lineno)
            try:
                ids[t] = int(row[0])
                features[t] = [float(v) for v in row[1 : 1 + d]]
                observed[t] = int(row[1 + d])
                if true is not None:
                    true[t] = int(row[2 + d])
            except ValueError as exc:
                raise SchemaError(str(exc), line=lineno) from exc
            t += 1
    if t != n:
        raise SchemaError(f"manifest declares n={n} but data.csv has {t} rows")
    return ids, features, observed, true
