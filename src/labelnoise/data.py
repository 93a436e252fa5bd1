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
`json_record` is the one reader of a JSON record read back from disk (the
manifest's noise and blob specs, selection.json's history): it reads each
field with `json_int`, `json_float` or `json_str` by its annotated type and
refuses a value of another type instead of coercing it.
`save` writes data.csv in its own fixed row format, byte for byte what
`write_csv` would write for the same rows ("%d" and "%.17g" cells). It
formats 1,024 rows at a time with numpy arithmetic wherever every cell of
a row is in range: ids and labels in [0, 10**8), and features with
1e-4 <= |x| < 1e15, whose 17 significant digits it computes exactly and
writes in %g's fixed-point form: each cell's digits fill a fixed slot of
bytes, and a keep mask, looked up by sign, exponent and last non-zero
digit, picks its text out. Any other row (one with a 0, a -0, a
subnormal, |x| < 1e-4 or >= 1e15, nan or inf, or an id or label out of
range) is formatted by Python's %, from one tolist() per array. A block
makes one call of each formatter, one on its in-range rows and one on
the rest, and puts each row's line back at its place, so data whose rows
mostly fall back saves about as fast as when every row took %.

`relabel`, `corrupt`'s I/O, reads each file of a saved dataset once: data.npy
through `load`'s digest check, and data.csv a block at a time, hashed from
the very bytes whose id and feature text it copies ahead of the new labels.
That text is what `save` wrote for these ids and feature bits, so the bytes
are those `save` writes. `_write` puts data.csv in place after its last
row, so the input may be the output, and an input data.csv that fails its
digest leaves the output's as it was.

`load` parses data.npy and nothing else, once the manifest records both
digests and both files on disk still hash to them; a directory without
them, without data.npy, or with either file changed since `save` is
refused with a SchemaError that names the file and the cause. data.npy is
read once, and its columns are parsed from the bytes that were hashed.
data.csv is a written export: `load` checks its digest, so a hand edit is
refused rather than ignored, but never parses it. Datasets are changed
with `save`, not by hand.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain, islice
from pathlib import Path
from typing import Optional

import numpy as np

from .noise import NoiseSpec, TransitionMatrix, corrupt_labels, integer_vector, matrix_from_spec

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """A file read back from disk violates its schema, at JSON `field` if named."""

    def __init__(self, message: str, field: Optional[str] = None):
        self.field = field
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
        if not 0 <= self.separation < math.inf:
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")
        if not 0 < self.spread < math.inf:
            raise ValueError(f"spread must be finite and > 0, got {self.spread}")
        if not 0 <= self.seed < 2**63:  # what numpy seeds with and a manifest holds
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "d": self.d,
            "n_per_class": self.n_per_class,
            "separation": self.separation,
            "spread": self.spread,
            "seed": self.seed,
        }


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
        observed = integer_vector(self.observed_labels, "observed_labels")
        ids = integer_vector(self.ids, "ids")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "observed_labels", observed)
        object.__setattr__(self, "ids", ids)
        if self.true_labels is not None:
            object.__setattr__(
                self, "true_labels", integer_vector(self.true_labels, "true_labels")
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
        wanted = _sorted_unique(integer_vector(ids, "ids"))
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
    # means[true_labels] + spread * z with no (n, d) array but z: class i's
    # rows are the i-th block of n_per_class, and float addition commutes
    features = rng.standard_normal((n, spec.d))
    features *= spec.spread
    blocks = features.reshape(spec.c, spec.n_per_class, spec.d)  # a view
    blocks += means[:, None, :]
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
    first = np.zeros(D.n, dtype=bool)  # by row, so both halves keep the stored order
    for i in range(D.c):
        rows = order[D.true_labels[order] == i]
        if len(rows) < per_class:
            raise ValueError(
                f"class {i} has only {len(rows)} samples, need {per_class}"
            )
        first[rows[:per_class]] = True
    return D._take(np.flatnonzero(first)), D._take(np.flatnonzero(~first))


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
    """Sorted keys, two-space indent and a final newline. JSON has no NaN or
    infinity, so a float that is not finite is written as null."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:  # a non-finite float somewhere in payload
        text = json.dumps(_null_non_finite(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n")


def json_int(value) -> int:
    """value as an int, if it is a JSON number (not a bool) that is whole
    and fits int64; int() names a value it cannot read as a number."""
    n = int(value)
    if type(value) not in (int, float) or n != value or not -(2**63) <= n < 2**63:
        raise ValueError(f"{value!r} is not an integer that fits int64")
    return n


def json_float(value) -> float:
    """value as a float, if it is a JSON number (not a bool)."""
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def json_str(value) -> str:
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def _json_int_tuple(value) -> tuple:
    if type(value) is not list:
        raise ValueError(f"{value!r} is not a list of integers")
    return tuple(map(json_int, value))


# json_record's reader of each field type, as written: a string under postponed annotations
_READERS = {
    "int": json_int,
    "float": json_float,
    "str": json_str,
    "Optional[tuple[int, ...]]": lambda v: None if v is None else _json_int_tuple(v),
}


def json_record(cls, payload):
    """The frozen dataclass cls from the JSON object payload, each field read
    by the reader of its annotated type; a field with a default may be absent.
    A missing field raises KeyError(name), a wrong value SchemaError(field=name)."""
    if type(payload) is not dict:
        raise ValueError(f"{payload!r} is not a JSON object")
    values = {}
    for f in fields(cls):
        if f.name in payload or f.default is MISSING:
            try:
                values[f.name] = _READERS[f.type](payload[f.name])
            except (TypeError, ValueError, OverflowError) as exc:  # int() of None, inf
                raise SchemaError(str(exc), field=f.name) from None
    return cls(**values)


def _null_non_finite(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(v) for v in value]
    return value


def save(D: LabeledDataset, path: str | Path) -> None:
    """Write data.csv with the bytes write_csv would give the same rows,
    block by block, by numpy arithmetic where every cell of a row is in
    range and Python's % elsewhere (`_formatted_rows`). Then write the
    same rows to data.npy, and the sha256 of both files to the manifest,
    which `load` checks before it trusts data.npy."""
    labels = (D.observed_labels,) + ((D.true_labels,) if D.true_labels is not None else ())
    _write(D, Path(path), _formatted_rows(D, labels))


def relabel(source: str | Path, out: str | Path, spec: NoiseSpec) -> LabeledDataset:
    """The dataset saved at source with labels redrawn by corrupt_dataset,
    written to out (which may be source) with the bytes save writes, and
    returned; an input that fails a digest raises load's SchemaError."""
    source = Path(source)
    D, manifest = _read(source)
    noisy = corrupt_dataset(D, spec)
    labels = (noisy.observed_labels, noisy.true_labels)
    _write(noisy, Path(out), _spliced_rows(source / "data.csv", manifest, labels))
    return noisy


def _write(D: LabeledDataset, path: Path, rows) -> None:
    """Write D to path: data.csv from its header and `rows` (blocks of
    bytes), through a part file that replaces the old one after the last
    block, then data.npy and the manifest with both files' sha256."""
    path.mkdir(parents=True, exist_ok=True)
    header = (
        ["id"]
        + [f"f{j}" for j in range(D.d)]
        + ["observed_label"]
        + (["true_label"] if D.true_labels is not None else [])
    )
    import hashlib  # see _sha256

    csv_digest = hashlib.sha256()
    part = path / "data.csv.part"
    try:
        with open(part, "wb") as fh:
            # data.csv is hashed as it is written, not read back
            for block in chain([(",".join(header) + "\n").encode()], rows):
                fh.write(block)
                csv_digest.update(block)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path / "data.csv")
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
        "data_csv_sha256": csv_digest.hexdigest(),
        "data_npy_sha256": _sha256(path / "data.npy"),
    }
    write_json(path / "manifest.json", manifest)


# data.csv's cells by numpy arithmetic. Each cell is a row of bytes, its
# slot, holding the cell's text at fixed columns among others, and a keep
# mask picks the text out of the slot.
_ROW_BLOCK = 1024
# ASCII digits of 0..9999, four bytes to a word
_WORDS = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
_WORDS = _WORDS.view(np.uint32).ravel()
# A feature's slot: ",-", the 17 significant digits d0..d16, "0.000" and
# d0..d16 again. "," + "%.17g" % v keeps, in order, "," and "-" if v < 0.
# For exponent exp10 >= 0: the first d0..d{exp10}, and "." and the second
# d{exp10 + 1}.. if a digit follows. For exp10 < 0: "0.", -exp10 - 1 zeros
# and the second d0..
_FLOAT_SLOT = np.frombuffer(b",-" + b"0" * 17 + b"0.000" + b"0" * 17, dtype=np.uint8)
_POW5 = (5 ** np.arange(23)).astype(np.float64)  # exact: 5**22 < 2**53
_POW5_HI = 134217729.0 * _POW5 - (134217729.0 * _POW5 - _POW5)  # Dekker's split
_POW5_LO = _POW5 - _POW5_HI
_POW2 = np.ldexp(1.0, np.arange(23))


def _float_keep():
    """The keep masks of a feature's slot, row (20 * (v < 0) + exp10 + 4) *
    17 + last for exp10 in [-4, 15] and last in [0, 16], d{last} being the
    last non-zero digit: %g strips trailing zeros after the ".", and a bare
    "."."""
    col = np.arange(len(_FLOAT_SLOT))
    neg = np.arange(2)[:, None, None, None]
    exp10 = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[:, None]
    first, second = col - 2, col - 24  # d{first}, d{second}
    keep = (
        (col == 0)
        | (col == 1) & (neg == 1)
        | (0 <= first) & (first <= exp10)
        | (col == 19) & (exp10 < 0)
        | (col == 20) & (exp10 < last)
        | (exp10 < 0) & (21 <= col) & (col < 20 - exp10)
        | (0 <= second) & (exp10 < second) & (second <= last)
    )
    return keep.reshape(-1, len(col))


_FLOAT_KEEP = _float_keep()
# An id's or label's slot is "," and eight digits; KEEP[width] keeps the
# "," and the last width digits
_INT_KEEP = (np.arange(9) == 0) | (np.arange(9) >= 9 - np.arange(9)[:, None])


def _scaled(a: np.ndarray, exp10: np.ndarray) -> np.ndarray:
    """a * 10**(16 - exp10) rounded half to even, exactly. With s = 16 -
    exp10 <= 22, 5**s is a float64, Dekker's TwoProduct splits a * 5**s
    into p + err with no rounding, and scaling both by 2**s keeps them
    exact. Where the sum is a 17-digit number, in [1e16, 1e17), p * 2**s >=
    2**53 is an even integer, so rounding err * 2**s alone rounds the sum."""
    s = 16 - exp10
    t = 134217729.0 * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    hi, lo = _POW5_HI[s], _POW5_LO[s]
    p = a * _POW5[s]
    err = ((a_hi * hi - p) + a_hi * lo + a_lo * hi) + a_lo * lo
    two = _POW2[s]
    return (p * two).astype(np.int64) + np.rint(err * two).astype(np.int64)


def _float_cells(x: np.ndarray):
    """Slots and keep masks, a row per row of x, of the cells "," +
    "%.17g" % v for v in x, every v with 1e-4 <= |v| < 1e15. %g then writes
    the 17 significant digits of |v| in fixed point, trailing zeros and a
    bare "." stripped."""
    a = np.abs(x.ravel())
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    n = _scaled(a, exp10)
    # log10 can miss by one next to a power of ten: move exp10 and redo.
    # Rounding reaches 1e16 from below, or carries to 1e17, only within
    # 5e-17 below a power of ten, and no float64 in range is that close
    redo = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while len(redo):
        exp10[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo] = _scaled(a[redo], exp10[redo])
        redo = redo[(n[redo] < 10**16) | (n[redo] >= 10**17)]
    upper, lower = np.divmod(n, 10**8)
    first, upper = np.divmod(upper, 10**8)
    words = np.empty((len(a), 5), dtype=np.uint32)
    words[:, 0] = _WORDS[first]
    for i, word in enumerate((*np.divmod(upper, 10**4), *np.divmod(lower, 10**4))):
        words[:, 1 + i] = _WORDS[word]
    digits = words.view(np.uint8)[:, 3:]  # d0..d16; d0 is never "0"
    slots = np.empty((len(a), len(_FLOAT_SLOT)), dtype=np.uint8)
    slots[:] = _FLOAT_SLOT
    slots[:, 2:19] = slots[:, 24:] = digits
    last = 16 - np.argmax(digits[:, ::-1] != ord("0"), axis=1)
    keep = np.take(_FLOAT_KEEP, (np.signbit(x.ravel()) * 20 + exp10 + 4) * 17 + last, axis=0)
    shape = (len(x), x.shape[1] * len(_FLOAT_SLOT))
    return slots.reshape(shape), keep.reshape(shape)


def _int_cells(v: np.ndarray):
    """Slots and keep masks, a row per row of v, of the cells "," + "%d" % i
    for i in v, every i in [0, 10**8)."""
    words = _WORDS[np.stack(np.divmod(v.ravel(), 10**4), axis=1)]
    slots = np.empty((len(words), 9), dtype=np.uint8)
    slots[:, 0] = ord(",")
    slots[:, 1:] = words.view(np.uint8)
    width = np.searchsorted(10 ** np.arange(1, 8), v.ravel(), side="right") + 1
    shape = (len(v), v.shape[1] * 9)
    return slots.reshape(shape), np.take(_INT_KEEP, width, axis=0).reshape(shape)


def _formatted_rows(D: LabeledDataset, labels: tuple):
    """The rows of data.csv as bytes, 1,024 rows at a time. In each block,
    rows whose ids and labels are in [0, 10**8) and features in
    1e-4 <= |x| < 1e15 go through `_vectorised_rows` and the rest (0, -0,
    subnormals, nan and inf among them) through `_python_rows`, one call
    each, and each row's line is put back at its place."""
    fmt = "%d" + ",%.17g" * D.d + ",%d" * len(labels) + "\n"
    for start in range(0, D.n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        ids, x = D.ids[rows], D.features[rows]
        y = np.column_stack([col[rows] for col in labels])
        a = np.abs(x)
        ok = (
            (ids >= 0) & (ids < 10**8)
            & ((a >= 1e-4) & (a < 1e15)).all(axis=1)
            & ((y >= 0) & (y < 10**8)).all(axis=1)
        )
        # no cell holds a "\r", so a line is one row
        fast = iter(_vectorised_rows(ids[ok], x[ok], y[ok]).splitlines(keepends=True))
        slow = iter(_python_rows(fmt, ids[~ok], x[~ok], y[~ok]).splitlines(keepends=True))
        yield b"".join([next(fast) if k else next(slow) for k in ok.tolist()])


def _vectorised_rows(ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> bytes:
    """The rows of data.csv for ids, features x and label columns y, all in
    range: the cells go into one array of slots, and the rows are the bytes
    its keep mask picks."""
    cells = (_int_cells(ids[:, None]), _float_cells(x), _int_cells(y),
             (np.full((len(ids), 1), ord("\n"), np.uint8), np.ones((len(ids), 1), bool)))
    slots = np.concatenate([slot for slot, _ in cells], axis=1)
    keep = np.concatenate([mask for _, mask in cells], axis=1)
    keep[:, 0] = False  # the id's ","
    return slots[keep].tobytes()


def _python_rows(fmt: str, ids: np.ndarray, x: np.ndarray, y: np.ndarray) -> bytes:
    """The same rows by Python's %, on Python values: one tolist() per array."""
    return "".join([fmt % (i, *xr, *yr)
                    for i, xr, yr in zip(ids.tolist(), x.tolist(), y.tolist())]).encode()


def _spliced_rows(source_csv: Path, manifest: dict, labels: tuple):
    """The rows of the saved data.csv at source_csv, each without its two
    label fields and followed by the fields of `labels`, 1,024 rows to a
    block of bytes; read once, hashed as read, and checked against the
    manifest's digest after the last block."""
    import hashlib  # see _sha256

    digest = hashlib.sha256()
    suffix = b",%d" * len(labels) + b"\n"
    with open(source_csv, "rb") as src:
        digest.update(src.readline())  # the header; _write writes its own
        rows = zip(zip(*(col.tolist() for col in labels)), src)
        while block := list(islice(rows, _ROW_BLOCK)):
            digest.update(b"".join([line for _, line in block]))
            yield b"".join([line.rsplit(b",", 2)[0] + suffix % y for y, line in block])
        digest.update(src.read())  # nothing follows the n rows of a saved file
    _check_digest(source_csv, manifest, digest.hexdigest())


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
    D, manifest = _read(path)
    _check_digest(path / "data.csv", manifest, _sha256(path / "data.csv"))
    return D


def _read(path: Path) -> tuple[LabeledDataset, dict]:
    """The dataset at path and its manifest, once the manifest is valid and
    data.npy matches its digest; checking data.csv's is the caller's."""
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise SchemaError(f"{manifest_path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise SchemaError(f"{manifest_path}: not a JSON object")
    version = manifest.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not true, not 1.0
        raise SchemaError(f"unsupported schema_version {version!r}")
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
    for key, cls in (("noise", NoiseSpec), ("blob", BlobSpec)):
        try:
            specs[key] = None if manifest.get(key) is None else json_record(cls, manifest[key])
        except KeyError as exc:
            raise SchemaError(f"manifest.json: missing field '{key}.{exc.args[0]}'") from None
        except ValueError as exc:  # a value of the wrong type, not an object, or out of range
            field = f"{key}.{exc.field}" if isinstance(exc, SchemaError) else key
            raise SchemaError(f"manifest.json: field {field!r}: {exc}") from None

    ids, features, observed, true = _verified_npy(path, manifest, n, d)

    # value checks run vectorised after the parse; the first bad row is
    # named by its index and its id
    for name, vec in (("observed_label", observed), ("true_label", true)):
        if vec is None:
            continue
        bad = np.flatnonzero((vec < 0) | (vec >= c))
        if len(bad):
            row = int(bad[0])
            raise SchemaError(
                f"data.npy row {row} (id {ids[row]}): "
                f"manifest declares c={c} but {name} contains {vec[row]}"
            )
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        row = int(bad[0])
        j = int(np.flatnonzero(~np.isfinite(features[row]))[0])
        raise SchemaError(
            f"data.npy row {row} (id {ids[row]}): feature f{j} is {features[row, j]}, not finite"
        )

    return LabeledDataset(
        features=features,
        observed_labels=observed,
        ids=ids,
        c=c,
        true_labels=true,
        noise=specs["noise"],
        blob=specs["blob"],
    ), manifest


_BY_HAND = "; datasets are changed with labelnoise.save, not by hand"


def _check_digest(file: Path, manifest: dict, digest: str) -> None:
    """A SchemaError unless digest is the sha256 the manifest records for file."""
    key = file.name.replace(".", "_") + "_sha256"
    if digest != manifest[key]:
        raise SchemaError(f"{file}: sha256 does not match manifest.json's {key}{_BY_HAND}")


def _verified_npy(path: Path, manifest: dict, n: int, d: int):
    """The columns of path's data.npy, once the manifest records both
    digests and data.npy hashes to its own; otherwise a SchemaError names
    the file and the cause. data.npy is read once, and its columns come
    from the bytes that were hashed, so a file replaced after the check is
    never parsed. Its header must give the manifest's d and n, or a
    SchemaError says which differs."""
    for key in ("data_npy_sha256", "data_csv_sha256"):
        if key not in manifest:
            raise SchemaError(f"manifest.json: missing field {key!r}{_BY_HAND}")
    try:
        raw = (path / "data.npy").read_bytes()
    except FileNotFoundError:
        raise SchemaError(f"{path / 'data.npy'}: no such file{_BY_HAND}") from None
    import hashlib  # see _sha256

    _check_digest(path / "data.npy", manifest, hashlib.sha256(raw).hexdigest())
    fh = io.BytesIO(raw)
    if np.lib.format.read_magic(fh) == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
    has_true = dtype == _npy_dtype(d, True)
    if not has_true and dtype != _npy_dtype(d, False):
        raise SchemaError(f"manifest declares d={d} but data.npy has dtype {dtype}")
    if shape != (n,):
        raise SchemaError(f"manifest declares n={n} but data.npy has shape {shape}")
    table = np.frombuffer(raw, dtype=dtype, count=n, offset=fh.tell())
    return (
        table["id"].copy(),
        table["f"].copy(),
        table["observed_label"].copy(),
        table["true_label"].copy() if has_true else None,
    )

