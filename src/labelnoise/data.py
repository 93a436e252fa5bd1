"""Synthetic Gaussian-blob datasets, half-splitting, and CSV persistence.

A dataset directory holds two files:

  data.csv       header id,f0,...,f{d-1},observed_label[,true_label];
                 floats written with 17 significant digits so a round trip
                 is bit-exact, labels as base-10 integers
  manifest.json  {"n", "d", "c", "noise", "blob", "schema_version": 1}
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
        if len(np.unique(ids)) != n:
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
        wanted = np.unique(np.asarray(list(ids), dtype=np.int64))
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


def save(D: LabeledDataset, path: str | Path) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    header = (
        ["id"]
        + [f"f{j}" for j in range(D.d)]
        + ["observed_label"]
        + (["true_label"] if D.true_labels is not None else [])
    )
    with open(path / "data.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t in range(D.n):
            row = [str(int(D.ids[t]))]
            row += [f"{v:.17g}" for v in D.features[t]]
            row.append(str(int(D.observed_labels[t])))
            if D.true_labels is not None:
                row.append(str(int(D.true_labels[t])))
            writer.writerow(row)
    manifest = {
        "n": D.n,
        "d": D.d,
        "c": D.c,
        "noise": D.noise.to_dict() if D.noise is not None else None,
        "blob": D.blob.to_dict() if D.blob is not None else None,
        "schema_version": SCHEMA_VERSION,
    }
    with open(path / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    n, d, c = int(manifest["n"]), int(manifest["d"]), int(manifest["c"])

    with open(path / "data.csv", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("data.csv is empty", line=1)
        expected = ["id"] + [f"f{j}" for j in range(d)] + ["observed_label"]
        has_true = header == expected + ["true_label"]
        if not has_true and header != expected:
            missing = [col for col in expected if col not in header]
            if missing:
                raise SchemaError(f"missing column(s) {missing}", line=1)
            raise SchemaError(f"unexpected header {header}", line=1)

        width = len(expected) + (1 if has_true else 0)
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

    # value checks run vectorised after the parse; the first bad row names
    # the line (row 0 is line 2, after the header)
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

    noise = manifest.get("noise")
    blob = manifest.get("blob")
    return LabeledDataset(
        features=features,
        observed_labels=observed,
        ids=ids,
        c=c,
        true_labels=true,
        noise=NoiseSpec.from_dict(noise) if noise else None,
        blob=BlobSpec.from_dict(blob) if blob else None,
    )
