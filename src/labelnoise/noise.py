"""Noise transition matrices and label corruption.

A transition matrix T is row-stochastic with T[i][j] = P(observed=j | true=i).
Symmetric noise spreads ratio eps uniformly over the c-1 wrong classes;
asymmetric noise sends all of eps to one designated wrong class per source
class. Corruption draws each observed label independently from the row of
the sample's true class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic c x c matrix of label-corruption probabilities."""

    c: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        if self.c < 2:
            raise ValueError(f"class count must be >= 2, got {self.c}")
        if entries.shape != (self.c, self.c):
            raise ValueError(f"expected shape {(self.c, self.c)}, got {entries.shape}")
        if np.any(entries < 0.0) or np.any(entries > 1.0):
            raise ValueError("transition entries must lie in [0, 1]")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(
                f"row {worst} sums to {row_sums[worst]!r}, not 1 within {ROW_SUM_TOL}"
            )

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def row_cdf(self) -> np.ndarray:
        """Per-row cumulative sums used for inverse-CDF sampling."""
        return np.cumsum(self.entries, axis=1)

    def draw(self, labels: np.ndarray, u: np.ndarray) -> np.ndarray:
        """For each label i, the class j whose interval of row i of
        `row_cdf()` holds that label's uniform: a draw from T[i]. The
        caller supplies u; labels outside [0, c) are refused."""
        if labels.size and not 0 <= labels.min() <= labels.max() < self.c:
            raise ValueError(f"labels must lie in [0, {self.c}), got range "
                             f"[{labels.min()}, {labels.max()}]")
        cdf = self.row_cdf()
        out = np.empty(len(labels), dtype=np.int64)
        for i in range(self.c):
            mask = labels == i
            # side="right" maps u < T[i,0] to class 0, etc.; clip guards the
            # case where the cumulative sum falls a few ulp short of 1.
            out[mask] = np.searchsorted(cdf[i], u[mask], side="right")
        return np.clip(out, 0, self.c - 1, out=out)


@dataclass(frozen=True)
class NoiseSpec:
    """Serializable description of a corruption process.

    `mapping` is only used for asymmetric noise: mapping[i] is the wrong
    class that receives all of the noise mass of source class i, and must
    be a fixed-point-free permutation.
    """

    kind: str  # "symmetric" | "asymmetric" | "custom"
    ratio: float
    mapping: Optional[tuple[int, ...]] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric", "custom"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"noise ratio must be in [0, 1], got {self.ratio}")
        if self.mapping is not None:
            object.__setattr__(self, "mapping", tuple(int(m) for m in self.mapping))
            _check_permutation_no_fixed_points(self.mapping)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "ratio": self.ratio,
            "mapping": list(self.mapping) if self.mapping is not None else None,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseSpec":
        mapping = data.get("mapping")
        return cls(
            kind=data["kind"],
            ratio=float(data["ratio"]),
            mapping=tuple(mapping) if mapping is not None else None,
            seed=int(data.get("seed", 0)),
        )


def _check_permutation_no_fixed_points(mapping: Sequence[int]) -> None:
    c = len(mapping)
    if sorted(mapping) != list(range(c)):
        raise ValueError(f"mapping {list(mapping)} is not a permutation of 0..{c - 1}")
    fixed = [i for i, m in enumerate(mapping) if m == i]
    if fixed:
        raise ValueError(f"mapping has fixed points at {fixed}")


def cyclic_mapping(c: int) -> tuple[int, ...]:
    """Default asymmetric target assignment: class i -> (i + 1) mod c."""
    return tuple((i + 1) % c for i in range(c))


def symmetric_matrix(c: int, eps: float) -> TransitionMatrix:
    """Diagonal 1 - eps, every off-diagonal entry eps / (c - 1)."""
    if c < 2:
        raise ValueError(f"class count must be >= 2, got {c}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"noise ratio must be in [0, 1], got {eps}")
    if eps >= (c - 1) / c:
        warnings.warn(
            f"symmetric ratio {eps} >= (c-1)/c = {(c - 1) / c}: "
            "diagonal is no longer the strict row maximum",
            stacklevel=2,
        )
    entries = np.full((c, c), eps / (c - 1))
    np.fill_diagonal(entries, 1.0 - eps)
    return TransitionMatrix(c=c, entries=entries)


def asymmetric_matrix(
    c: int, eps: float, mapping: Optional[Sequence[int]] = None
) -> TransitionMatrix:
    """Diagonal 1 - eps, entry (i, mapping[i]) = eps, zero elsewhere."""
    if c < 2:
        raise ValueError(f"class count must be >= 2, got {c}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"noise ratio must be in [0, 1], got {eps}")
    if mapping is None:
        mapping = cyclic_mapping(c)
    if len(mapping) != c:
        raise ValueError(f"mapping length {len(mapping)} != class count {c}")
    _check_permutation_no_fixed_points(mapping)
    if eps >= 0.5:
        warnings.warn(
            f"asymmetric ratio {eps} >= 0.5: diagonal is no longer the strict row maximum",
            stacklevel=2,
        )
    entries = np.zeros((c, c))
    np.fill_diagonal(entries, 1.0 - eps)
    for i, j in enumerate(mapping):
        entries[i, int(j)] = eps
    return TransitionMatrix(c=c, entries=entries)


def matrix_from_spec(spec: NoiseSpec, c: int) -> TransitionMatrix:
    """Build the transition matrix a NoiseSpec describes.

    Custom matrices carry no parametric form, so kind="custom" cannot be
    reconstructed here; pass the matrix explicitly instead.
    """
    if spec.kind == "symmetric":
        return symmetric_matrix(c, spec.ratio)
    if spec.kind == "asymmetric":
        return asymmetric_matrix(c, spec.ratio, spec.mapping)
    raise ValueError("custom noise requires an explicit TransitionMatrix")


def corrupt_labels(true_labels: np.ndarray, T: TransitionMatrix, seed: int) -> np.ndarray:
    """Draw one observed label per sample from T[true_label].

    Consumes exactly one uniform draw per sample in index order, so the
    output is reproducible across machines for a fixed seed.
    """
    labels = np.asarray(true_labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("true_labels must be one-dimensional")
    return T.draw(labels, np.random.default_rng(seed).random(labels.size))


def actual_noise_ratio(observed: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of positions where observed != truth."""
    observed = np.asarray(observed)
    truth = np.asarray(truth)
    if observed.shape != truth.shape:
        raise ValueError(f"length mismatch: {observed.shape} vs {truth.shape}")
    if observed.size == 0:
        return 0.0
    return float(np.mean(observed != truth))


def random_diagonal_dominant(
    c: int, seed: int, diag_range: tuple[float, float] = (0.55, 0.95)
) -> TransitionMatrix:
    """Random row-stochastic matrix whose diagonal dominates each row.

    Diagonal entries are drawn uniformly from diag_range (kept above 0.5
    so the observed label is still the most likely one per class); the
    remaining row mass is split over the off-diagonal by a Dirichlet
    draw. Useful for exercising the selection theory beyond the two
    named noise shapes.
    """
    lo, hi = diag_range
    if not 0.5 < lo <= hi <= 1.0:
        raise ValueError(f"diag_range must satisfy 0.5 < lo <= hi <= 1, got {diag_range}")
    rng = np.random.default_rng(seed)
    entries = np.zeros((c, c))
    diag = rng.uniform(lo, hi, size=c)
    for i in range(c):
        off = rng.dirichlet(np.ones(c - 1)) * (1.0 - diag[i])
        row = np.insert(off, i, diag[i])
        entries[i] = row
    # renormalize away accumulated rounding so the row-sum check holds
    entries /= entries.sum(axis=1, keepdims=True)
    return TransitionMatrix(c=c, entries=entries)
