"""Closed-form predictions for learners that generalize in distribution.

When a high-capacity model trained on a noisy split is evaluated on the
other split, its predicted label for a truly i-th class sample is
distributed like row i of the transition matrix T. Everything here follows
from that single fact:

  per-class test accuracy        sum_j T_ij^2
  symmetric noise accuracy       (1-eps)^2 + eps^2/(c-1)
  asymmetric noise accuracy      (1-eps)^2 + eps^2
  label precision (per class)    T_ii^2 / sum_j T_ij^2
  label recall (per class)       T_ii

The accuracy quadratics are invertible on the diagonal-dominant branch,
which is how a dataset's noise ratio is estimated from an observed
cross-validation accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .noise import TransitionMatrix


@dataclass(frozen=True)
class TheoryPoint:
    """Predicted metrics at one noise ratio."""

    epsilon: float
    c: int
    accuracy: float
    lp: float
    lr: float

    @property
    def eps_s(self) -> float:
        """Noise ratio of the agreement-selected subset, 1 - lp."""
        return 1.0 - self.lp


def class_accuracy(T: TransitionMatrix, i: int) -> float:
    """P(prediction = observed label | true class i) = sum_j T_ij^2."""
    if not 0 <= i < T.c:
        raise IndexError(f"class index {i} out of range [0, {T.c})")
    row = T.entries[i]
    return float(np.dot(row, row))


# Within this distance of the vertex eps = (c-1)/c, where the symmetric
# accuracy quadratic is flat, both it and its inverse take an exact path.
# Farther out the float closed forms are accurate and keep their bits.
_NEAR_VERTEX = 2.0**-20


def symmetric_accuracy(eps: float, c: int) -> float:
    """(1-eps)^2 + eps^2/(c-1).

    Near the vertex one ulp of rounding in the accuracy moves its inverse
    by ~3e-9, so there it is evaluated in exact rationals and rounded once.
    """
    _check_eps(eps)
    if c < 2:
        raise ValueError(f"class count must be >= 2, got {c}")
    if abs(eps - (c - 1) / c) < _NEAR_VERTEX:
        e = Fraction(eps)
        return float((1 - e) ** 2 + e**2 / (c - 1))
    return (1.0 - eps) ** 2 + eps**2 / (c - 1)


def asymmetric_accuracy(eps: float) -> float:
    """(1-eps)^2 + eps^2."""
    _check_eps(eps)
    return (1.0 - eps) ** 2 + eps**2


def lp_lr_general(T: TransitionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-class label precision and recall of agreement selection.

    LP_i = T_ii^2 / sum_j T_ij^2 and LR_i = T_ii. The denominator of a
    row-stochastic row is always positive, so LP_i is well defined and is
    simply 0 for a class that is never labeled correctly.
    """
    diag = T.diagonal
    denom = np.einsum("ij,ij->i", T.entries, T.entries)
    return diag**2 / denom, diag.copy()


def lp_bounds(t_ii: float, c: int) -> tuple[float, float]:
    """Range of per-class label precision over all rows with diagonal t_ii.

    The worst case concentrates the off-diagonal mass on a single class
    (asymmetric noise); the best case spreads it uniformly (symmetric).
    """
    if not 0.0 < t_ii <= 1.0:
        raise ValueError(f"diagonal entry must be in (0, 1], got {t_ii}")
    if c < 2:
        raise ValueError(f"class count must be >= 2, got {c}")
    off = (1.0 - t_ii) ** 2
    lower = t_ii**2 / (t_ii**2 + off)
    upper = t_ii**2 / (t_ii**2 + off / (c - 1))
    return lower, upper


def estimate_epsilon_symmetric(observed_accuracy: float, c: int) -> float:
    """Invert the symmetric accuracy quadratic on the diagonal-dominant branch.

    Solves (1-eps)^2 + eps^2/(c-1) = a for eps in [0, (c-1)/c], taking the
    smaller root. The quadratic's minimum over [0, 1] is 1/c, attained at
    eps = (c-1)/c; an observed accuracy below that (possible through
    sampling noise) is clamped to the vertex with a warning rather than
    raising, so an estimation step mid-pipeline cannot abort a run.
    """
    if c < 2:
        raise ValueError(f"class count must be >= 2, got {c}")
    A = c / (c - 1)
    radicand = 1.0 - A * (1.0 - observed_accuracy)
    if radicand >= _NEAR_VERTEX:
        return (1.0 - np.sqrt(radicand)) / A
    # 1 - A*(1-a) cancels the low bits that c*a - 1 keeps, so a = 1/c would
    # invert up to 1e-8 short of the vertex instead of onto it
    radicand = (c * observed_accuracy - 1.0) / (c - 1)
    if radicand < 0.0:
        # rounding alone can make the radicand negative at a = 1/c
        if observed_accuracy < 1.0 / c:
            warnings.warn(
                f"observed accuracy {observed_accuracy} is below the theoretical "
                f"minimum 1/c = {1.0 / c}; clamping estimate to (c-1)/c",
                stacklevel=2,
            )
        radicand = 0.0
    return (1.0 - np.sqrt(radicand)) * (c - 1) / c


def estimate_epsilon_asymmetric(observed_accuracy: float) -> float:
    """Invert the asymmetric accuracy quadratic on eps in [0, 0.5].

    Solves 2 eps^2 - 2 eps + (1 - a) = 0, smaller root; accuracies below
    the 0.5 vertex clamp to eps = 0.5 with a warning.
    """
    radicand = 2.0 * observed_accuracy - 1.0
    if radicand < 0.0:
        warnings.warn(
            f"observed accuracy {observed_accuracy} is below the theoretical "
            "minimum 0.5; clamping estimate to 0.5",
            stacklevel=2,
        )
        radicand = 0.0
    return (1.0 - np.sqrt(radicand)) / 2.0


def theory_point(kind: str, c: int, eps: float) -> TheoryPoint:
    """Accuracy, label precision and label recall at one noise ratio."""
    if kind == "symmetric":
        acc = symmetric_accuracy(eps, c)
    elif kind == "asymmetric":
        acc = asymmetric_accuracy(eps)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    lp = (1.0 - eps) ** 2 / acc if acc > 0 else 0.0
    return TheoryPoint(epsilon=eps, c=c, accuracy=acc, lp=lp, lr=1.0 - eps)


def theory_curve(kind: str, c: int, grid: Iterable[float]) -> list[TheoryPoint]:
    return [theory_point(kind, c, float(eps)) for eps in grid]


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"noise ratio must be in [0, 1], got {eps}")
