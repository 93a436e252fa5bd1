"""Cross-validation selection of clean samples from noisily labeled data.

One engine drives both algorithms. Each pass splits the remaining
candidates in half, trains a fresh learner per fold (softmax fold
learners side by side, in one train_stacked loop), and keeps the
opposite fold's samples whose observed label the learner reproduces.
The single-pass form estimates the noise ratio from the selection rate;
the iterative form repeats the pass on the shrinking candidate set while
also discarding the largest-loss disagreeing samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .data import (LabeledDataset, _sorted_unique, json_float, json_int, json_record,
                   json_str, split_half)
from .learners import LearnerFactory, SoftmaxLearner, train_stacked
from .noise import integer_vector
from .theory import estimate_epsilon_asymmetric, estimate_epsilon_symmetric


class UndefinedMetricError(ValueError):
    pass


@dataclass(frozen=True)
class IterationRecord:
    """Bookkeeping for one selection pass (two folds)."""

    iteration: int
    n_s1: int
    n_s2: int
    n_r1: int
    n_r2: int
    acc1: float
    acc2: float


@dataclass(frozen=True)
class SelectionResult:
    """Partition of the input ids into selected, candidate, and removed."""

    selected: np.ndarray
    candidate: np.ndarray
    removed: np.ndarray
    epsilon_hat: float
    history: tuple[IterationRecord, ...]
    halt_reason: Optional[str] = None

    def __post_init__(self):
        # each list's distinct ids, then no id in two lists
        ids = np.concatenate([_sorted_unique(np.asarray(v, dtype=np.int64))
                              for v in (self.selected, self.candidate, self.removed)])
        if len(_sorted_unique(ids)) < len(ids):
            raise ValueError("selected, candidate, and removed ids must be disjoint")
        if not 0.0 <= self.epsilon_hat <= 1.0:
            raise ValueError(f"epsilon_hat must lie in [0, 1], got {self.epsilon_hat}")

    def to_json_dict(self) -> dict:
        return {
            "selected": np.asarray(self.selected, dtype=np.int64).tolist(),
            "candidate": np.asarray(self.candidate, dtype=np.int64).tolist(),
            "removed": np.asarray(self.removed, dtype=np.int64).tolist(),
            "epsilon_hat": float(self.epsilon_hat),
            "history": [asdict(h) for h in self.history],
            "halt_reason": self.halt_reason,
        }


def selection_result_from_json(payload: dict) -> SelectionResult:
    try:
        return SelectionResult(
            selected=np.asarray(sorted(map(json_int, payload["selected"])), dtype=np.int64),
            candidate=np.asarray(sorted(map(json_int, payload["candidate"])), dtype=np.int64),
            removed=np.asarray(sorted(map(json_int, payload["removed"])), dtype=np.int64),
            epsilon_hat=json_float(payload["epsilon_hat"]),
            history=tuple(json_record(IterationRecord, h) for h in payload["history"]),
            halt_reason=(None if payload.get("halt_reason") is None
                         else json_str(payload["halt_reason"])),
        )
    except KeyError as exc:
        raise ValueError(f"selection JSON: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:  # a value of the wrong type
        raise ValueError(f"selection JSON: {exc}") from None


@dataclass(frozen=True)
class SelectionMetrics:
    """Label precision/recall of a selected subset against true labels.

    Per-class vectors are grouped by true class. A class with no selected
    sample has NaN label precision, and a class with no clean sample in
    the dataset has NaN label recall; neither is silently zeroed.
    """

    lp: float
    lr: float
    lp_i: np.ndarray
    lr_i: np.ndarray

    @property
    def eps_s(self) -> float:
        return 1.0 - self.lp


def _iteration_seeds(seed: int, iteration: int) -> tuple[int, int, int]:
    """Independent (split, fold 1, fold 2) seeds for one pass."""
    state = np.random.SeedSequence([seed, iteration]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _train_folds(D: LabeledDataset, learners, train_ids) -> None:
    """Train learner i on the rows of D whose id is in train_ids[i]:
    softmax learners of one arch side by side (train_stacked), reading
    D by row position, and any others alone on their subset."""
    f1, f2 = learners
    if isinstance(f1, SoftmaxLearner) and isinstance(f2, SoftmaxLearner) and f1.arch == f2.arch:
        rows = [np.flatnonzero(np.isin(D.ids, ids)) for ids in train_ids]
        train_stacked(learners, D.features, D.observed_labels, rows)
        return
    for learner, ids in zip(learners, train_ids):
        learner.train(D.subset(ids))


def _union(*ids: np.ndarray) -> np.ndarray:
    """np.union1d of the id arrays, by data._sorted_unique."""
    return _sorted_unique(np.concatenate(ids))


def _fold_outcome(
    learner, eval_fold: LabeledDataset, remove_ratio: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Select agreeing ids of eval_fold and pick removals.

    Returns (selected ids, removed ids, agreement rate). Removals are the
    floor(r * |selected|) largest-loss disagreeing samples, losses under
    the observed labels, ties broken by ascending id.
    """
    agree = learner.predict_dataset(eval_fold) == eval_fold.observed_labels
    selected = eval_fold.ids[agree]
    removed = np.empty(0, dtype=np.int64)
    n_remove = int(remove_ratio * len(selected))
    if n_remove > 0 and (~agree).any():
        pool = eval_fold.subset(eval_fold.ids[~agree])
        losses = learner.losses(pool.features, pool.observed_labels, pool.true_labels)
        order = np.lexsort((pool.ids, -losses))
        removed = np.sort(pool.ids[order[: min(n_remove, len(order))]])
    return selected, removed, float(agree.mean())


def incv(
    D: LabeledDataset,
    learner_factory: LearnerFactory,
    iterations: int,
    remove_ratio: float | str = "auto",
    seed: int = 0,
    noise_kind: str = "symmetric",
) -> SelectionResult:
    """Iterative cross-validation selection with large-loss removal.

    Per iteration: split the candidates in half, train a fresh learner on
    the selected set plus one half, keep the other half's agreeing
    samples, and discard its floor(r * selected) largest-loss disagreeing
    samples; then mirror the folds. The noise ratio is estimated once, at
    iteration 1, by inverting the accuracy law on the pooled selection
    rate (|S1| + |S2|) / n. With remove_ratio="auto" no removal happens
    during iteration 1; afterwards r = eps_hat / (1 - eps_hat).

    noise_kind picks the inversion ("symmetric" or "asymmetric") for the
    estimate; symmetric is the default regardless of how the labels were
    actually corrupted.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if noise_kind not in ("symmetric", "asymmetric"):
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    auto_r = remove_ratio == "auto"
    if not auto_r:
        remove_ratio = float(remove_ratio)
        if not 0 <= remove_ratio < math.inf:
            raise ValueError(f"remove_ratio must be finite and >= 0, got {remove_ratio}")
    if D.n < 2:
        raise ValueError(f"need at least 2 samples to split, got {D.n}")

    selected = np.empty(0, dtype=np.int64)
    removed = np.empty(0, dtype=np.int64)
    candidate = np.sort(D.ids)
    epsilon_hat = 0.0
    history: list[IterationRecord] = []
    halt_reason = None

    for iteration in range(1, iterations + 1):
        if len(candidate) < 2:
            halt_reason = (
                f"candidate set exhausted before iteration {iteration} "
                f"({len(candidate)} left)"
            )
            break
        split_seed, seed1, seed2 = _iteration_seeds(seed, iteration)
        C1, C2 = split_half(D.subset(candidate), seed=split_seed)
        r_now = 0.0 if (auto_r and iteration == 1) else remove_ratio
        f1, f2 = learner_factory(seed1), learner_factory(seed2)
        _train_folds(D, (f1, f2), (_union(selected, C1.ids), _union(selected, C2.ids)))
        s1, r1, acc1 = _fold_outcome(f1, C2, r_now)
        s2, r2, acc2 = _fold_outcome(f2, C1, r_now)
        if iteration == 1:
            rate = (len(s1) + len(s2)) / len(candidate)
            if noise_kind == "symmetric":
                epsilon_hat = estimate_epsilon_symmetric(rate, D.c)
            else:
                epsilon_hat = estimate_epsilon_asymmetric(rate)
            if auto_r:
                remove_ratio = epsilon_hat / (1.0 - epsilon_hat)
        history.append(
            IterationRecord(iteration, len(s1), len(s2), len(r1), len(r2), acc1, acc2)
        )
        selected = _union(selected, s1, s2)
        candidate = np.setdiff1d(candidate, _union(s1, s2, r1, r2), assume_unique=True)
        removed = _union(removed, r1, r2)

    return SelectionResult(
        selected=selected,
        candidate=candidate,
        removed=removed,
        epsilon_hat=epsilon_hat,
        history=tuple(history),
        halt_reason=halt_reason,
    )


def ncv(
    D: LabeledDataset,
    learner_factory: LearnerFactory,
    seed: int = 0,
    noise_kind: str = "symmetric",
) -> SelectionResult:
    """Single-pass selection: the iterative form with one pass, no removal."""
    return incv(
        D,
        learner_factory,
        iterations=1,
        remove_ratio=0.0,
        seed=seed,
        noise_kind=noise_kind,
    )


def _joint_counts(true, other, c: int) -> np.ndarray:
    """c x c integer counts: entry ij is the number of samples with true
    label i and other label j. Labels outside [0, c) are rejected."""
    true = np.asarray(true, dtype=np.int64)
    other = np.asarray(other, dtype=np.int64)
    if true.shape != other.shape:
        raise ValueError(f"length mismatch: {other.shape} vs {true.shape}")
    if true.size:
        lo, hi = min(true.min(), other.min()), max(true.max(), other.max())
        if lo < 0 or hi >= c:
            raise ValueError(f"labels must lie in [0, {c}), got range [{lo}, {hi}]")
    return np.bincount(true * c + other, minlength=c * c).reshape(c, c)


def confusion_matrix(
    predictions: np.ndarray, true_labels: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized confusion: entry ij = P(prediction = j | true = i).

    Returns (matrix, zero_support) where zero_support marks true classes
    with no samples; those rows are NaN.
    """
    counts = _joint_counts(true_labels, predictions, c)
    support = counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return counts / support[:, None], support == 0


def selection_metrics(selected_ids, D: LabeledDataset) -> SelectionMetrics:
    """Label precision/recall (overall and per true class) of a selection.

    Everything is read off two true-versus-observed label count matrices,
    one over D and one over the selected rows: their diagonals count the
    clean samples and their row sums the samples per true class. So
    lp_i = clean_S / n_S and lr_i = clean_S / clean_D, where 0/0 gives
    the NaN of a class without support. Duplicate ids count once.
    """
    if D.true_labels is None:
        raise ValueError("selection metrics need a dataset with true labels")
    ids = integer_vector(selected_ids, "selected_ids")
    if not np.isin(ids, D.ids).all():
        raise ValueError("selected ids are not a subset of the dataset ids")
    if ids.size == 0:
        raise UndefinedMetricError("label precision is undefined for an empty selection")
    counts_D = _joint_counts(D.true_labels, D.observed_labels, D.c)
    clean_D = np.diag(counts_D)
    if clean_D.sum() == 0:
        raise UndefinedMetricError("label recall is undefined: no clean samples exist")

    in_S = np.isin(D.ids, ids)
    counts_S = _joint_counts(D.true_labels[in_S], D.observed_labels[in_S], D.c)
    clean_S = np.diag(counts_S)
    n_S = counts_S.sum(axis=1)
    if (n_S == 0).any():
        warnings.warn(
            f"classes {np.flatnonzero(n_S == 0).tolist()} have no selected samples; "
            "their label precision is NaN",
            stacklevel=2,
        )
    with np.errstate(invalid="ignore"):
        return SelectionMetrics(
            lp=float(clean_S.sum() / n_S.sum()),
            lr=float(clean_S.sum() / clean_D.sum()),
            lp_i=clean_S / n_S,
            lr_i=clean_S / clean_D,
        )
