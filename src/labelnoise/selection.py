"""Cross-validation selection of clean samples from noisily labeled data.

One engine drives both algorithms. Each pass splits the remaining
candidates in half, trains a fresh learner per fold, and keeps the
opposite fold's samples whose observed label the learner reproduces.
The single-pass form estimates the noise ratio from the selection rate;
the iterative form repeats the pass on the shrinking candidate set while
also discarding the largest-loss disagreeing samples.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import LabeledDataset, split_half
from .learners import LearnerFactory
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

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "n_s1": self.n_s1,
            "n_s2": self.n_s2,
            "n_r1": self.n_r1,
            "n_r2": self.n_r2,
            "acc1": self.acc1,
            "acc2": self.acc2,
        }


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
        s, c, r = (set(self.selected), set(self.candidate), set(self.removed))
        if s & c or s & r or c & r:
            raise ValueError("selected, candidate, and removed ids must be disjoint")
        if not 0.0 <= self.epsilon_hat <= 1.0:
            raise ValueError(f"epsilon_hat must lie in [0, 1], got {self.epsilon_hat}")

    def to_json_dict(self) -> dict:
        return {
            "selected": [int(i) for i in self.selected],
            "candidate": [int(i) for i in self.candidate],
            "removed": [int(i) for i in self.removed],
            "epsilon_hat": float(self.epsilon_hat),
            "history": [h.to_dict() for h in self.history],
            "halt_reason": self.halt_reason,
        }


def selection_result_from_json(payload: dict) -> SelectionResult:
    history = tuple(
        IterationRecord(
            iteration=int(h["iteration"]),
            n_s1=int(h["n_s1"]),
            n_s2=int(h["n_s2"]),
            n_r1=int(h["n_r1"]),
            n_r2=int(h["n_r2"]),
            acc1=float(h["acc1"]),
            acc2=float(h["acc2"]),
        )
        for h in payload["history"]
    )
    return SelectionResult(
        selected=np.asarray(sorted(payload["selected"]), dtype=np.int64),
        candidate=np.asarray(sorted(payload["candidate"]), dtype=np.int64),
        removed=np.asarray(sorted(payload["removed"]), dtype=np.int64),
        epsilon_hat=float(payload["epsilon_hat"]),
        history=history,
        halt_reason=payload.get("halt_reason"),
    )


@dataclass(frozen=True)
class SelectionMetrics:
    """Label precision/recall of a selected subset against true labels.

    Per-class vectors are grouped by true class. Classes without support
    for a ratio carry NaN there and are listed in the matching flag tuple
    rather than being silently zeroed.
    """

    lp: float
    lr: float
    lp_i: np.ndarray
    lr_i: np.ndarray
    confusion: np.ndarray
    no_selected_support: tuple[int, ...]
    no_clean_support: tuple[int, ...]

    @property
    def eps_s(self) -> float:
        return 1.0 - self.lp


def _iteration_seeds(seed: int, iteration: int) -> tuple[int, int, int]:
    """Independent (split, fold 1, fold 2) seeds for one pass."""
    state = np.random.SeedSequence([seed, iteration]).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _fold_pass(
    D: LabeledDataset,
    train_ids: np.ndarray,
    eval_fold: LabeledDataset,
    learner_factory: LearnerFactory,
    epochs: Optional[int],
    fold_seed: int,
    remove_ratio: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Train on train_ids, select agreeing ids of eval_fold, pick removals.

    Returns (selected ids, removed ids, agreement rate). Removals are the
    floor(r * |selected|) largest-loss disagreeing samples, losses under
    the observed labels, ties broken by ascending id.
    """
    learner = learner_factory(fold_seed)
    learner.train(D.subset(train_ids), epochs=epochs)
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
    epochs: Optional[int] = None,
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
        if remove_ratio < 0:
            raise ValueError(f"remove_ratio must be >= 0, got {remove_ratio}")
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
        s1, r1, acc1 = _fold_pass(
            D, np.union1d(selected, C1.ids), C2, learner_factory, epochs, seed1, r_now
        )
        s2, r2, acc2 = _fold_pass(
            D, np.union1d(selected, C2.ids), C1, learner_factory, epochs, seed2, r_now
        )
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
        selected = np.union1d(selected, np.union1d(s1, s2))
        taken = np.union1d(np.union1d(s1, s2), np.union1d(r1, r2))
        candidate = np.setdiff1d(candidate, taken, assume_unique=True)
        removed = np.union1d(removed, np.union1d(r1, r2))

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
    epochs: Optional[int] = None,
    seed: int = 0,
    noise_kind: str = "symmetric",
) -> SelectionResult:
    """Single-pass selection: the iterative form with one pass, no removal."""
    return incv(
        D,
        learner_factory,
        iterations=1,
        epochs=epochs,
        remove_ratio=0.0,
        seed=seed,
        noise_kind=noise_kind,
    )


def confusion_matrix(
    predictions: np.ndarray, true_labels: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized confusion: entry ij = P(prediction = j | true = i).

    Returns (matrix, zero_support) where zero_support marks true classes
    with no samples; those rows are NaN.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    counts = np.zeros((c, c))
    np.add.at(counts, (true, pred), 1.0)
    support = counts.sum(axis=1)
    zero = support == 0
    matrix = np.full((c, c), np.nan)
    matrix[~zero] = counts[~zero] / support[~zero, None]
    return matrix, zero


def selection_metrics(selected_ids, D: LabeledDataset) -> SelectionMetrics:
    """Label precision/recall (overall and per true class) of a selection.

    The confusion matrix is the observed-versus-true label confusion
    restricted to the selected subset: how the selection's labels are
    actually distributed given each true class.
    """
    if D.true_labels is None:
        raise ValueError("selection metrics need a dataset with true labels")
    ids = np.asarray(sorted(set(int(i) for i in selected_ids)), dtype=np.int64)
    if len(np.setdiff1d(ids, D.ids)) > 0:
        raise ValueError("selected ids are not a subset of the dataset ids")
    if len(ids) == 0:
        raise UndefinedMetricError("label precision is undefined for an empty selection")
    clean_all = D.observed_labels == D.true_labels
    if not clean_all.any():
        raise UndefinedMetricError("label recall is undefined: no clean samples exist")

    S = D.subset(ids)
    clean_S = S.observed_labels == S.true_labels
    lp = float(clean_S.mean())
    lr = float(clean_S.sum() / clean_all.sum())

    c = D.c
    lp_i = np.full(c, np.nan)
    lr_i = np.full(c, np.nan)
    no_selected, no_clean = [], []
    for i in range(c):
        in_S = S.true_labels == i
        clean_in_S = float(np.sum(in_S & clean_S))
        if in_S.any():
            lp_i[i] = clean_in_S / in_S.sum()
        else:
            no_selected.append(i)
        clean_in_D = np.sum((D.true_labels == i) & clean_all)
        if clean_in_D > 0:
            lr_i[i] = clean_in_S / clean_in_D
        else:
            no_clean.append(i)

    confusion, zero = confusion_matrix(S.observed_labels, S.true_labels, c)
    if zero.any():
        warnings.warn(
            f"classes {np.flatnonzero(zero).tolist()} have no selected samples; "
            "their confusion rows are NaN",
            stacklevel=2,
        )
    return SelectionMetrics(
        lp=lp,
        lr=lr,
        lp_i=lp_i,
        lr_i=lr_i,
        confusion=confusion,
        no_selected_support=tuple(no_selected),
        no_clean_support=tuple(no_clean),
    )
