"""Co-training two learners on a selected set plus noisy candidates.

Both learners see the same mini-batch stream; each ranks the batch by
its own per-sample loss, keeps the scheduled number of smallest-loss
samples, and is updated by one SGD step on the subset the OTHER learner
kept. Warm-up epochs draw batches from the selected set only; afterwards
each batch is a selected-set batch joined with a candidate-set batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset
from .learners import LearnerFactory
from .selection import selection_metrics
from .theory import theory_point

# on_batch(epoch, batch_index, batch_ids, kept_by_f1_ids, kept_by_f2_ids)
BatchHook = Callable[[int, int, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class CoTrainConfig:
    warmup_epochs: int
    total_epochs: int
    base_batch: int
    eps_s: float
    seed: int = 0
    learning_rate: float = 0.1
    decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = ()

    def __post_init__(self):
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ValueError(
                f"need 0 <= warmup <= total epochs, got "
                f"{self.warmup_epochs} and {self.total_epochs}"
            )
        if self.base_batch < 2:
            raise ValueError(f"base_batch must be >= 2, got {self.base_batch}")
        if not 0.0 <= self.eps_s < 1.0:
            raise ValueError(f"eps_s must lie in [0, 1), got {self.eps_s}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.decay_factor <= 0:
            raise ValueError(f"decay_factor must be > 0, got {self.decay_factor}")

    def rate_at(self, epoch: int) -> float:
        drops = sum(1 for m in self.decay_epochs if epoch >= m)
        return self.learning_rate * self.decay_factor**drops


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    n_e: int
    acc_f1: float
    acc_f2: float
    c_samples_used: int


@dataclass(frozen=True)
class CoTrainReport:
    records: tuple[EpochRecord, ...]
    eps_s: float
    eps_s_source: str


def keep_count(e: int, batch_total: int, eps_s: float) -> int:
    """Samples to keep at epoch e (0-based): ramp the drop rate to eps_s
    linearly over the first 10 epochs, then hold. Never below 1."""
    if e < 0:
        raise ValueError(f"epoch must be >= 0, got {e}")
    kept = math.floor(batch_total * (1.0 - eps_s * min(e / 10.0, 1.0)))
    return max(kept, 1)


def batch_mix(size_S: int, size_C: int, base: int) -> tuple[int, int]:
    """Per-step batch sizes for the selected and candidate streams.

    The candidate batch scales with the size ratio |C|/|S| but never
    exceeds half the base batch.
    """
    if base < 1:
        raise ValueError(f"base batch size must be >= 1, got {base}")
    if size_S < 1:
        raise ValueError("selected set is empty; nothing to co-train on")
    if size_C == 0:
        return base, 0
    return base, int(round(base * min(0.5, size_C / size_S)))


def resolve_eps_s(
    selected_ids,
    D: LabeledDataset,
    epsilon_hat: float,
    noise_kind: str = "symmetric",
) -> tuple[float, str]:
    """Noise ratio of the selected set: measured as 1 - LP when true
    labels exist, otherwise predicted from the estimated ratio."""
    if D.true_labels is not None:
        return 1.0 - selection_metrics(selected_ids, D).lp, "measured"
    point = theory_point(noise_kind, D.c, epsilon_hat)
    return 1.0 - point.lp, "estimated"


class _CyclingSampler:
    """Endless row-index stream over n rows, reshuffled on each wrap."""

    def __init__(self, n: int, rng: np.random.Generator):
        self.n = n
        self.rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos == self.n:
                self._order = self.rng.permutation(self.n)
                self._pos = 0
            grab = min(count - filled, self.n - self._pos)
            out[filled : filled + grab] = self._order[self._pos : self._pos + grab]
            self._pos += grab
            filled += grab
        return out


def _clean_accuracy(learner, D: Optional[LabeledDataset]) -> float:
    """Test accuracy against the true labels when the test set has them."""
    if D is None:
        return float("nan")
    labels = D.observed_labels if D.true_labels is None else D.true_labels
    return float(np.mean(learner.predict_dataset(D) == labels))


def cotrain(
    S: LabeledDataset,
    C: Optional[LabeledDataset],
    cfg: CoTrainConfig,
    learner_factory: LearnerFactory,
    clean_test: Optional[LabeledDataset] = None,
    eps_s_source: str = "given",
    on_batch: Optional[BatchHook] = None,
):
    """Run the exchange loop; returns (f1, f2, CoTrainReport).

    The two learners come from learner_factory(seed) and factory(seed+1)
    and must expose sgd_step. Keep sets are computed for both learners
    before either update; f1 steps on f2's kept subset first, then f2 on
    f1's. The reported n_e is the schedule value at the nominal batch
    size; the last batch of an epoch may be smaller when |S| is not a
    multiple of the base batch.
    """
    if S.n == 0:
        raise ValueError("selected set is empty; nothing to co-train on")
    size_C = 0 if C is None else C.n
    base, b_c = batch_mix(S.n, size_C, cfg.base_batch)
    f1 = learner_factory(cfg.seed)
    f2 = learner_factory(cfg.seed + 1)
    for f in (f1, f2):
        if not hasattr(f, "sgd_step"):
            raise TypeError(f"co-training needs gradient-updatable learners, got {f.kind}")

    s_stream = _CyclingSampler(S.n, np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])))
    c_stream = (
        _CyclingSampler(size_C, np.random.default_rng(np.random.SeedSequence([cfg.seed, 2])))
        if size_C
        else None
    )
    n_batches = math.ceil(S.n / base)
    records = []
    for e in range(cfg.total_epochs):
        lr = cfg.rate_at(e + 1)
        warm = e < cfg.warmup_epochs
        nominal = base if (warm or b_c == 0) else base + b_c
        c_used = 0
        for b in range(n_batches):
            s_rows = s_stream.take(min(base, S.n - b * base) if b == n_batches - 1 else base)
            bx = S.features[s_rows]
            by = S.observed_labels[s_rows]
            bt = None if S.true_labels is None else S.true_labels[s_rows]
            bids = S.ids[s_rows]
            if not warm and c_stream is not None and b_c > 0:
                c_rows = c_stream.take(b_c)
                bx = np.vstack([bx, C.features[c_rows]])
                by = np.concatenate([by, C.observed_labels[c_rows]])
                bids = np.concatenate([bids, C.ids[c_rows]])
                if bt is not None and C.true_labels is not None:
                    bt = np.concatenate([bt, C.true_labels[c_rows]])
                else:
                    bt = None
                c_used += b_c
            k = keep_count(e, len(by), cfg.eps_s)
            keep1 = np.argsort(f1.losses(bx, by, bt), kind="stable")[:k]
            keep2 = np.argsort(f2.losses(bx, by, bt), kind="stable")[:k]
            if on_batch is not None:
                on_batch(e, b, bids, bids[keep1], bids[keep2])
            f1.sgd_step(bx[keep2], by[keep2], lr)
            f2.sgd_step(bx[keep1], by[keep1], lr)
        records.append(
            EpochRecord(
                epoch=e + 1,
                n_e=keep_count(e, nominal, cfg.eps_s),
                acc_f1=_clean_accuracy(f1, clean_test),
                acc_f2=_clean_accuracy(f2, clean_test),
                c_samples_used=c_used,
            )
        )
    report = CoTrainReport(records=tuple(records), eps_s=cfg.eps_s, eps_s_source=eps_s_source)
    return f1, f2, report
