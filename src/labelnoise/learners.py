"""Trainable classifiers behind one train/predict/loss interface.

Three kinds:

  OracleLearner    draws its predicted label for a truly i-th class sample
                   from row i of a transition matrix -- the idealized
                   behavior of a memorizing network that generalizes in
                   distribution. Needs true labels at prediction time.
  KnnLearner       brute-force k-nearest-neighbor memorizer; the desk-scale
                   stand-in for a high-capacity network that fits its
                   training labels exactly.
  SoftmaxLearner   multinomial logistic regression, optionally with one
                   ReLU hidden layer, trained by mini-batch SGD on
                   cross-entropy; fully deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset
from .noise import TransitionMatrix

LOSS_CLAMP = 1e-12
DIVERGENCE_LIMIT = 1e6


class MissingTrueLabelsError(ValueError):
    pass


class DivergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


class Learner:
    """Uniform interface: reinitialize, train, predict, per-sample loss."""

    kind: str
    c: int

    def reinitialize(self) -> None:
        raise NotImplementedError

    def train(self, D: LabeledDataset, epochs: Optional[int] = None) -> "Learner":
        raise NotImplementedError

    def predict_proba(
        self, features: np.ndarray, true_labels: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def predict_labels(
        self, features: np.ndarray, true_labels: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return np.argmax(self.predict_proba(features, true_labels), axis=1)

    def predict_dataset(self, D: LabeledDataset) -> np.ndarray:
        return self.predict_labels(D.features, D.true_labels)

    def losses(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        true_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cross-entropy -log p(label | x) per sample, p clamped at 1e-12."""
        probs = self.predict_proba(features, true_labels)
        picked = probs[np.arange(len(labels)), np.asarray(labels, dtype=np.int64)]
        return -np.log(np.clip(picked, LOSS_CLAMP, None))


# --------------------------------------------------------------------------
# distributional oracle


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _row_uniforms(features: np.ndarray, seed: int) -> np.ndarray:
    """One uniform in [0, 1) per row, a pure function of (row bytes, seed).

    Content-addressed so duplicated rows draw identically, with a
    splitmix-style chain so distinct rows decorrelate.
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    bits = X.view(np.uint64)
    h = np.full(X.shape[0], np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ _GOLDEN)
    for j in range(X.shape[1]):
        h = _mix64((h + _GOLDEN) ^ bits[:, j])
    h = _mix64(h + _GOLDEN)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


class OracleLearner(Learner):
    """Predicts label j for a truly i-th class sample with probability T_ij.

    Training is a no-op: the point of this learner is to realize the
    limiting prediction distribution exactly, so selection and theory
    checks have an exact reference. The reported probability vector is the
    equal mixture of a one-hot at the drawn label and the sample's
    transition row: the argmax stays the drawn label, while the loss of a
    disagreeing sample still reflects how unlikely its observed label is
    under the transition row (clean-but-missed samples score lower loss
    than corrupted ones, which large-loss removal relies on).
    """

    kind = "oracle"

    def __init__(self, T: TransitionMatrix, seed: int):
        self.T = T
        self.seed = int(seed)
        self.c = T.c
        self._cdf = T.row_cdf()

    def reinitialize(self) -> None:
        pass

    def train(self, D: LabeledDataset, epochs: Optional[int] = None) -> "OracleLearner":
        return self

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        if true_labels is None:
            raise MissingTrueLabelsError("oracle prediction needs true labels")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        true = np.asarray(true_labels, dtype=np.int64)
        if true.shape[0] != features.shape[0]:
            raise ValueError("true_labels length must match feature rows")
        u = _row_uniforms(features, self.seed)
        drawn = np.empty(len(true), dtype=np.int64)
        for i in range(self.c):
            mask = true == i
            drawn[mask] = np.searchsorted(self._cdf[i], u[mask], side="right")
        drawn = np.clip(drawn, 0, self.c - 1)
        probs = 0.5 * self.T.entries[true]
        probs[np.arange(len(true)), drawn] += 0.5
        return probs


# --------------------------------------------------------------------------
# k-nearest-neighbor memorizer


class KnnLearner(Learner):
    """Brute-force k-NN with Euclidean distance and majority vote.

    Vote fractions are Laplace-smoothed, (count + 1) / (k + c), so the
    cross-entropy loss of any sample stays finite.
    """

    kind = "knn"

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.c = 0
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def reinitialize(self) -> None:
        self._X = None
        self._y = None

    def train(self, D: LabeledDataset, epochs: Optional[int] = None) -> "KnnLearner":
        if D.n == 0:
            raise ValueError("cannot train on an empty dataset")
        self._X = D.features
        self._y = D.observed_labels
        self.c = D.c
        return self

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("learner has not been trained")
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        k = min(self.k, len(self._y))
        train_sq = np.einsum("ij,ij->i", self._X, self._X)
        counts = np.zeros((X.shape[0], self.c))
        chunk = max(1, int(2e7) // max(1, len(self._y)))
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            d2 = train_sq - 2.0 * block @ self._X.T
            d2 += np.einsum("ij,ij->i", block, block)[:, None]
            if k == 1:
                nearest = np.argmin(d2, axis=1)
                np.add.at(counts, (np.arange(start, start + len(block)), self._y[nearest]), 1.0)
            else:
                nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
                votes = self._y[nearest]
                for j in range(self.c):
                    counts[start : start + len(block), j] = np.sum(votes == j, axis=1)
        return (counts + 1.0) / (k + self.c)


# --------------------------------------------------------------------------
# softmax classifier trained by SGD


class SoftmaxLearner(Learner):
    """Multinomial logistic regression, optionally one ReLU hidden layer."""

    kind = "softmax"

    def __init__(self, c: int, d: int, cfg: TrainConfig, hidden: Optional[int] = None):
        if c < 2:
            raise ValueError(f"class count must be >= 2, got {c}")
        if hidden is not None and hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {hidden}")
        self.c = c
        self.d = d
        self.cfg = cfg
        self.hidden = hidden
        self.params: dict[str, np.ndarray] = {}
        self.reinitialize()

    def reinitialize(self) -> None:
        rng = np.random.default_rng(self.cfg.seed)
        s = self.cfg.init_scale
        if self.hidden is None:
            self.params = {
                "w": s * rng.standard_normal((self.d, self.c)),
                "b": s * rng.standard_normal(self.c),
            }
        else:
            h = self.hidden
            self.params = {
                "w1": s * rng.standard_normal((self.d, h)),
                "b1": s * rng.standard_normal(h),
                "w2": s * rng.standard_normal((h, self.c)),
                "b2": s * rng.standard_normal(self.c),
            }

    def _logits(self, X: np.ndarray) -> np.ndarray:
        if self.hidden is None:
            return X @ self.params["w"] + self.params["b"]
        pre = X @ self.params["w1"] + self.params["b1"]
        return np.maximum(pre, 0.0) @ self.params["w2"] + self.params["b2"]

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.shape[1] != self.d:
            raise ValueError(f"expected {self.d} features, got {X.shape[1]}")
        logits = self._logits(X)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def loss_and_grad(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean cross-entropy over the batch and its analytic gradient."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.int64)
        n = len(y)
        if self.hidden is None:
            logits = X @ self.params["w"] + self.params["b"]
        else:
            pre = X @ self.params["w1"] + self.params["b1"]
            act = np.maximum(pre, 0.0)
            logits = act @ self.params["w2"] + self.params["b2"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        log_probs = shifted - log_z[:, None]
        loss = float(-log_probs[np.arange(n), y].mean())

        dlogits = np.exp(log_probs)
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        if self.hidden is None:
            grads = {"w": X.T @ dlogits, "b": dlogits.sum(axis=0)}
        else:
            dact = dlogits @ self.params["w2"].T
            dpre = dact * (pre > 0.0)
            grads = {
                "w1": X.T @ dpre,
                "b1": dpre.sum(axis=0),
                "w2": act.T @ dlogits,
                "b2": dlogits.sum(axis=0),
            }
        return loss, grads

    def sgd_step(self, X: np.ndarray, y: np.ndarray, lr: float) -> float:
        loss, grads = self.loss_and_grad(X, y)
        if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
            raise DivergenceError(f"batch loss {loss} is not finite or exceeds limit")
        for name, g in grads.items():
            self.params[name] -= lr * g
        return loss

    def train(self, D: LabeledDataset, epochs: Optional[int] = None) -> "SoftmaxLearner":
        epochs = self.cfg.epochs if epochs is None else epochs
        rng = np.random.default_rng(self.cfg.seed + 1)
        for _ in range(epochs):
            order = rng.permutation(D.n)
            for start in range(0, D.n, self.cfg.batch_size):
                rows = order[start : start + self.cfg.batch_size]
                self.sgd_step(D.features[rows], D.observed_labels[rows], self.cfg.learning_rate)
        return self

    def flat_params(self) -> np.ndarray:
        return np.concatenate([self.params[k].ravel() for k in sorted(self.params)])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for k in sorted(self.params):
            size = self.params[k].size
            self.params[k] = flat[offset : offset + size].reshape(self.params[k].shape).copy()
            offset += size

    def flat_grad(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        _, grads = self.loss_and_grad(X, y)
        return np.concatenate([grads[k].ravel() for k in sorted(grads)])

    def mean_loss(self, X: np.ndarray, y: np.ndarray) -> float:
        return self.loss_and_grad(X, y)[0]


# --------------------------------------------------------------------------
# factories

LearnerFactory = Callable[[int], Learner]


def oracle_factory(T: TransitionMatrix) -> LearnerFactory:
    return lambda seed: OracleLearner(T, seed)


def knn_factory(k: int = 1) -> LearnerFactory:
    return lambda seed: KnnLearner(k)


def softmax_factory(
    c: int, d: int, cfg: TrainConfig, hidden: Optional[int] = None
) -> LearnerFactory:
    return lambda seed: SoftmaxLearner(c, d, replace(cfg, seed=seed), hidden)
