"""Trainable classifiers behind one train/predict/loss interface.

Three kinds:

  OracleLearner    draws its predicted label for a truly i-th class sample
                   from row i of a transition matrix -- the idealized
                   behavior of a memorizing network that generalizes in
                   distribution. Needs true labels at prediction time.
  KnnLearner       exact 1-nearest-neighbor memorizer; the desk-scale
                   stand-in for a high-capacity network that fits its
                   training labels exactly, as the accuracy law assumes.
  SoftmaxLearner   multinomial logistic regression, optionally with one
                   ReLU hidden layer, trained by mini-batch SGD on
                   cross-entropy; fully deterministic given its seed.

SoftmaxLearner.stack stacks SoftmaxLearners of one (c, d, hidden) on a
leading member axis, so one forward pass or SGD step serves all, with
results bit-identical to lone calls. train_stacked, the one SGD loop,
trains a lone learner or INCV's fold learners this way.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset
from .noise import TransitionMatrix, integer_vector

LOSS_CLAMP = 1e-12
INIT_SCALE = 0.1  # standard deviation of SoftmaxLearner's initial parameters
DIVERGENCE_LIMIT = 1e6
KNN_BLOCK_BYTES = 1 << 22  # k-NN distance block: 4 MiB of float64, cache-sized
KNN_SCREEN_LIMIT = 1e30  # largest centered (|q| + max |t|)^2 the float32 1-NN screen takes


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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


class Learner:
    """Uniform interface: train, predict, per-sample loss.

    predict_labels(x) is argmax(predict_proba(x), axis=-1), ties going to
    the first class. The oracle and the 1-NN memoriser find the label first
    and build their probabilities from it, so a caller that needs only
    labels makes no (n, c) matrix.
    """

    c: int

    def train(self, D: LabeledDataset) -> "Learner":
        raise NotImplementedError

    def predict_proba(
        self, features: np.ndarray, true_labels: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def predict_labels(
        self, features: np.ndarray, true_labels: Optional[np.ndarray] = None
    ) -> np.ndarray:
        return np.argmax(self.predict_proba(features, true_labels), axis=-1)

    def predict_dataset(self, D: LabeledDataset) -> np.ndarray:
        return self.predict_labels(D.features, D.true_labels)

    def losses(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        true_labels: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cross-entropy -log p(label | x) per sample, p clamped at 1e-12;
        a paired learner's losses carry the member axis first."""
        probs = self.predict_proba(features, true_labels)
        picked = probs[..., np.arange(len(labels)), np.asarray(labels, dtype=np.int64)]
        return -np.log(np.maximum(picked, LOSS_CLAMP))


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

    def __init__(self, T: TransitionMatrix, seed: int):
        self.T = T
        self.seed = int(seed)
        self.c = T.c

    def train(self, D: LabeledDataset) -> "OracleLearner":
        return self

    def _draw(self, features, true_labels) -> tuple[np.ndarray, np.ndarray]:
        """(true label, drawn label) of each row."""
        if true_labels is None:
            raise MissingTrueLabelsError("oracle prediction needs true labels")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        true = integer_vector(true_labels, "true_labels")
        if len(true) != features.shape[0]:
            raise ValueError("true_labels length must match feature rows")
        return true, self.T.draw(true, _row_uniforms(features, self.seed))

    def predict_labels(self, features, true_labels=None) -> np.ndarray:
        return self._draw(features, true_labels)[1]

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        true, drawn = self._draw(features, true_labels)
        probs = 0.5 * self.T.entries[true]
        probs[np.arange(len(true)), drawn] += 0.5
        return probs


# --------------------------------------------------------------------------
# 1-nearest-neighbor memorizer


def _carve(buf: np.ndarray, *specs) -> list[np.ndarray]:
    """Uninitialised arrays of the given (shape, dtype) pairs, laid one after
    another over the bytes of buf at 8-byte boundaries; an array that would
    run past the end of buf is a fresh one instead.

    The 1-NN screen cuts the temporaries of its per-cell loops from one
    buffer, so that those loops make no arrays of their own. numpy keeps
    freed arrays under 1 KiB for reuse, and one kept near the top of a
    thread's C heap stops the heap from shrinking below it: fresh arrays of
    as many sizes as there are cells and hits had raised simulate's peak
    RSS by about 10%.
    """
    arrays, offset = [], 0
    for shape, dtype in specs:
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        if offset + size <= buf.nbytes:
            arrays.append(np.ndarray(shape, dtype, buffer=buf, offset=offset))
        else:
            arrays.append(np.empty(shape, dtype))
        offset += -(-size // 8) * 8
    return arrays


# bytes per query of _screen_cell's temporaries besides its rows and entries
_FOLD_BYTES = 2 * 8 + 4 * 4 + 1


@dataclass
class _Screened:
    """A block of 1-NN screen queries: each one's largest float32 entry top,
    its column best of _right32 and the runner-up second; the buffer that
    holds the screen's temporaries; the positions 0, 1, ... m - 1; and room
    for m query positions, the lists of _screen_block and _reaching."""

    top: np.ndarray
    second: np.ndarray
    best: np.ndarray
    scratch: np.ndarray
    steps: np.ndarray
    queries: np.ndarray
    hits: np.ndarray


class KnnLearner(Learner):
    """Exact 1-NN with Euclidean distance: it memorizes its training labels.

    The nearest row's one-hot is Laplace-smoothed, (count + 1) / (1 + c), so
    the cross-entropy loss of any sample stays finite. A float32 screen over
    pivot cells of the training rows decides most queries (_screen); a
    float64 kernel over every training row ranks the rest.
    """

    def __init__(self):
        self.c = 0
        self._X: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None
        self._right: Optional[np.ndarray] = None
        self._right32: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._T = self._Tc = math.nan
        # the screen's cells: training row of each _right32 column, the pivot
        # side of _pivot_products, and each cell's column range and radius
        self._order: Optional[np.ndarray] = None
        self._pivot_right: Optional[np.ndarray] = None
        self._pivot32: Optional[np.ndarray] = None
        self._bounds: Optional[np.ndarray] = None
        self._radius: Optional[np.ndarray] = None

    def train(self, D: LabeledDataset) -> "KnnLearner":
        if D.n == 0:
            raise ValueError("cannot train on an empty dataset")
        self._X = D.features
        self._y = D.observed_labels
        self.c = D.c
        # right-hand side [X.T; |x|^2; 1] of the one distance GEMM in predict_proba
        right = np.empty((D.d + 2, D.n))
        right[:-2] = self._X.T
        right[-2] = np.einsum("ij,ij->i", self._X, self._X)
        right[-1] = 1.0
        self._right = right
        self._T = math.sqrt(right[-2].max())
        self._right32 = None
        # the 1-NN screen in _screen runs on features centered by the training
        # mean, so its float32 error follows the spread of the data, not its offset
        with np.errstate(invalid="ignore", over="ignore"):
            self._mean = self._X.mean(axis=0)
            centered = self._X - self._mean
            tc_sq = np.einsum("ij,ij->i", centered, centered)
        self._Tc = math.sqrt(tc_sq.max())
        if tc_sq.max() <= KNN_SCREEN_LIMIT:
            self._build_cells(centered, tc_sq)
        return self

    def _build_cells(self, centered: np.ndarray, tc_sq: np.ndarray) -> None:
        """Partition the centered training rows into the screen's cells and
        lay _right32 out one cell after another.

        The G = ceil(sqrt(n) / 2) pivots are rows at a fixed stride. Each
        row joins the cell of its nearest pivot in float64, the first on a
        tie, and empty cells are dropped. A cell's radius is the largest
        distance from its pivot to one of its rows, rounded up. Cells of
        about 2 sqrt(n) rows rather than sqrt(n) halve the numpy calls of
        _screen's per-cell loops, and with them the GIL hand-overs between
        pool threads that run those loops at once.
        """
        n, d = centered.shape
        G = math.isqrt(n - 1) // 2 + 1
        at = np.arange(G) * n // G
        # the arrays kept are made before the temporaries, so that they lie
        # below them on the C heap and the temporaries' room is given back whole
        self._right32 = np.empty((d + 2, n), dtype=np.float32)
        self._order = np.empty(n, dtype=np.intp)
        pivots = centered[at]
        self._pivot_right = np.zeros((d + 3, G))
        self._pivot_right[:d] = -2.0 * pivots.T
        self._pivot_right[d + 1] = np.einsum("ij,ij->i", pivots, pivots)
        assign = np.empty(n, dtype=np.intp)
        r_sq = np.empty(n)
        scratch = np.empty(KNN_BLOCK_BYTES // 4, dtype=np.uint8)  # blocks of about 800 rows
        for start, P in self._pivot_products(centered, scratch):
            s = slice(start, start + len(P))
            assign[s] = np.argmin(P, axis=1)
            r_sq[s] = tc_sq[s] + P[np.arange(len(P)), assign[s]]
        del scratch
        counts = np.bincount(assign, minlength=G)
        kept = counts > 0
        self._order[:] = np.argsort(assign, kind="stable")
        del assign
        self._bounds = np.concatenate([[0], np.cumsum(counts[kept])])
        # r_sq lies within the float64 kernel's (d + 4) 2^-53 (|t'| + |p'|)^2
        # of the exact squared distance; the last factor covers the square root
        r_sq = r_sq[self._order] + (d + 4) * 2.0**-51 * self._Tc**2
        self._radius = np.sqrt(np.maximum.reduceat(r_sq, self._bounds[:-1])) * (1 + 2.0**-52)
        del r_sq
        self._pivot_right = self._pivot_right.compress(kept, axis=1)
        self._pivot_right[d] = -2.0 * self._radius
        self._pivot_right[d + 2] = -self._radius**2
        right32 = np.empty((d + 2, n), dtype=np.float32)
        right32[:-2] = centered.T
        right32[-2] = tc_sq
        right32[-1] = 1.0
        self._pivot32 = right32.take(at[kept], axis=1)
        np.take(right32, self._order, axis=1, out=self._right32, mode="clip")

    def predict_labels(self, features, true_labels=None) -> np.ndarray:
        if self._X is None:
            raise RuntimeError("learner has not been trained")
        return self._y[self._nearest(_feature_matrix(features, self._X.shape[1]))]

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        labels = self.predict_labels(features)
        counts = np.zeros((len(labels), self.c))
        counts[np.arange(len(labels)), labels] = 1.0
        return (counts + 1.0) / (1 + self.c)

    def _nearest(self, X: np.ndarray) -> np.ndarray:
        """Index of each query's nearest training row; ties go to the lowest.

        _screen decides most rows in float32; the float64 kernel
        (_neg_sq_distances, then argmax) ranks the rest. The answer equals
        the float64 kernel's over all queries, except where two squared
        distances lie within about one ulp: a re-ranked row runs in a smaller
        GEMM, whose sums a BLAS may order differently.
        """
        nearest, rerank = self._screen(X)
        again = np.flatnonzero(rerank)
        for start, neg_d2 in self._neg_sq_distances(X[again]):
            # the first maximum of -d2 is the first minimum of d2: ties go to the lowest row
            nearest[again[start : start + len(neg_d2)]] = np.argmax(neg_d2, axis=1)
        return nearest

    def _screen(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(float32 nearest row, whether the float64 kernel must re-rank it).

        The float32 GEMM runs on q' = q - mean and t' = t - mean, which have
        the same distances. For K = d + 2 terms, a float32 entry lies within
        about (K + 4) 2^-24 (|q'| + T')^2 of the exact distance, centering
        adds about 2^-52 (|q'| + T')^2, and a float64 entry lies within about
        (K + 2) 2^-53 (|q| + T)^2 of it, with T and T' the largest training
        norms. delta doubles the sum, the first two terms rounded up to
        (K + 5) 2^-24 (|q'| + T')^2, and adds (2K + 4) 2^-149 for float32
        underflow, so it bounds how far a float32 entry lies from the float64
        one, and delta / 2 how far it lies from the exact one. A row whose
        float32 runner-up is below best - 2 delta has the same first maximum
        in float64; the other rows are re-ranked, as are those float32 cannot
        hold: (|q'| + T')^2 above KNN_SCREEN_LIMIT, or not finite.

        Only the entries that can reach best - 2 delta are computed. A query
        is screened first against its own cell, the one of its nearest
        pivot, which gives a best entry top. Every row of cell h lies at
        least |q' - p_h| - r_h from q', so where that exceeds
        s = sqrt(3 delta - top), its entries lie below top - 2.5 delta and
        the cell is skipped: where |q'|^2 + |p_h|^2 - 2 q'.p_h - 2 s r_h - r_h^2
        > s^2, a float64 GEMM's result less its error bound, (d + 5) 2^-53
        ((|q'| + T')^2 + (s + 2 T')^2). The other float64 roundings are far
        inside the delta / 2 to spare. Skipping changes neither the best row
        nor whether it is re-ranked.
        """
        K = self._X.shape[1] + 2
        nearest = np.zeros(len(X), dtype=np.intp)
        rerank = np.ones(len(X), dtype=bool)
        if self._right32 is None:
            return nearest, rerank
        # an overflow here makes delta infinite, so those rows are re-ranked
        with np.errstate(invalid="ignore", over="ignore"):
            centered = X - self._mean
            qc_sq = np.einsum("ij,ij->i", centered, centered)
            # (|q'| + T')^2 <= KNN_SCREEN_LIMIT, written without squaring |q'|; false for nan
            rows = np.flatnonzero(qc_sq <= (math.sqrt(KNN_SCREEN_LIMIT) - self._Tc) ** 2)
            q_sq = np.einsum("ij,ij->i", X, X)[rows]
            delta = (
                2 * (K + 5) * 2.0**-24 * (np.sqrt(qc_sq[rows]) + self._Tc) ** 2
                + 2 * (K + 2) * 2.0**-53 * (np.sqrt(q_sq) + self._T) ** 2
                + (2 * K + 4) * 2.0**-149
            )
        if len(rows) < len(X):
            centered, qc_sq = centered[rows], qc_sq[rows]
        # every entry is a float32, so float32 running answers hold them exactly
        top = np.full(len(rows), -np.inf, dtype=np.float32)
        second = np.full(len(rows), -np.inf, dtype=np.float32)
        best = np.zeros(len(rows), dtype=np.intp)
        scratch = np.empty(KNN_BLOCK_BYTES, dtype=np.uint8)
        # a block's cell choices take one bool per query and cell
        span = max(1, KNN_BLOCK_BYTES // len(self._radius))
        steps = np.arange(min(span, len(rows)))
        lists = np.empty((2, len(steps)), dtype=np.intp)
        for start in range(0, len(rows), span):
            s = slice(start, start + span)
            m = len(top[s])
            block = _Screened(top[s], second[s], best[s], scratch, steps[:m], *lists[:, :m])
            self._screen_block(centered[s], qc_sq[s], delta[s], block)
        nearest[rows] = self._order[best]
        rerank[rows] = second >= top - 2 * delta
        return nearest, rerank

    def _screen_block(self, q, qc_sq, delta, block: _Screened) -> None:
        """Screen centered queries q against their own cells, then against
        the other cells that _screen cannot skip."""
        m, d = q.shape
        left = np.empty((m, d + 2), dtype=np.float32)
        np.multiply(q, 2.0, out=left[:, :d])
        left[:, d] = -1.0
        left[:, d + 1] = -qc_sq
        own = np.empty(m, dtype=np.intp)
        self._screen_own_cells(left, own, block)
        need = self._unskipped_cells(q, qc_sq, delta, block.top, own, block.scratch)
        # entries below the own cell's top - 2 delta can change neither answer
        floor = block.top - 2 * delta
        # cells are walked through Python lists, not index arrays of varying
        # length, which numpy would keep (see _carve)
        for h, busy in enumerate(need.any(axis=1).tolist()):
            if busy:
                wanted = np.unpackbits(need[h], count=m).view(bool)
                i = np.compress(wanted, block.steps, out=block.queries[: np.count_nonzero(wanted)])
                self._screen_cell(left, i, *self._bounds[h : h + 2], block, floor)

    def _screen_own_cells(self, left, own, block: _Screened) -> None:
        """Screen the block's queries against their own cells, the ones of
        their nearest pivots in float32, written to own."""
        G = len(self._radius)
        chunk = max(1, block.scratch.nbytes // (4 * G))
        for start in range(0, len(left), chunk):
            rows = left[start : start + chunk]
            (P,) = _carve(block.scratch, ((len(rows), G), np.float32))
            np.argmax(np.matmul(rows, self._pivot32, out=P), axis=1, out=own[start : start + chunk])
        by_cell = np.argsort(own, kind="stable")
        cuts = np.searchsorted(own[by_cell], np.arange(G + 1)).tolist()
        for h in range(G):
            if cuts[h] < cuts[h + 1]:
                queries = by_cell[cuts[h] : cuts[h + 1]]
                self._screen_cell(left, queries, *self._bounds[h : h + 2], block)

    def _unskipped_cells(self, q, qc_sq, delta, top, own, scratch) -> np.ndarray:
        """Whether each cell other than its own must still be screened for
        each query of q, by the skip rule of _screen: one row of bits per
        cell, packed by np.packbits, an eighth of a bool per pair."""
        s_sq = 3 * delta - top
        s = np.sqrt(s_sq)
        limit = s_sq - qc_sq + (q.shape[1] + 5) * 2.0**-53 * (
            (np.sqrt(qc_sq) + self._Tc) ** 2 + (s + 2 * self._Tc) ** 2
        )
        need = np.empty((len(self._radius), (len(q) + 7) // 8), dtype=np.uint8)
        half = scratch.nbytes // 2
        for start, P in self._pivot_products(q, scratch[:half], s):
            i = slice(start, start + len(P))
            (out,) = _carve(scratch[half:], (P.shape, bool))
            unskipped = np.less_equal(P, limit[i, None], out=out)
            unskipped[np.arange(len(P)), own[i]] = False
            need[:, start // 8 : (i.stop + 7) // 8] = np.packbits(unskipped.T, axis=1)
        return need

    def _pivot_products(self, q, scratch, s=None):
        """Yield (start, P) for each block of q's rows, where
        P[i, h] = |p_h|^2 - 2 q_i.p_h, less 2 s_i r_h + r_h^2 if s is given:
        one float64 GEMM [q, s, 1, 1] @ [-2p; -2r; |p|^2; -r^2]. The blocks
        are a multiple of 8 rows (whole bytes of packed bits), and P and the
        GEMM's left-hand side lie in scratch."""
        (m, d), G = q.shape, self._pivot_right.shape[1]
        chunk = min(m, max(8, scratch.nbytes // (8 * (G + d + 3)) // 8 * 8))
        left, buf = _carve(scratch, ((chunk, d + 3), np.float64), ((chunk, G), np.float64))
        left[:, d] = 0.0
        left[:, d + 1] = 1.0
        left[:, d + 2] = s is not None
        for start in range(0, m, chunk):
            block = q[start : start + chunk]
            left[: len(block), :d] = block
            if s is not None:
                left[: len(block), d] = s[start : start + chunk]
            yield start, np.matmul(left[: len(block)], self._pivot_right, out=buf[: len(block)])

    def _screen_cell(self, left, queries, lo, hi, block: _Screened, floor=None) -> None:
        """Screen the float32 left-hand rows of queries against columns
        lo:hi of _right32, as many queries at a time as the scratch buffer
        holds. Without floor, each query's answer becomes these columns':
        the largest entry top, its column best and the runner-up second.
        Given floor, the queries that _reaching finds fold their entries
        into the answers they have; the others keep theirs."""
        K, S = left.shape[1], hi - lo
        right = self._right32[:, lo:hi]
        if floor is not None:
            queries = self._reaching(left, queries, right, floor, block)
        top, second, best = block.top, block.second, block.best
        chunk = max(1, (block.scratch.nbytes - 64) // (4 * (K + S) + _FOLD_BYTES))
        for start in range(0, len(queries), chunk):
            i = queries[start : start + chunk]
            L = len(i)
            rows, B, (col, flat), (v, w, t, s), up = _carve(
                block.scratch, ((L, K), np.float32), ((L, S), np.float32),
                ((2, L), np.intp), ((4, L), np.float32), ((L,), bool),
            )
            left.take(i, axis=0, out=rows, mode="clip")
            np.matmul(rows, right, out=B)
            # each query's largest entry v, at column col; with it struck out,
            # the largest left is its runner-up w
            np.argmax(B, axis=1, out=col)
            np.multiply(block.steps[:L], S, out=flat)
            flat += col
            B.take(flat, out=v, mode="clip")
            B.put(flat, -np.inf)
            np.max(B, axis=1, out=w)
            col += lo
            if floor is None:
                top[i], second[i], best[i] = v, w, col
                continue
            top.take(i, out=t, mode="clip")
            second.take(i, out=s, mode="clip")
            # the new runner-up: the largest of second, w and the lesser of top and v
            np.maximum(s, w, out=s)
            np.maximum(s, np.minimum(t, v, out=w), out=s)
            second[i] = s
            np.greater(v, t, out=up)
            np.maximum(t, v, out=t)
            top[i] = t
            best.take(i, out=flat, mode="clip")
            np.copyto(flat, col, where=up)
            best[i] = flat

    @staticmethod
    def _reaching(left, queries, right, floor, block: _Screened) -> np.ndarray:
        """The queries with an entry against the columns right that reaches
        their floor, in order, written to block.hits. The entries are made
        one column per query, so each query's largest is one pass of
        np.maximum down the columns; the other queries can change nothing."""
        K, S = right.shape
        found = 0
        chunk = max(1, (block.scratch.nbytes - 64) // (4 * (K + S) + 4 + 8 + 1))
        for start in range(0, len(queries), chunk):
            i = queries[start : start + chunk]
            L = len(i)
            rows, BT, v, f, up = _carve(
                block.scratch, ((L, K), np.float32), ((S, L), np.float32), ((L,), np.float32),
                ((L,), np.float64), ((L,), bool),
            )
            left.take(i, axis=0, out=rows, mode="clip")
            np.max(np.matmul(right.T, rows.T, out=BT), axis=0, out=v)
            floor.take(i, out=f, mode="clip")
            reached = np.count_nonzero(np.greater_equal(v, f, out=up))
            np.compress(up, i, out=block.hits[found : found + reached])
            found += reached
        return block.hits[:found]

    def _neg_sq_distances(self, X: np.ndarray):
        """Yield (start, -squared distances) for each block of query rows.

        A block holds at most KNN_BLOCK_BYTES of float64 distances and is a
        view of one buffer that the next block overwrites. One GEMM against
        the augmented training matrix makes it:
        [2q, -1, -|q|^2] @ [t; |t|^2; 1] = -(|t|^2 - 2q.t + |q|^2). The query
        norm does not change the ranking, but its rounding decides near-ties.
        """
        n, d = self._X.shape
        chunk = max(1, min(len(X), KNN_BLOCK_BYTES // (8 * n)))
        buf = np.empty((chunk, n))
        left = np.empty((chunk, d + 2))
        left[:, -2] = -1.0
        for start in range(0, len(X), chunk):
            block = X[start : start + chunk]
            m = len(block)
            np.multiply(block, 2.0, out=left[:m, :d])
            left[:m, -1] = -np.einsum("ij,ij->i", block, block)
            yield start, np.matmul(left[:m], self._right, out=buf[:m])


# --------------------------------------------------------------------------
# softmax classifier trained by SGD
#
# The math below is rank-agnostic: (n, d) inputs with a lone learner's 2-D
# parameters, or parameters stacked on a leading member axis with either
# (n, d) inputs that every member sees or (m, n, d) inputs, member i's batch
# being X[i]. Each member's part is the same BLAS call and reduction as its
# lone call, so the results match bit for bit.


def _param_shapes(c: int, d: int, hidden: Optional[int]) -> dict[str, tuple[int, ...]]:
    """Parameter shapes, in the order their initial values are drawn."""
    if hidden is None:
        return {"w": (d, c), "b": (c,)}
    return {"w1": (d, hidden), "b1": (hidden,), "w2": (hidden, c), "b2": (c,)}


def _forward(params, hidden, X):
    """(hidden ReLU activation or None, logits), both fresh arrays."""
    if hidden is None:
        logits = X @ params["w"]
        logits += params["b"][..., None, :]
        return None, logits
    act = X @ params["w1"]
    act += params["b1"][..., None, :]
    np.maximum(act, 0.0, out=act)
    logits = act @ params["w2"]
    logits += params["b2"][..., None, :]
    return act, logits


_FLOAT64 = np.dtype(np.float64)


def _float_rows(features) -> np.ndarray:
    """features as a float64 ndarray of at least two dims. One that is so
    already comes back as it is, without the np.asarray and np.atleast_2d
    calls that would return it unchanged on every SGD step."""
    if type(features) is np.ndarray and features.dtype is _FLOAT64 and features.ndim >= 2:
        return features
    return np.atleast_2d(np.asarray(features, dtype=np.float64))


def _feature_matrix(features, d: int) -> np.ndarray:
    X = _float_rows(features)
    if X.shape[1] != d:
        raise ValueError(f"expected {d} features, got {X.shape[1]}")
    return X


def _probabilities(params, hidden, X):
    _, logits = _forward(params, hidden, X)
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits, out=logits)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _check_loss(loss) -> None:
    """Reject a non-finite or runaway batch loss; for a stacked loss, name
    the first member that fails."""
    if not loss.ndim:
        if not -math.inf < loss <= DIVERGENCE_LIMIT:
            raise DivergenceError(f"batch loss {loss} is not finite or exceeds limit")
        return
    for i, value in enumerate(loss.tolist()):
        if not -math.inf < value <= DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"member {i + 1} of {len(loss)}: batch loss {value} is not finite or exceeds limit"
            )


class SoftmaxLearner(Learner):
    """Multinomial logistic regression, optionally one ReLU hidden layer.

    All parameters live in one flat vector, in sorted name order, and
    `params` holds named views into it: write into an entry in place, as
    rebinding it would detach it from the vector. The gradient has its own
    flat vector and views, reused by every sgd_step, so an update is one
    vector operation.
    """

    def __init__(self, c: int, d: int, cfg: TrainConfig, hidden: Optional[int] = None):
        if c < 2:
            raise ValueError(f"class count must be >= 2, got {c}")
        if hidden is not None and hidden < 1:
            raise ValueError(f"hidden width must be >= 1, got {hidden}")
        self.c = c
        self.d = d
        self.cfg = cfg
        self.hidden = hidden
        # label shape -> 0, c, 2c, ...: where each row's class 0 lies in the
        # flat (..., c) logits; kept per learner, so none outlives it
        self._label_offsets: dict[tuple[int, ...], np.ndarray] = {}
        shapes = _param_shapes(c, d, hidden)
        self._bind(np.empty(sum(math.prod(s) for s in shapes.values())))
        rng = np.random.default_rng(cfg.seed)
        for name, shape in shapes.items():
            self.params[name][...] = INIT_SCALE * rng.standard_normal(shape)

    def _bind(self, flat: np.ndarray) -> None:
        """Make flat the parameter vector, with params and a fresh gradient
        buffer viewing it."""
        self._flat = flat
        self.params = self._views(flat)
        self._grad = np.empty_like(flat)
        self._grads = self._views(self._grad)

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into flat's last axis, in sorted name order; a stack's
        member axis carries over to every view."""
        shapes = _param_shapes(*self.arch)
        views, offset = {}, 0
        for name in sorted(shapes):
            size = math.prod(shapes[name])
            views[name] = flat[..., offset : offset + size].reshape(flat.shape[:-1] + shapes[name])
            offset += size
        return views

    @property
    def arch(self) -> tuple[int, int, Optional[int]]:
        """(c, d, hidden): learners that share it can be stacked."""
        return self.c, self.d, self.hidden

    @staticmethod
    def stack(*learners: "SoftmaxLearner") -> "SoftmaxLearner":
        """One learner whose parameter vector stacks the learners' as rows.

        Its outputs are member first, and its sgd_step steps member i on
        (X[i], y[i]), checking every loss before updating any. Each
        member's vector is rebound to its row of the stack, so a member
        still predicts, flattens and steps on its own.
        """
        if any(f.arch != learners[0].arch for f in learners):
            archs = " and ".join(str(f.arch) for f in learners)
            raise TypeError(f"stacked learners need one (c, d, hidden), got {archs}")
        stacked = copy.copy(learners[0])
        stacked._bind(np.stack([f._flat for f in learners]))
        for i, f in enumerate(learners):
            f._bind(stacked._flat[i])
        return stacked

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        return _probabilities(self.params, self.hidden, _feature_matrix(features, self.d))

    def _loss_and_grad(self, X, y, grads: dict[str, np.ndarray]):
        """Mean cross-entropy per batch; its analytic gradient is written
        into the arrays of grads. Labels must lie in [0, c), as a
        LabeledDataset's do: one outside picks another row's entry."""
        X = _float_rows(X)
        y = np.asarray(y, dtype=np.int64)
        act, logits = _forward(self.params, self.hidden, X)
        if y.shape != logits.shape[:-1]:
            # a stacked learner needs member-first (m, k) labels, one row per member
            raise ValueError(
                f"labels of shape {y.shape} do not fit a batch of {logits.shape[:-1]} rows"
            )
        n, c = logits.shape[-2:]
        log_probs = logits  # shifted by the row maximum, then normalised, in place
        log_probs -= np.maximum.reduce(log_probs, axis=-1, keepdims=True)
        log_probs -= np.log(np.add.reduce(np.exp(log_probs), axis=-1, keepdims=True))
        # each row's label, by position in the flat array
        offsets = self._label_offsets.get(y.shape)
        if offsets is None:
            offsets = self._label_offsets[y.shape] = np.arange(0, y.size * c, c).reshape(y.shape)
        at = offsets + y
        # sum / -n is -(sum / n), what -ndarray.mean computes, in one call
        loss = np.add.reduce(log_probs.take(at), axis=-1) / -n

        dlogits = np.exp(log_probs, out=log_probs)
        # less one at each label; _forward's logits are a fresh C-ordered
        # array, so ravel() is a view of them
        dlogits.ravel()[at] -= 1.0
        dlogits /= n
        if self.hidden is None:
            np.matmul(X.swapaxes(-1, -2), dlogits, out=grads["w"])
            np.add.reduce(dlogits, axis=-2, out=grads["b"])
            return loss
        dpre = dlogits @ self.params["w2"].swapaxes(-1, -2)
        dpre *= act > 0.0
        np.matmul(X.swapaxes(-1, -2), dpre, out=grads["w1"])
        np.add.reduce(dpre, axis=-2, out=grads["b1"])
        np.matmul(act.swapaxes(-1, -2), dlogits, out=grads["w2"])
        np.add.reduce(dlogits, axis=-2, out=grads["b2"])
        return loss

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """Mean cross-entropy over the batch and its analytic gradient, a
        fresh vector laid out as flat_params; a stack's have one row per
        member."""
        grad = np.empty_like(self._flat)
        return self._loss_and_grad(X, y, self._views(grad)), grad

    def sgd_step(self, X: np.ndarray, y: np.ndarray, lr: float) -> float | np.ndarray:
        loss = self._loss_and_grad(X, y, self._grads)
        _check_loss(loss)
        # the gradient buffer is rewritten by the next step, so it is scaled in place
        self._grad *= lr
        self._flat -= self._grad
        return loss

    def train(self, D: LabeledDataset) -> "SoftmaxLearner":
        train_stacked([self], D.features, D.observed_labels, [np.arange(D.n)])
        return self

    def flat_params(self) -> np.ndarray:
        """A copy of the parameter vector; a stack's has one row per member."""
        return self._flat.copy()


def train_stacked(learners: list[SoftmaxLearner], features, labels, rows) -> None:
    """Train learners[i] on rows[i] of (features, labels), exactly as its
    train() would on those rows alone.

    Each pass draws every member's row order from its own
    default_rng(seed + 1) and gathers it into that member's row of one
    (m, n_max, d) buffer. Batch j is one stacked step where every member's
    batch j has the same length, and a lone step per member otherwise (the
    tails of unequal folds). A stacked step is bit-identical to lone steps
    and each member's batch sequence is its own, so the grouping never
    shows in the parameters. The members must share one epoch count,
    batch size and learning rate.
    """
    cfg = learners[0].cfg
    if len({replace(f.cfg, seed=0) for f in learners}) > 1:
        raise ValueError("stacked learners need one epoch count, batch size and learning rate")
    sizes = [len(r) for r in rows]
    if min(sizes) == 0:
        raise ValueError("cannot train on an empty dataset")
    m, n_max, size, lr = len(learners), max(sizes), cfg.batch_size, cfg.learning_rate
    X = np.empty((m, n_max, features.shape[1]))
    y = np.empty((m, n_max), dtype=np.int64)
    # a lone learner steps itself on 2-D slices; no stack is built
    stacked = SoftmaxLearner.stack(*learners) if m > 1 else learners[0]
    Xs, ys = (X, y) if m > 1 else (X[0], y[0])
    # every pass refills X and y in place, so one list of (learner, batch
    # views) serves them all
    batches = []
    for start in range(0, n_max, size):
        ends = [min(n, start + size) for n in sizes]
        if len(set(ends)) == 1:
            batches.append((stacked, Xs[..., start : ends[0], :], ys[..., start : ends[0]]))
            continue
        for i, (f, end) in enumerate(zip(learners, ends)):
            if start < end:
                batches.append((f, X[i, start:end], y[i, start:end]))
    rngs = [np.random.default_rng(f.cfg.seed + 1) for f in learners]
    for _ in range(cfg.epochs):
        for i, (r, rng) in enumerate(zip(rows, rngs)):
            picked = r[rng.permutation(len(r))]
            X[i, : len(r)], y[i, : len(r)] = features[picked], labels[picked]
        for f, Xb, yb in batches:
            f.sgd_step(Xb, yb, lr)


# --------------------------------------------------------------------------
# factories: a fresh learner comes only from a factory or constructor call

LearnerFactory = Callable[[int], Learner]


def oracle_factory(T: TransitionMatrix) -> LearnerFactory:
    return lambda seed: OracleLearner(T, seed)


def knn_factory() -> LearnerFactory:
    return lambda seed: KnnLearner()


def softmax_factory(
    c: int, d: int, cfg: TrainConfig, hidden: Optional[int] = None
) -> LearnerFactory:
    return lambda seed: SoftmaxLearner(c, d, replace(cfg, seed=seed), hidden)
