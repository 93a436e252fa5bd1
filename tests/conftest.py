import contextlib
import io
import shlex
from pathlib import Path

import numpy as np
import pytest

from labelnoise.cli import main
from labelnoise.data import BlobSpec, LabeledDataset, make_blobs
from labelnoise.learners import Learner

README = Path(__file__).resolve().parents[1] / "README.md"


class StubLearner(Learner):
    """Training-free learner for hand-traceable selection tests.

    Predicts the class encoded in each sample's first feature. When a
    second feature column exists it is used verbatim as the per-sample
    loss, so loss-ranking behavior can be scripted exactly.
    """

    def __init__(self, c: int):
        self.c = c

    def train(self, D) -> "StubLearner":
        return self

    def predict_proba(self, features, true_labels=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        labels = np.clip(X[:, 0].astype(np.int64), 0, self.c - 1)
        probs = np.full((len(X), self.c), 0.1 / self.c)
        probs[np.arange(len(X)), labels] += 0.9
        return probs

    def losses(self, features, labels, true_labels=None) -> np.ndarray:
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.shape[1] >= 2:
            return X[:, 1].copy()
        return super().losses(features, labels, true_labels)


def stub_factory(c: int):
    return lambda seed: StubLearner(c)


def hand_dataset(pred_labels, observed, true=None, losses=None, c=None):
    """Dataset whose first feature encodes the stub's prediction."""
    pred = np.asarray(pred_labels, dtype=np.float64)
    cols = [pred]
    if losses is not None:
        cols.append(np.asarray(losses, dtype=np.float64))
    features = np.column_stack(cols)
    observed = np.asarray(observed, dtype=np.int64)
    c = int(c if c is not None else max(observed.max(), int(pred.max())) + 1)
    return LabeledDataset(
        features=features,
        observed_labels=observed,
        ids=np.arange(len(observed), dtype=np.int64),
        c=c,
        true_labels=None if true is None else np.asarray(true, dtype=np.int64),
    )


@pytest.fixture
def tiny_blobs() -> LabeledDataset:
    return make_blobs(
        BlobSpec(c=4, d=3, n_per_class=25, separation=6.0, spread=1.0, seed=7)
    )


def set_flat_params(learner, flat) -> None:
    """Overwrite a softmax learner's parameter vector in place, so a
    pairing that stacks it stays intact."""
    learner._flat[...] = flat


def fd_gradient(learner, X, y, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of the mean batch loss."""
    base = learner.flat_params()
    grad = np.empty_like(base)
    for i in range(len(base)):
        probe = base.copy()
        probe[i] = base[i] + h
        set_flat_params(learner, probe)
        up = learner.loss_and_grad(X, y)[0]
        probe[i] = base[i] - h
        set_flat_params(learner, probe)
        down = learner.loss_and_grad(X, y)[0]
        grad[i] = (up - down) / (2.0 * h)
    set_flat_params(learner, base)
    return grad


def max_relative_gradient_error(learner, X, y) -> float:
    """Worst relative disagreement between analytic and FD gradients.

    Relative to max(1e-3, |analytic|, |fd|) per coordinate so near-zero
    components do not blow up the ratio.
    """
    analytic = learner.loss_and_grad(X, y)[1]
    fd = fd_gradient(learner, X, y)
    denom = np.maximum(1e-3, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def readme_commands() -> list[tuple[str, str]]:
    """(command, the line quoted under it) for each `$ labelnoise` line of
    README.md, its continuation lines joined and that prefix cut off."""
    lines = README.read_text().replace("\\\n", " ").splitlines()
    return [(line[len("$ labelnoise "):], lines[i + 1])
            for i, line in enumerate(lines) if line.startswith("$ labelnoise ")]


def run_readme(commands) -> list[str]:
    """Run README.md's library snippet, then each `labelnoise` command in
    commands, in the working directory; the stdout of each command."""
    exec(README.read_text().split("```python\n")[1].split("```")[0], {})
    printed = []
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(shlex.split(command)) == 0, command
        printed.append(out.getvalue())
    return printed
