import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hand_dataset
from labelnoise import data as data_mod
from labelnoise.cli import main
from labelnoise.cotraining import (
    CoTrainConfig,
    _CyclingSampler,
    batch_mix,
    cotrain,
    keep_count,
    resolve_eps_s,
)
from labelnoise.data import BlobSpec, corrupt_dataset, make_blobs, split_per_class
from labelnoise.learners import DivergenceError, TrainConfig, knn_factory, softmax_factory
from labelnoise.noise import NoiseSpec


def blob_set(seed, c=3, d=4, n_per_class=13, separation=8.0):
    return make_blobs(
        BlobSpec(c=c, d=d, n_per_class=n_per_class, separation=separation, spread=1.0, seed=seed)
    )


def cotrain_cfg(**kw):
    base = dict(
        warmup_epochs=1,
        total_epochs=6,
        base_batch=8,
        eps_s=0.2,
        seed=0,
        learning_rate=0.2,
    )
    base.update(kw)
    return CoTrainConfig(**base)


def linear_factory(c=3, d=4, seed_cfg=None):
    cfg = seed_cfg or TrainConfig(epochs=1, batch_size=8, learning_rate=0.2, seed=0)
    return softmax_factory(c, d, cfg)


# ---------------------------------------------------------------------------
# schedules


def test_keep_count_ramp_values():
    assert keep_count(0, 32, 0.5) == 32
    assert keep_count(5, 32, 0.5) == 24
    assert keep_count(10, 32, 0.5) == 16
    assert keep_count(25, 32, 0.5) == 16  # held after the ramp
    assert keep_count(3, 10, 0.0) == 10


def test_keep_count_floor_is_one():
    assert keep_count(10, 2, 0.9) == 1
    assert keep_count(50, 1, 0.99) == 1


def test_keep_count_rejects_negative_epoch():
    with pytest.raises(ValueError, match="epoch"):
        keep_count(-1, 32, 0.5)


@settings(max_examples=100, deadline=None)
@given(
    e=st.integers(min_value=0, max_value=200),
    total=st.integers(min_value=1, max_value=512),
    eps=st.floats(min_value=0.0, max_value=0.999),
)
def test_keep_count_bounds_and_plateau(e, total, eps):
    k = keep_count(e, total, eps)
    assert 1 <= k <= total
    assert keep_count(e + 1, total, eps) <= k  # drop rate only ramps up
    if e >= 10:
        assert k == keep_count(10, total, eps)


def test_batch_mix_examples():
    assert batch_mix(100, 100, 32) == (32, 16)  # capped at half the base
    assert batch_mix(100, 10, 32) == (32, 3)
    assert batch_mix(100, 0, 32) == (32, 0)
    assert batch_mix(10, 1000, 32) == (32, 16)


def test_batch_mix_validation():
    with pytest.raises(ValueError, match="base batch"):
        batch_mix(10, 10, 0)
    with pytest.raises(ValueError, match="empty"):
        batch_mix(0, 10, 32)


@settings(max_examples=100, deadline=None)
@given(
    size_s=st.integers(min_value=1, max_value=10_000),
    size_c=st.integers(min_value=0, max_value=10_000),
    base=st.integers(min_value=1, max_value=256),
)
def test_batch_mix_candidate_share_bounded(size_s, size_c, base):
    b_s, b_c = batch_mix(size_s, size_c, base)
    assert b_s == base
    assert 0 <= b_c <= round(base * 0.5)
    if size_c == 0:
        assert b_c == 0


@pytest.mark.parametrize(
    "bad",
    [
        dict(warmup_epochs=7),  # exceeds total
        dict(warmup_epochs=-1),
        dict(base_batch=1),
        dict(eps_s=1.0),
        dict(eps_s=-0.1),
        dict(learning_rate=0.0),
        dict(decay_factor=0.0),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        cotrain_cfg(**bad)


def test_config_rate_schedule():
    cfg = cotrain_cfg(learning_rate=0.4, decay_factor=0.5, decay_epochs=(3,))
    assert cfg.rate_at(2) == 0.4
    assert cfg.rate_at(3) == pytest.approx(0.2, rel=1e-12)
    assert cfg.rate_at(6) == pytest.approx(0.2, rel=1e-12)


# ---------------------------------------------------------------------------
# batch stream


def test_cycling_sampler_covers_every_row_each_cycle():
    sampler = _CyclingSampler(7, np.random.default_rng(0))
    drawn = np.concatenate([sampler.take(3) for _ in range(7)])  # three cycles
    counts = np.bincount(drawn, minlength=7)
    assert np.array_equal(counts, np.full(7, 3))


def test_cycling_sampler_take_spanning_a_wrap():
    sampler = _CyclingSampler(5, np.random.default_rng(1))
    first = sampler.take(8)
    assert sorted(first[:5].tolist()) == [0, 1, 2, 3, 4]
    assert len(set(first[5:].tolist())) == 3  # prefix of a fresh shuffle


def test_cycling_sampler_reshuffles_between_cycles():
    sampler = _CyclingSampler(50, np.random.default_rng(2))
    assert not np.array_equal(sampler.take(50), sampler.take(50))


# ---------------------------------------------------------------------------
# noise ratio of the selected set


def test_resolve_eps_s_measured_from_true_labels():
    D = hand_dataset(
        pred_labels=[0, 0, 1, 1, 0, 0, 1, 1],
        observed=[0, 0, 1, 1, 1, 1, 0, 0],
        true=[0, 0, 1, 1, 0, 0, 1, 1],
        c=2,
    )
    eps_s, source = resolve_eps_s([0, 1, 2, 4], D, epsilon_hat=0.9)
    assert source == "measured"
    assert eps_s == pytest.approx(0.25)


def test_resolve_eps_s_estimated_without_true_labels():
    D = hand_dataset(pred_labels=[0] * 10, observed=list(range(10)), c=10)
    eps_s, source = resolve_eps_s([0, 1], D, epsilon_hat=0.5)
    assert source == "estimated"
    assert eps_s == pytest.approx(0.1, abs=1e-12)  # purity at ratio 0.5, 10 classes


# ---------------------------------------------------------------------------
# the exchange loop


def replay_cotrain(S, C, cfg, factory):
    """Documented algorithm, reimplemented: shared cycling batch streams,
    per-learner stable smallest-loss keeps sized by the ramp schedule,
    cross updates (f1 steps on f2's keeps first)."""

    def cycler(n, rng):
        state = {"order": rng.permutation(n), "pos": 0}

        def take(count):
            out = []
            while len(out) < count:
                if state["pos"] == n:
                    state["order"] = rng.permutation(n)
                    state["pos"] = 0
                grab = min(count - len(out), n - state["pos"])
                out.extend(state["order"][state["pos"] : state["pos"] + grab].tolist())
                state["pos"] += grab
            return np.asarray(out, dtype=np.int64)

        return take

    f1, f2 = factory(cfg.seed), factory(cfg.seed + 1)
    size_c = 0 if C is None else C.n
    base, b_c = batch_mix(S.n, size_c, cfg.base_batch)
    take_s = cycler(S.n, np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])))
    take_c = (
        cycler(size_c, np.random.default_rng(np.random.SeedSequence([cfg.seed, 2])))
        if size_c
        else None
    )
    n_batches = math.ceil(S.n / base)
    for e in range(cfg.total_epochs):
        lr = cfg.rate_at(e + 1)
        for b in range(n_batches):
            count = S.n - b * base if b == n_batches - 1 else base
            rows = take_s(min(base, count))
            bx, by = S.features[rows], S.observed_labels[rows]
            if e >= cfg.warmup_epochs and b_c > 0:
                c_rows = take_c(b_c)
                bx = np.vstack([bx, C.features[c_rows]])
                by = np.concatenate([by, C.observed_labels[c_rows]])
            k = keep_count(e, len(by), cfg.eps_s)
            keep1 = np.argsort(f1.losses(bx, by), kind="stable")[:k]
            keep2 = np.argsort(f2.losses(bx, by), kind="stable")[:k]
            f1.sgd_step(bx[keep2], by[keep2], lr)
            f2.sgd_step(bx[keep1], by[keep1], lr)
    return f1, f2


def test_full_run_matches_documented_algorithm():
    # exercises a short final batch (37 = 4*8 + 5), candidate mixing,
    # cycling wrap on a small candidate pool, warm-up gating, and the ramp
    S = corrupt_dataset(blob_set(2), NoiseSpec(kind="symmetric", ratio=0.2, seed=5)).subset(
        range(37)
    )
    C = corrupt_dataset(blob_set(9), NoiseSpec(kind="symmetric", ratio=0.2, seed=6)).subset(
        range(11)
    )
    cfg = cotrain_cfg(warmup_epochs=1, total_epochs=14, base_batch=8, eps_s=0.4, seed=3)
    factory = linear_factory()
    f1, f2, _ = cotrain(S, C, cfg, factory)
    r1, r2 = replay_cotrain(S, C, cfg, factory)
    assert np.array_equal(f1.flat_params(), r1.flat_params())
    assert np.array_equal(f2.flat_params(), r2.flat_params())


def test_warmup_only_run_matches_documented_algorithm():
    S = blob_set(4).subset(range(30))
    cfg = cotrain_cfg(warmup_epochs=3, total_epochs=3, eps_s=0.0, seed=1)
    factory = linear_factory()
    f1, f2, _ = cotrain(S, None, cfg, factory)
    r1, r2 = replay_cotrain(S, None, cfg, factory)
    assert np.array_equal(f1.flat_params(), r1.flat_params())
    assert np.array_equal(f2.flat_params(), r2.flat_params())


def test_candidates_untouched_while_warm():
    S = blob_set(2)
    C = corrupt_dataset(blob_set(9), NoiseSpec(kind="symmetric", ratio=0.3, seed=1))
    cfg = cotrain_cfg(warmup_epochs=4, total_epochs=4)
    with_c = cotrain(S, C, cfg, linear_factory())
    without_c = cotrain(S, None, cfg, linear_factory())
    assert np.array_equal(with_c[0].flat_params(), without_c[0].flat_params())
    assert np.array_equal(with_c[1].flat_params(), without_c[1].flat_params())
    assert all(r.c_samples_used == 0 for r in with_c[2].records)


def test_clean_selected_set_reaches_high_accuracy():
    from labelnoise.data import split_per_class

    S, test = split_per_class(blob_set(2, n_per_class=60), 40)
    cfg = cotrain_cfg(warmup_epochs=2, total_epochs=20, base_batch=16, eps_s=0.0,
                      learning_rate=0.5)
    f1, f2, report = cotrain(S, None, cfg, linear_factory(), clean_test=test)
    last = report.records[-1]
    assert last.acc_f1 >= 0.99
    assert last.acc_f2 >= 0.99
    assert np.mean(f1.predict_labels(test.features) == test.observed_labels) == last.acc_f1


def test_accuracy_is_nan_without_a_test_set():
    S = blob_set(2)
    _, _, report = cotrain(S, None, cotrain_cfg(total_epochs=2, warmup_epochs=0), linear_factory())
    assert all(math.isnan(r.acc_f1) and math.isnan(r.acc_f2) for r in report.records)


def test_report_bookkeeping():
    S = blob_set(5, n_per_class=6).subset(range(16))  # 16 samples, two batches of 8
    C = corrupt_dataset(blob_set(7), NoiseSpec(kind="symmetric", ratio=0.3, seed=2)).subset(
        range(4)
    )
    cfg = cotrain_cfg(warmup_epochs=1, total_epochs=12, base_batch=8, eps_s=0.4, seed=4)
    _, _, report = cotrain(S, C, cfg, linear_factory())
    assert len(report.records) == 12
    assert [r.epoch for r in report.records] == list(range(1, 13))
    assert report.eps_s == 0.4
    assert report.eps_s_source == "given"
    b_c = batch_mix(16, 4, 8)[1]
    assert b_c == 2
    assert report.records[0].c_samples_used == 0  # warm epoch
    assert all(r.c_samples_used == 2 * b_c for r in report.records[1:])
    assert report.records[0].n_e == keep_count(0, 8, 0.4)
    assert report.records[1].n_e == keep_count(1, 8 + b_c, 0.4)
    assert report.records[11].n_e == keep_count(11, 8 + b_c, 0.4)


def test_exchange_uses_the_other_learners_keeps():
    # ids equal row indices, so a step's feature rows identify the kept ids
    from labelnoise.data import LabeledDataset
    from labelnoise.learners import SoftmaxLearner

    rng = np.random.default_rng(8)
    n = 24
    features = rng.standard_normal((n, 3))
    S = LabeledDataset(
        features=features,
        observed_labels=rng.integers(0, 2, size=n),
        ids=np.arange(n, dtype=np.int64),
        c=2,
    )

    def canon(rows):
        rows = np.asarray(rows)
        return rows[np.lexsort(rows.T)]

    steps = {0: [], 1: []}

    def recording_factory(seed):
        index = seed - 11  # cfg.seed and cfg.seed + 1
        learner = SoftmaxLearner(2, 3, TrainConfig(epochs=1, batch_size=8,
                                                   learning_rate=0.01, seed=seed))
        original = learner.sgd_step

        def record(X, y, lr):
            steps[index].append(np.array(X, copy=True))
            return original(X, y, lr)

        learner.sgd_step = record
        return learner

    hooks = []
    cfg = cotrain_cfg(warmup_epochs=0, total_epochs=13, base_batch=8, eps_s=0.5,
                      seed=11, learning_rate=0.01)
    cotrain(S, None, cfg, recording_factory,
            on_batch=lambda e, b, ids, k1, k2: hooks.append((e, b, ids, k1, k2)))

    assert len(hooks) == len(steps[0]) == len(steps[1]) == 13 * 3
    for (e, b, ids, k1, k2), x1, x2 in zip(hooks, steps[0], steps[1]):
        expected = keep_count(e, len(ids), 0.5)
        assert len(k1) == len(k2) == expected
        assert set(k1.tolist()) <= set(ids.tolist())
        assert np.array_equal(canon(x1), canon(features[np.sort(k2)]))  # f1 <- f2's keeps
        assert np.array_equal(canon(x2), canon(features[np.sort(k1)]))
    # with partial keeps and different seeds the learners must sometimes
    # rank the batch differently, so the cross-update direction is observable
    assert any(
        not np.array_equal(np.sort(k1), np.sort(k2)) for e, b, ids, k1, k2 in hooks if e >= 1
    )


def test_empty_selected_set_rejected():
    S = blob_set(2).subset([])
    with pytest.raises(ValueError, match="empty"):
        cotrain(S, None, cotrain_cfg(), linear_factory())


def test_non_gradient_learner_rejected():
    with pytest.raises(TypeError, match="gradient"):
        cotrain(blob_set(2), None, cotrain_cfg(), knn_factory(1))


def test_divergence_propagates():
    cfg = cotrain_cfg(warmup_epochs=0, total_epochs=3, learning_rate=1e9)
    with pytest.raises(DivergenceError):
        cotrain(blob_set(2), None, cfg, linear_factory())


# ---------------------------------------------------------------------------
# CSV output


def test_cotrain_csv_layout(tmp_path):
    train, test = split_per_class(blob_set(5, n_per_class=20), 14)
    data_mod.save(train, tmp_path / "in")
    data_mod.save(test, tmp_path / "test")
    # 30 selected, 12 candidates: candidate batches of round(8 * 12/30) = 3
    selection = {"selected": train.ids[:30].tolist(), "candidate": train.ids[30:].tolist(),
                 "removed": [], "epsilon_hat": 0.2, "history": [], "halt_reason": None}
    (tmp_path / "selection.json").write_text(json.dumps(selection))
    argv = ["cotrain", "--in", str(tmp_path / "in"), "--selection",
            str(tmp_path / "selection.json"), "--eps-s", "0.2", "--warmup", "1",
            "--epochs", "2", "--batch", "8", "--lr", "0.2"]
    assert main(argv + ["--test", str(tmp_path / "test"), "--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    rows = [line.split(",") for line in (tmp_path / "a/cotrain.csv").read_text().splitlines()]
    assert rows[0] == ["epoch", "n_e", "acc_f1", "acc_f2", "c_samples_used"]
    assert [row[0] for row in rows[1:]] == ["1", "2"]
    assert rows[1][1] == str(keep_count(0, 8, 0.2))
    assert rows[2][1] == str(keep_count(1, 8 + 3, 0.2))
    assert rows[1][4] == "0" and rows[2][4] == str(math.ceil(30 / 8) * 3)
    final = json.loads((tmp_path / "a/final.json").read_text())
    assert [float(v) for v in rows[2][2:4]] == [final["acc_f1"], final["acc_f2"]]
    no_test = (tmp_path / "b/cotrain.csv").read_text().splitlines()
    assert [line.split(",")[2:4] for line in no_test[1:]] == [["nan", "nan"]] * 2
