import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket import nn
from fedmarket.data import LabeledDataset, gen_blobs
from fedmarket.distill import teacher_targets, uniform_weights
from fedmarket.errors import ConfigError
from fedmarket.fed import (
    FLRoundConfig,
    evaluate,
    fedavg_aggregate,
    feddf_round,
    local_train,
    run_fl_round,
)
from fedmarket.market import DataOwner
from fedmarket.nn import (
    Mlp,
    clone_model,
    forward,
    forward_cached,
    init_adam,
    init_mlp,
    train_step,
)
from oracles import distill_loss, split_per_class


def model_with(seed, dims=(4, 6, 3), active=None):
    active = active if active is not None else set(range(dims[-1]))
    return init_mlp(dims[0], list(dims[1:-1]), dims[-1], active, np.random.default_rng(seed))


# ---------------------------------------------------------------- fedavg

def test_fedavg_equal_sizes_is_mean():
    a, b = model_with(0), model_with(1)
    out = fedavg_aggregate([(a, 100), (b, 100)])
    assert np.abs(out.flat - (a.flat + b.flat) / 2).max() < 1e-12


def test_fedavg_single_model_identity():
    a = model_with(2)
    out = fedavg_aggregate([(a, 10)])
    assert np.array_equal(a.flat, out.flat)


def test_fedavg_shard_weighted_blend():
    a, b = model_with(3), model_with(4)
    out = fedavg_aggregate([(a, 1000), (b, 3000)])
    assert np.abs(out.flat - (0.25 * a.flat + 0.75 * b.flat)).max() < 1e-12


def test_fedavg_weights_match_rational_arithmetic():
    # integer parameters make the float blend exactly representable
    def int_model(fill):
        m = model_with(0)
        m.flat[:] = fill
        return m

    a, b = int_model(1.0), int_model(5.0)
    out = fedavg_aggregate([(a, 1), (b, 3)])
    expected = Fraction(1, 4) * 1 + Fraction(3, 4) * 5
    assert float(expected) == out.weights[0][0, 0]


def test_fedavg_identical_models_unchanged():
    a = model_with(5)
    out = fedavg_aggregate([(a, 7), (clone_model(a), 13), (clone_model(a), 1)])
    assert np.abs(out.flat - a.flat).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=4))
def test_fedavg_is_convex_combination(sizes):
    models = [model_with(i) for i in range(len(sizes))]
    out = fedavg_aggregate(list(zip(models, sizes)))
    total = sum(sizes)
    expected = sum((s / total) * m.flat for m, s in zip(models, sizes))
    assert np.abs(out.flat - expected).max() < 1e-12


def test_fedavg_architecture_mismatch_rejected():
    a = model_with(0, dims=(4, 6, 3))
    b = model_with(0, dims=(4, 5, 3))
    with pytest.raises(ValueError):
        fedavg_aggregate([(a, 1), (b, 1)])
    c = model_with(0, dims=(4, 6, 3), active={0, 1})
    with pytest.raises(ValueError):
        fedavg_aggregate([(a, 1), (c, 1)])


# ---------------------------------------------------------------- owners and rounds

def _owner(oid, ds):
    labels = frozenset(int(c) for c in np.unique(ds.labels))
    return DataOwner(oid, ds, labels)


def _split_owners(ds, n):
    per = len(ds) // n
    out = []
    for i in range(n):
        sl = slice(i * per, (i + 1) * per)
        out.append(
            _owner(i, LabeledDataset(ds.features[sl], ds.labels[sl], ds.num_classes))
        )
    return out


def test_single_owner_round_equals_local_training():
    ds = gen_blobs(3, 4, 60, 1.0, 0)
    owner = _owner(0, ds)
    model = model_with(1)
    cfg = FLRoundConfig(local_epochs=2, batch_size=16)
    out = run_fl_round(model, [owner], cfg, np.random.default_rng(42))
    [manual] = local_train(model, [ds], 2, 16, cfg.lr, np.random.default_rng(42).spawn(1))
    assert np.array_equal(out.flat, manual.flat)


def test_local_train_keeps_shard_order_and_solo_bits():
    ds = gen_blobs(3, 5, 40, 1.0, 33)
    # sizes 32, 23, 32 with batch 16: the two 32-row shards form one stack
    # around the 23-row one, whose last batch is short
    cuts = [0, 32, 55, 87]
    shards = [
        LabeledDataset(ds.features[a:b], ds.labels[a:b], 3) for a, b in zip(cuts, cuts[1:])
    ]
    model = model_with(34, dims=(5, 7, 3))
    models = local_train(model, shards, 2, 16, 0.001, np.random.default_rng(35).spawn(3))
    assert len(models) == len(shards)
    for shard, rng, trained in zip(shards, np.random.default_rng(35).spawn(3), models):
        [alone] = local_train(model, [shard], 2, 16, 0.001, [rng])
        assert np.array_equal(trained.flat, alone.flat)
        assert not np.array_equal(trained.flat, model.flat)
    assert not np.array_equal(models[0].flat, models[2].flat)


def _sequential_round(model, owners, cfg, rng):
    """Reference round: each owner trained alone, one train_step per batch."""
    ordered = sorted(owners, key=lambda o: o.id)
    trained = []
    for owner, orng in zip(ordered, rng.spawn(len(ordered))):
        local = clone_model(model)
        opt = init_adam(local.flat, lr=cfg.lr)
        shard = owner.train_shard
        for _ in range(cfg.local_epochs):
            order = orng.permutation(len(shard))
            for start in range(0, len(shard), cfg.batch_size):
                sel = order[start : start + cfg.batch_size]
                train_step(local, opt, shard.features[sel], shard.labels[sel])
        trained.append((local, len(shard)))
    return fedavg_aggregate(trained)


# SHA-256 of the aggregated parameters of the mixed-size round below. It pins
# the training arithmetic (forward, backward, Adam, FedAvg) bit for bit, which
# output goldens miss when no prediction flips.
ROUND_DIGEST = "29d7835cbc6cbd1e511cf65d0fdba5ec7a5276a90663feebd4f337cdd786c56e"


def test_lockstep_round_equals_sequential_training():
    ds = gen_blobs(4, 5, 200, 1.0, 30)
    pool = LabeledDataset(ds.features[ds.labels < 3], ds.labels[ds.labels < 3], 4)
    # sizes 32 and 23 with batch 16: two lockstep groups, one with a short last batch
    sizes = {3: 32, 0: 23, 4: 32, 1: 32, 2: 23}
    owners, at = [], 0
    for oid, size in sizes.items():
        sl = slice(at, at + size)
        owners.append(_owner(oid, LabeledDataset(pool.features[sl], pool.labels[sl], 4)))
        at += size
    model = init_mlp(5, [7, 6], 4, {0, 1, 2}, np.random.default_rng(31))
    cfg = FLRoundConfig(local_epochs=3, batch_size=16)
    out = run_fl_round(model, owners, cfg, np.random.default_rng(32))
    expected = _sequential_round(model, owners, cfg, np.random.default_rng(32))
    assert np.array_equal(out.flat, expected.flat)
    assert hashlib.sha256(out.flat.tobytes()).hexdigest() == ROUND_DIGEST

    stray = LabeledDataset(ds.features[ds.labels == 3][:23], ds.labels[ds.labels == 3][:23], 4)
    with pytest.raises(ValueError, match="outside the model's active set"):
        run_fl_round(model, owners + [_owner(5, stray)], cfg, np.random.default_rng(32))


def test_empty_owner_set_starves():
    # sim logs the starvation; the round hands back the model it was given
    model = model_with(2)
    before = model.flat.copy()
    out = run_fl_round(model, [], FLRoundConfig(), np.random.default_rng(0))
    assert out is model
    assert np.array_equal(before, out.flat)


def test_round_is_bit_reproducible():
    ds = gen_blobs(3, 4, 90, 1.0, 3)
    owners = _split_owners(ds, 3)

    def run():
        cfg = FLRoundConfig(local_epochs=1, batch_size=16)
        return run_fl_round(model_with(4), owners, cfg, np.random.default_rng(7))

    a, b = run(), run()
    assert np.array_equal(a.flat, b.flat)


def test_iid_split_matches_pooled_training():
    # 320 training and 80 validation samples per class, as views of one pool
    full = gen_blobs(3, 6, 320, 1.0, 6, held_out=80)
    train = LabeledDataset(full.features[:960], full.labels[:960], 3)
    val = LabeledDataset(full.features[960:], full.labels[960:], 3)
    perm = np.random.default_rng(100).permutation(len(train))
    train = LabeledDataset(train.features[perm], train.labels[perm], train.num_classes)
    owners6 = _split_owners(train, 6)
    pooled = [_owner(0, train)]
    cfg = FLRoundConfig(local_epochs=5, batch_size=32)

    def run(owner_set, rounds):
        model = model_with(8, dims=(6, 8, 3))
        for r in range(rounds):
            model = run_fl_round(model, owner_set, cfg, np.random.default_rng([9, r]))
        return evaluate(model, val)

    acc6 = run(owners6, 10)
    acc1 = run(pooled, 10)
    assert abs(acc6 - acc1) <= 0.05


# ---------------------------------------------------------------- feddf

def feddf_loss(student, teachers, public, alpha):
    """Mean FedDF (uniform-ensemble) distillation loss over the public pool."""
    idx = student.active_index
    p_t = teacher_targets(teachers, public, uniform_weights, idx)
    return float(distill_loss(forward(student, public)[:, idx], p_t, alpha).mean())


def test_feddf_self_distillation_starts_at_zero_loss():
    ds = gen_blobs(3, 4, 60, 1.0, 10)
    pub = ds.features
    model = model_with(11)
    loss = feddf_loss(model, [clone_model(model)], pub, alpha=1.0)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_feddf_duplicate_teachers_match_single():
    ds = gen_blobs(3, 4, 60, 1.0, 12)
    pub = ds.features
    g = model_with(13)
    [local] = local_train(g, [ds], 1, 16, 0.001, [np.random.default_rng(14)])
    cfg = FLRoundConfig(local_epochs=1, distill_epochs=2, batch_size=16)
    one = feddf_round([(local, 10)], pub, cfg, np.random.default_rng(15))
    two = feddf_round([(local, 10), (clone_model(local), 10)], pub, cfg, np.random.default_rng(15))
    assert np.allclose(one.flat, two.flat, atol=1e-12)


# SHA-256 of the student's parameters after the FedDF round below; the
# scenario goldens never run FedDF.
FEDDF_DIGEST = "f054af4519588ad251dd80aab9d1245d5caea744e757a83071c09e6140ca6c4b"


def test_feddf_distillation_reduces_loss():
    full = gen_blobs(3, 6, 200, 1.0, 16)
    train, pub_l = split_per_class(full, 150)
    pub = pub_l.features
    g = model_with(17, dims=(6, 8, 3))
    # one class per owner: the drifted locals' average differs from their ensemble
    owners = _split_owners(train, 3)
    shards = [o.train_shard for o in owners]
    rngs = [np.random.default_rng(18 + i) for i in range(len(shards))]
    locals_ = [(m, len(s)) for m, s in zip(local_train(g, shards, 10, 32, 0.005, rngs), shards)]
    student0 = fedavg_aggregate(locals_)
    before = feddf_loss(student0, [m for m, _ in locals_], pub, alpha=1.0)
    cfg = FLRoundConfig(local_epochs=1, distill_epochs=5, batch_size=32)
    student = feddf_round(locals_, pub, cfg, np.random.default_rng(19))
    assert hashlib.sha256(student.flat.tobytes()).hexdigest() == FEDDF_DIGEST
    after = feddf_loss(student, [m for m, _ in locals_], pub, alpha=1.0)
    assert before > 0.01
    assert after < before


def test_feddf_rejects_no_models_and_an_empty_pool():
    ds = gen_blobs(3, 4, 30, 1.0, 22)
    g = model_with(23)
    cfg = FLRoundConfig(method="feddf")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="nothing to aggregate"):
        feddf_round([], ds.features, cfg, rng)
    with pytest.raises(ValueError, match="public distillation set is empty"):
        feddf_round([(clone_model(g), 10)], ds.features[:0], cfg, rng)


def test_feddf_requires_public_set():
    ds = gen_blobs(3, 4, 30, 1.0, 20)
    cfg = FLRoundConfig(method="feddf")
    with pytest.raises(ValueError):
        run_fl_round(model_with(21), [_owner(0, ds)], cfg, np.random.default_rng(0))


# ---------------------------------------------------------------- evaluate

def _perfect_model(means, scale=1.0):
    # one linear layer whose logits are inner products with the class means
    k, d = means.shape
    flat = np.concatenate([(means.T * scale).ravel(), np.zeros(k)])
    return Mlp([d, k], flat, frozenset(range(k)))


def test_evaluate_perfect_model_scores_one():
    ds = gen_blobs(4, 6, 50, 0.0, 22)  # spread 0: samples sit exactly on the means
    means = np.stack([ds.features[ds.labels == c][0] for c in range(4)])
    model = _perfect_model(means)
    assert evaluate(model, ds) == 1.0


def test_evaluate_random_model_near_chance():
    rng = np.random.default_rng(23)
    feats = rng.normal(size=(2000, 8))
    labels = np.tile(np.arange(4), 500)
    ds = LabeledDataset(feats, labels, 4)
    model = init_mlp(8, [16], 4, {0, 1, 2, 3}, np.random.default_rng(24))
    acc = evaluate(model, ds)
    assert abs(acc - 0.25) <= 0.05


def test_evaluate_invariant_to_positive_rescaling():
    ds = gen_blobs(3, 4, 40, 1.0, 26)
    model = model_with(27)
    base = evaluate(model, ds)
    scaled = clone_model(model)
    scaled.weights[-1] *= 3.0
    scaled.biases[-1] *= 3.0
    assert evaluate(scaled, ds) == base


def test_evaluate_forwards_at_most_a_batch_of_rows(monkeypatch):
    ds = gen_blobs(4, 6, 500, 1.0, 30)  # a 2000-row shard
    model = model_with(31, dims=(6, 8, 4), active={0, 2, 3})
    cols = model.active_index
    one_call = cols[np.argmax(forward_cached(model, ds.features)[0][:, cols], axis=1)]
    rows = []

    def counted(m, x):
        rows.append(len(x))
        return forward_cached(m, x)

    monkeypatch.setattr(nn, "forward_cached", counted)
    assert evaluate(model, ds) == float((one_call == ds.labels).mean())
    assert sum(rows) == len(ds)
    assert max(rows) <= nn.FORWARD_ROWS == 32


def test_evaluate_validates_inputs():
    ds = gen_blobs(3, 4, 10, 1.0, 28)
    model = model_with(29, active={0, 1})
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError):
        evaluate(model, empty)


def test_config_validation():
    with pytest.raises(ValueError):
        FLRoundConfig(local_epochs=0)
    with pytest.raises(ValueError):
        FLRoundConfig(method="fedsgd")
    with pytest.raises(ValueError, match="batch_size"):
        FLRoundConfig(batch_size=0)
    for lr in (0.0, -0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            FLRoundConfig(lr=lr)
    # like every config section, a ConfigError (a ValueError) naming the rule
    for kwargs, message in [
        ({"local_epochs": 0}, "local_epochs must be >= 1, got 0"),
        ({"method": "x"}, "unknown aggregation method 'x'"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ]:
        with pytest.raises(ConfigError, match=message):
            FLRoundConfig(**kwargs)
