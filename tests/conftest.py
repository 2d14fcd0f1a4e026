import numpy as np
import pytest

from fedmarket.data import LabeledDataset, gen_blobs
from fedmarket.distill import DistillConfig
from fedmarket.fed import FLRoundConfig
from fedmarket.market import BiddingHistory, DataConsumer, DataOwner, default_bids, record_bids
from fedmarket.nn import backward, cross_entropy_grad, forward, forward_cached, init_mlp
from fedmarket.sim import BlobSpec, PartitionSizes, ScenarioConfig


def tiny_cfg(scenario="restricted", **overrides):
    """A seconds-scale scenario config on the standard 3-DC / 24-DO layout."""
    base = dict(
        scenario=scenario,
        rounds=6,
        matching_period=2,
        alliance_start=2,
        history_span=2,  # aged out by the next creation pass, like the default geometry
        seed=5,
        samples_per_test=80,
        blobs=BlobSpec(dim=8, num_classes=10, per_class=250, spread=1.0),
        partition=PartitionSizes(
            n_dc=3, n_do=24, n_c=4, samples_per_do=60, samples_per_val=40, public_size=200
        ),
        fl=FLRoundConfig(local_epochs=2, batch_size=32),
        distill=DistillConfig(alpha=1.0, epochs=2, batch_size=32),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture
def tiny_config_factory():
    return tiny_cfg


SHARED_LABELS = frozenset({0, 1})
UNIQUE_LABELS = [frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})]


def label_shard(base, labels):
    keep = np.isin(base.labels, sorted(labels))
    return LabeledDataset(base.features[keep], base.labels[keep], base.num_classes)


def paper_market(n_shared_owners=6, budget=0.0, num_classes=10):
    """Three consumers sharing two labels; shared owners contested by all.

    Mirrors the experimental construction: one owner group holds only the
    shared classes, one group per consumer holds only its unique classes.
    """
    base = gen_blobs(num_classes, 4, 80, 0.5, 0)
    consumers = []
    for i in range(3):
        labels = SHARED_LABELS | UNIQUE_LABELS[i]
        model = init_mlp(4, [6], num_classes, labels, np.random.default_rng(i))
        consumers.append(
            DataConsumer(i, labels, model, label_shard(base, labels), budget=budget)
        )
    owners = [
        DataOwner(j, label_shard(base, SHARED_LABELS), SHARED_LABELS)
        for j in range(n_shared_owners)
    ]
    for i in range(3):
        for j in range(2):
            oid = n_shared_owners + i * 2 + j
            owners.append(DataOwner(oid, label_shard(base, UNIQUE_LABELS[i]), UNIQUE_LABELS[i]))
    history = BiddingHistory(5, 3, len(owners))
    for r in range(5):
        record_bids(history, r, default_bids(consumers, owners))
    return consumers, owners, history


def group_market(n_dc, seed):
    """The paper's layout at ``n_dc`` consumers: every consumer holds one shared
    two-label block plus a unique two-label block of its own, and one owner
    group (of 2 or 3 owners) holds each block. Every subset of two or more
    consumers is a candidate, so ``n_dc = 9`` gives 2**9 - 10 = 502 of them.
    """
    rng = np.random.default_rng(seed)
    perm = [int(c) for c in rng.permutation(2 * (n_dc + 1))]
    blocks = [frozenset(perm[2 * g : 2 * g + 2]) for g in range(n_dc + 1)]
    per_group = int(rng.integers(2, 4))
    num_classes = len(perm)
    base = gen_blobs(num_classes, 8, 2, 0.5, int(rng.integers(2**31)))
    consumers = [
        DataConsumer(
            i, blocks[0] | blk, init_mlp(8, [4], num_classes, blocks[0] | blk, rng),
            label_shard(base, blocks[0] | blk),
        )
        for i, blk in enumerate(blocks[1:])
    ]
    owner_labels = [blk for blk in blocks for _ in range(per_group)]
    owners = [DataOwner(j, label_shard(base, lab), lab) for j, lab in enumerate(owner_labels)]
    history = BiddingHistory(5, len(consumers), len(owners))
    for r in range(5):
        record_bids(history, r, default_bids(consumers, owners))
    return consumers, owners, history


def cross_entropy(model, y):
    """Mean cross-entropy on labels ``y``, as a ``loss_grad`` for :func:`max_grad_rel_error`."""
    return lambda logits: cross_entropy_grad(model, logits, y)


def max_grad_rel_error(model, x, loss_grad, h=1e-4):
    """Worst elementwise relative error, analytic vs central finite differences.

    ``loss_grad(logits)`` returns the scalar loss and its gradient dL/dlogits.
    """
    logits, acts = forward_cached(model, x)
    _, dlogits = loss_grad(logits)
    p, g = model.flat, backward(model, acts, dlogits)
    worst = 0.0
    for idx in np.ndindex(p.shape):
        orig = p[idx]
        p[idx] = orig + h
        lp = loss_grad(forward(model, x))[0]
        p[idx] = orig - h
        lm = loss_grad(forward(model, x))[0]
        p[idx] = orig
        fd = (lp - lm) / (2 * h)
        rel = abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6)
        worst = max(worst, rel)
    return worst
