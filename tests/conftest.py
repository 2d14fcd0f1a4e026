import hashlib
import struct

import numpy as np
import pytest

from fedmarket import nn
from fedmarket.data import LabeledDataset, gen_blobs
from fedmarket.distill import DistillConfig
from fedmarket.fed import FLRoundConfig
from fedmarket.market import BiddingHistory, DataConsumer, DataOwner, default_bids, record_bids
from fedmarket.nn import backward, forward, forward_cached, init_mlp, softmax
from fedmarket.sim import BlobSpec, PartitionSizes, ScenarioConfig, emit_metrics, run_scenario


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


# The tiny runs by name: a scenario and its tiny_cfg overrides.
FIRST_PRICE = dict(mechanism="first_price", dc_budget=24.0)
FEDDF = dict(fl=FLRoundConfig(local_epochs=2, batch_size=32, method="feddf"))
TINY_RUNS = {
    "restricted": ("restricted", {}),
    "fedcdc": ("fedcdc", {}),
    "unrestricted": ("unrestricted", {}),
    "restricted-first_price": ("restricted", FIRST_PRICE),
    "fedcdc-first_price": ("fedcdc", {**FIRST_PRICE, "budget_share": 0.5}),
    "restricted-feddf": ("restricted", FEDDF),
    "fedcdc-feddf": ("fedcdc", FEDDF),
    "fedcdc-alpha-half": ("fedcdc", dict(distill=DistillConfig(alpha=0.5, epochs=2, batch_size=32))),
}


def output_digests(trace, out_dir):
    """SHA-256 of each output file that ``emit_metrics`` writes for ``trace``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in emit_metrics(trace, out_dir)}


def tiny_run_digests(run, out_dir):
    """Run the tiny run named ``run`` and digest its three output files."""
    scenario, overrides = TINY_RUNS[run]
    return output_digests(run_scenario(tiny_cfg(scenario, **overrides)), out_dir)


def write_idx_pair(directory, images, labels):
    """Write ``(n, rows, cols)`` uint8 ``images`` and their ``labels`` as IDX files."""
    directory.mkdir(parents=True, exist_ok=True)
    n, rows, cols = images.shape
    img_path = directory / "images.idx"
    lbl_path = directory / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.tobytes())
    return img_path, lbl_path


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
    pos = np.searchsorted(model.active_index, y)
    return lambda logits: nn.cross_entropy(softmax(logits, model.active_index), pos)


def max_grad_rel_error(model, x, loss_grad, h=1e-4):
    """Worst elementwise relative error, analytic vs central finite differences.

    ``loss_grad(logits)`` returns the scalar mean loss and each row's gradient
    in the model's active logits, not yet averaged, as :func:`backward` takes it.
    """
    logits, acts = forward_cached(model, x)
    _, dz = loss_grad(logits)
    p, g = model.flat, backward(model, acts, dz)
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
