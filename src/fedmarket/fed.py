"""Federated training rounds: local training, FedAvg/FedDF aggregation, evaluation."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .distill import DistillConfig, distill_train, uniform_weights
from .market import DataConsumer, DataOwner
from .nn import Mlp, batch_schedule, forward, init_adam, replicate, train_step, unstack

log = logging.getLogger(__name__)

# FedDF distills on the soft loss only (uniform teacher averaging).
FEDDF_ALPHA = 1.0


@dataclass
class FLRoundConfig:
    local_epochs: int = 5
    distill_epochs: int = 5
    batch_size: int = 32
    method: str = "fedavg"
    lr: float = 0.001

    def __post_init__(self) -> None:
        for key in ("local_epochs", "distill_epochs", "batch_size"):
            if (n := getattr(self, key)) < 1:
                raise ValueError(f"{key} must be >= 1, got {n}")
        if self.method not in ("fedavg", "feddf"):
            raise ValueError(f"unknown aggregation method {self.method!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def fedavg_aggregate(local_models: list[tuple[Mlp, int]]) -> Mlp:
    """Shard-size-weighted parameter mean of architecture-identical models."""
    if not local_models:
        raise ValueError("nothing to aggregate")
    first = local_models[0][0]
    for m, _ in local_models[1:]:
        if m.dims != first.dims or m.active_labels != first.active_labels:
            raise ValueError("local models differ in architecture or active labels")
    total = float(sum(size for _, size in local_models))
    if total <= 0:
        raise ValueError("shard sizes must sum to a positive number")
    flat = sum((size / total) * m.flat for m, size in local_models)
    return Mlp(list(first.dims), flat, first.active_labels)


def local_train(
    model: Mlp,
    shard: LabeledDataset,
    epochs: int,
    batch_size: int,
    lr: float,
    rng: np.random.Generator,
) -> Mlp:
    """Train a fresh copy of ``model`` on one owner's shard."""
    return lockstep_train(model, [shard], epochs, batch_size, lr, [rng])[0]


def lockstep_train(
    model: Mlp,
    shards: list[LabeledDataset],
    epochs: int,
    batch_size: int,
    lr: float,
    rngs: list[np.random.Generator],
) -> list[Mlp]:
    """Train one fresh copy of ``model`` per shard, all copies in lockstep.

    The shards must be of one size. The copies form one stack, so each batch
    is one :func:`train_step` over all of them. Copy i draws its per-epoch
    permutation from ``rngs[i]``, so its batches, and its parameters bit for
    bit, are those of training it alone.
    """
    n = len(shards[0])
    if any(len(s) != n for s in shards):
        raise ValueError("lockstep training needs shards of one size")
    stack = replicate(model, len(shards))
    opt = init_adam(stack.flat, lr=lr)
    features = np.stack([s.features for s in shards])
    labels = np.stack([s.labels for s in shards])
    rows = np.arange(len(shards))[:, None]
    for sel in batch_schedule(n, epochs, batch_size, rngs):
        train_step(stack, opt, features[rows, sel], labels[rows, sel])
    return unstack(stack)


def feddf_round(
    local_models: list[tuple[Mlp, int]],
    public: UnlabeledDataset,
    cfg: FLRoundConfig,
    rng: np.random.Generator,
) -> Mlp:
    """FedDF aggregation: FedAvg init, then distill on uniform-average teacher logits."""
    student = fedavg_aggregate(local_models)
    distill_cfg = DistillConfig(FEDDF_ALPHA, cfg.distill_epochs, cfg.batch_size, cfg.lr)
    teachers = [m for m, _ in local_models]
    return distill_train(student, teachers, public, distill_cfg, rng, uniform_weights)


def run_fl_round(
    consumer: DataConsumer,
    owners: list[DataOwner],
    cfg: FLRoundConfig,
    rng: np.random.Generator,
    public: UnlabeledDataset | None = None,
    model: Mlp | None = None,
) -> Mlp:
    """One FL round: broadcast, local training on every owner, aggregate.

    Owners with equal shard sizes train in lockstep (:func:`lockstep_train`);
    the trained models are aggregated in owner-id order.

    Trains ``model`` (default: the consumer's global model). An empty owner
    list is a starvation event: logged, model returned unchanged.
    """
    start = model if model is not None else consumer.model
    if not owners:
        log.warning("consumer %d recruited no owners this round (starved)", consumer.id)
        return start
    ordered = sorted(owners, key=lambda o: o.id)
    child_rngs = rng.spawn(len(ordered))
    by_size: dict[int, list[int]] = {}
    for k, owner in enumerate(ordered):
        by_size.setdefault(len(owner.train_shard), []).append(k)
    local: dict[int, Mlp] = {}
    for group in by_size.values():
        models = lockstep_train(
            start,
            [ordered[k].train_shard for k in group],
            cfg.local_epochs,
            cfg.batch_size,
            cfg.lr,
            [child_rngs[k] for k in group],
        )
        local.update(zip(group, models))
    trained = [(local[k], len(o.train_shard)) for k, o in enumerate(ordered)]
    if cfg.method == "feddf":
        if public is None:
            raise ValueError("feddf aggregation needs the public set")
        return feddf_round(trained, public, cfg, rng)
    return fedavg_aggregate(trained)


def evaluate(model: Mlp, shard: LabeledDataset) -> float:
    """Accuracy of argmax over the model's active labels; ties pick the lowest class."""
    if len(shard) == 0:
        raise ValueError("cannot evaluate on an empty shard")
    cols = model.active_index
    logits = forward(model, shard.features)
    pred = cols[np.argmax(logits[:, cols], axis=1)]
    return float((pred == shard.labels).mean())
