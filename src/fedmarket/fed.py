"""Federated training rounds: local training, FedAvg/FedDF aggregation, evaluation."""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .distill import DistillConfig, distill_train, uniform_weights
from .market import DataConsumer, DataOwner
from .nn import Mlp, batch_schedule, forward, init_adam, replicate, train_step, unstack

log = logging.getLogger(__name__)

# FedDF distills on the soft loss only (uniform teacher averaging).
FEDDF_ALPHA = 1.0
# Evaluation forwards a shard in chunks of the default training batch. OpenBLAS
# hands a GEMM as large as a whole 2000-row shard to its worker threads, which
# are slow to wake and, on a 2-core machine, spin on the main thread's core.
EVAL_CHUNK_ROWS = 32


@dataclass
class FLRoundConfig:
    local_epochs: int = 5
    distill_epochs: int = 5
    batch_size: int = 32
    method: str = "fedavg"
    lr: float = 0.001

    def __post_init__(self) -> None:
        for key in ("local_epochs", "distill_epochs"):
            if (n := getattr(self, key)) < 1:
                raise ValueError(f"{key} must be >= 1, got {n}")
        if self.method not in ("fedavg", "feddf"):
            raise ValueError(f"unknown aggregation method {self.method!r}")
        self.feddf_distill()  # checks batch_size and lr

    def feddf_distill(self) -> DistillConfig:
        """FedDF's distillation settings; local training shares batch_size and lr."""
        return DistillConfig(FEDDF_ALPHA, self.distill_epochs, self.batch_size, self.lr)


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
    shards: list[LabeledDataset],
    epochs: int,
    batch_size: int,
    lr: float,
    rngs: list[np.random.Generator],
) -> list[Mlp]:
    """Train one fresh copy of ``model`` per shard; return them in shard order.

    Shards of one size train as one stack, so each batch is one
    :func:`train_step` over all of them; the groups run in first-seen order.
    Copy i draws its per-epoch permutation from ``rngs[i]``, so its batches,
    and its parameters bit for bit, are those of training it alone.
    """
    by_size: dict[int, list[int]] = {}
    for i, shard in enumerate(shards):
        by_size.setdefault(len(shard), []).append(i)
    trained: dict[int, Mlp] = {}
    for n, group in by_size.items():
        stack = replicate(model, len(group))
        opt = init_adam(stack.flat, lr=lr)
        features = np.stack([shards[i].features for i in group])
        labels = np.stack([shards[i].labels for i in group])
        rows = np.arange(len(group))[:, None]
        for sel in batch_schedule(n, epochs, batch_size, [rngs[i] for i in group]):
            train_step(stack, opt, features[rows, sel], labels[rows, sel])
        trained.update(zip(group, unstack(stack)))
    return [trained[i] for i in range(len(shards))]


def feddf_round(
    local_models: list[tuple[Mlp, int]],
    public: UnlabeledDataset,
    cfg: FLRoundConfig,
    rng: np.random.Generator,
) -> Mlp:
    """FedDF aggregation: FedAvg init, then distill on uniform-average teacher logits."""
    student = fedavg_aggregate(local_models)
    teachers = [m for m, _ in local_models]
    return distill_train(student, teachers, public, cfg.feddf_distill(), rng, uniform_weights)


def run_fl_round(
    consumer: DataConsumer,
    owners: list[DataOwner],
    cfg: FLRoundConfig,
    rng: np.random.Generator,
    public: UnlabeledDataset | None = None,
    model: Mlp | None = None,
) -> Mlp:
    """One FL round: broadcast, local training on every owner, aggregate.

    The owners train in one :func:`local_train` call and are aggregated in
    owner-id order.

    Trains ``model`` (default: the consumer's global model). An empty owner
    list is a starvation event: logged, model returned unchanged.
    """
    start = model if model is not None else consumer.model
    if not owners:
        log.warning("consumer %d recruited no owners this round (starved)", consumer.id)
        return start
    ordered = sorted(owners, key=lambda o: o.id)
    shards = [o.train_shard for o in ordered]
    models = local_train(
        start, shards, cfg.local_epochs, cfg.batch_size, cfg.lr, rng.spawn(len(ordered))
    )
    trained = [(m, len(s)) for m, s in zip(models, shards)]
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
    x = shard.features
    logits = np.concatenate(
        [forward(model, x[i : i + EVAL_CHUNK_ROWS]) for i in range(0, len(x), EVAL_CHUNK_ROWS)]
    )
    pred = cols[np.argmax(logits[:, cols], axis=1)]
    return float((pred == shard.labels).mean())
