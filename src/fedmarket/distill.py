"""Entropy-weighted ensemble distillation.

Student training against a frozen teacher ensemble on unlabeled public data.
Per sample, each teacher is weighted by exp(-entropy) of its predicted
distribution, so confident teachers dominate; teacher logits combine per
output position with weight renormalization over the teachers active there.
FedDF's aggregation runs the same loop with uniform weights.

The kernels work on rows: the last axis holds the student's active labels,
``target_index``, in sorted order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import UnlabeledDataset
from .nn import (
    Mlp,
    PROB_FLOOR,
    adam_step,
    backward,
    batch_schedule,
    entropy,
    forward,
    forward_cached,
    init_adam,
    softmax,
)

# A teacher weighting: (teacher logits, contributor masks, target_index) ->
# (n_teachers, batch) per-sample weights.
Weighting = Callable[[list[np.ndarray], list[np.ndarray], np.ndarray], np.ndarray]


@dataclass
class DistillConfig:
    alpha: float = 1.0
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def contributor_masks(teachers: Sequence[Mlp], target_index: np.ndarray) -> list[np.ndarray]:
    """Boolean masks over the target positions, one per teacher, True where it is active.

    Every target position needs a teacher, and every teacher a target position.
    """
    if not teachers:
        raise ValueError("ensemble needs at least one teacher")
    masks = [t.active_mask[target_index] for t in teachers]
    if not all(mask.any() for mask in masks):
        raise ValueError("a teacher shares no labels with the student")
    cover = np.logical_or.reduce(masks)
    if not cover.all():
        orphan = int(target_index[np.flatnonzero(~cover)[0]])
        raise ValueError(f"no teacher covers class {orphan}")
    return masks


def entropy_weights(
    teacher_logits: list[np.ndarray],
    contrib: list[np.ndarray],
    target_index: np.ndarray,
) -> np.ndarray:
    """Per-sample weights proportional to exp(-entropy), normalized over the teachers.

    A teacher's entropy is that of its distribution over the target
    positions it covers.
    """
    h = np.stack(
        [entropy(softmax(z, target_index[mask])) for z, mask in zip(teacher_logits, contrib)]
    )
    e = np.exp(-h)
    return e / e.sum(axis=0, keepdims=True)


def uniform_weights(
    teacher_logits: list[np.ndarray],
    contrib: list[np.ndarray],
    target_index: np.ndarray,
) -> np.ndarray:
    """Uniform per-sample teacher weights (plain logit averaging)."""
    n_t = len(teacher_logits)
    return np.full((n_t, *teacher_logits[0].shape[:-1]), 1.0 / n_t)


def combine_teachers(
    teacher_logits: list[np.ndarray],
    weights: np.ndarray,
    contrib: list[np.ndarray],
    target_index: np.ndarray,
) -> np.ndarray:
    """Per-position weighted combination of teacher logits over the target positions.

    A teacher contributes to a position only where it is active; weights are
    renormalized per position over the contributing teachers.
    """
    shape = (*teacher_logits[0].shape[:-1], target_index.size)
    num = np.zeros(shape)
    den = np.zeros(shape)
    for z, w, mask in zip(teacher_logits, weights, contrib):
        vals = z[..., target_index] * mask
        num += w[..., None] * vals
        den += w[..., None] * mask
    return num / den


def teacher_targets(
    teachers: Sequence[Mlp],
    contrib: list[np.ndarray],
    x: np.ndarray,
    weighting: Weighting,
    target_index: np.ndarray,
) -> np.ndarray:
    """The ensemble's target distribution p_t over the target positions, one row per sample."""
    t_logits = [forward(t, x) for t in teachers]
    w = weighting(t_logits, contrib, target_index)
    z_t = combine_teachers(t_logits, w, contrib, target_index)
    return softmax(z_t, slice(None))  # z_t holds only the target columns


def distill_loss_grad(p_s: np.ndarray, p_t: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row gradient of the distillation loss in the student's active logits, not yet averaged.

    A ``(batch, n)`` row's loss is ``alpha * KL(p_s || p_t) + (1 - alpha) * CE(argmax p_t)``.
    """
    # The soft term's gradient needs the per-column log-ratio as well as its
    # row sum, the KL, so both come from one log-ratio here.
    log_ratio = np.log(np.maximum(p_s, PROB_FLOOR)) - np.log(np.maximum(p_t, PROB_FLOOR))
    kl_row = (p_s * log_ratio).sum(axis=1, keepdims=True)
    grad = alpha * p_s * (log_ratio - kl_row)
    if alpha < 1.0:
        pseudo = np.argmax(p_t, axis=1)
        hard = p_s.copy()
        hard[np.arange(p_s.shape[0]), pseudo] -= 1.0
        grad = grad + (1.0 - alpha) * hard
    return grad


def distill_train(
    student: Mlp,
    teachers: Sequence[Mlp],
    public: UnlabeledDataset,
    cfg: DistillConfig,
    rng: np.random.Generator,
    weighting: Weighting = entropy_weights,
) -> Mlp:
    """Minibatch distillation of ``student``, in place, against frozen ``teachers``.

    Runs ``cfg.epochs`` passes over ``public``, each in a fresh ``rng``
    permutation, with one Adam step per batch, and returns the student.
    ``weighting`` is FedCDC's :func:`entropy_weights` or FedDF's
    :func:`uniform_weights`. The teachers' targets form one table over the
    pool, built once before the first epoch and gathered per batch.
    """
    n = len(public)
    if n == 0:
        raise ValueError("public distillation set is empty")
    target_index = student.active_index
    contrib = contributor_masks(teachers, target_index)
    if cfg.epochs == 0:
        return student
    # Built in batch-sized chunks: the BLAS may round a row differently
    # depending on how many rows share the call, and a chunk computes each
    # row as a full training batch would.
    chunks = [public.features[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
    p_pool = np.concatenate(
        [teacher_targets(teachers, contrib, x, weighting, target_index) for x in chunks]
    )
    opt = init_adam(student.flat, lr=cfg.lr)
    for (idx,) in batch_schedule(n, cfg.epochs, cfg.batch_size, [rng]):
        x = public.features[idx]
        logits, acts = forward_cached(student, x)
        dz = distill_loss_grad(softmax(logits, target_index), p_pool[idx], cfg.alpha)
        dlogits = np.zeros_like(logits)
        dlogits[:, target_index] = dz / x.shape[0]
        adam_step(opt, student.flat, backward(student, acts, dlogits))
    return student
