"""Entropy-weighted ensemble distillation.

Student training against a frozen teacher ensemble on unlabeled public data.
Per sample, each teacher is weighted by exp(-entropy) of its predicted
distribution, so confident teachers dominate; teacher logits combine per
output position with weight renormalization over the teachers active there.
FedDF's aggregation runs the same loop with uniform weights.

The kernels work on rows: the last axis holds the student's active labels,
``target_index``, in sorted order, and a teacher table stacks the teachers
on the first axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import check_rules
from .nn import (
    Mlp,
    PROB_FLOOR,
    adam_step,
    backward,
    batch_schedule,
    cross_entropy,
    entropy,
    forward,
    forward_cached,
    init_adam,
    softmax,
)

# A teacher weighting: (teacher logits over the target columns, contributor
# masks) -> (n_teachers, n) per-sample weights.
Weighting = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class DistillConfig:
    alpha: float = 1.0
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.001

    def __post_init__(self) -> None:
        check_rules([
            (not 0.0 <= self.alpha <= 1.0, f"alpha must lie in [0, 1], got {self.alpha}"),
            (self.epochs < 1, f"epochs must be >= 1, got {self.epochs}"),
            (self.batch_size < 1, f"batch_size must be >= 1, got {self.batch_size}"),
            (not (math.isfinite(self.lr) and self.lr > 0),
             f"lr must be finite and > 0, got {self.lr}"),
        ])


def contributor_masks(teachers: Sequence[Mlp], target_index: np.ndarray) -> np.ndarray:
    """``(n_teachers, n_targets)`` booleans, True where the teacher is active at the target.

    Every target position needs a teacher, and every teacher a target position.
    """
    if not teachers:
        raise ValueError("ensemble needs at least one teacher")
    masks = np.stack([np.isin(target_index, t.active_index) for t in teachers])
    if not masks.any(axis=1).all():
        raise ValueError("a teacher shares no labels with the student")
    cover = masks.any(axis=0)
    if not cover.all():
        orphan = int(target_index[np.flatnonzero(~cover)[0]])
        raise ValueError(f"no teacher covers class {orphan}")
    return masks


def entropy_weights(z: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Per-sample weights proportional to exp(-entropy), normalized over the teachers.

    A teacher's entropy is that of its distribution over the target
    positions it covers.
    """
    h = np.stack([entropy(softmax(z_t, mask)) for z_t, mask in zip(z, contrib)])
    e = np.exp(-h)
    return e / e.sum(axis=0, keepdims=True)


def uniform_weights(z: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Uniform per-sample teacher weights (plain logit averaging)."""
    return np.full(z.shape[:-1], 1.0 / len(z))


def combine_teachers(z: np.ndarray, weights: np.ndarray, contrib: np.ndarray) -> np.ndarray:
    """Per-position weighted combination of the teachers' target-column logits ``z``.

    A teacher contributes to a position only where it is active; weights are
    renormalized per position over the contributing teachers.
    """
    num = np.zeros(z.shape[1:])
    den = np.zeros(z.shape[1:])
    for z_t, w, mask in zip(z, weights, contrib):
        num += w[..., None] * (z_t * mask)
        den += w[..., None] * mask
    return num / den


def teacher_targets(
    teachers: Sequence[Mlp], x: np.ndarray, weighting: Weighting, target_index: np.ndarray
) -> np.ndarray:
    """The ensemble's target distribution p_t over the target positions, one row per sample.

    The teachers' :func:`contributor_masks` are checked first. Each teacher
    forwards all of ``x`` in one call. Their target columns form one
    ``(n_teachers, n, n_targets)`` table, and the rest is row-wise.
    """
    contrib = contributor_masks(teachers, target_index)
    z = np.stack([forward(t, x)[:, target_index] for t in teachers])
    return softmax(combine_teachers(z, weighting(z, contrib), contrib), slice(None))


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
        grad = grad + (1.0 - alpha) * cross_entropy(p_s, np.argmax(p_t, axis=1))[1]
    return grad


def distill_train(
    student: Mlp,
    teachers: Sequence[Mlp],
    public: np.ndarray,
    cfg: DistillConfig,
    rng: np.random.Generator,
    weighting: Weighting = entropy_weights,
) -> Mlp:
    """Minibatch distillation of ``student``, in place, against frozen ``teachers``.

    Runs ``cfg.epochs`` passes over the ``(n, d)`` pool ``public``, each in a
    fresh ``rng`` permutation, with one Adam step per batch, and returns the
    student. ``weighting`` is FedCDC's :func:`entropy_weights` or FedDF's
    :func:`uniform_weights`. The teachers' targets form one table over the
    pool, built by one :func:`teacher_targets` call before the first epoch
    and gathered per batch.
    """
    n = len(public)
    if n == 0:
        raise ValueError("public distillation set is empty")
    target_index = student.active_index
    p_pool = teacher_targets(teachers, public, weighting, target_index)
    opt = init_adam(student.flat, lr=cfg.lr)
    for (idx,) in batch_schedule(n, cfg.epochs, cfg.batch_size, [rng]):
        x = public[idx]
        logits, acts = forward_cached(student, x)
        dz = distill_loss_grad(softmax(logits, target_index), p_pool[idx], cfg.alpha)
        adam_step(opt, student.flat, backward(student, acts, dz))
    return student
