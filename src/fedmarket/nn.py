"""Minimal dense neural-network engine.

MLP forward/backward, masked softmax, entropy and cross-entropy kernels and a
bias-corrected Adam optimizer. Every model predicts over a single global
K-way label universe; a per-model set of active labels names the positions
the model serves, and probabilities and predictions read those by index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

# Probabilities are clamped at this floor inside every log.
PROB_FLOOR = 1e-12

# Adam's b1, b2 and eps: the moment decay rates and the denominator's stabilizer.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class Mlp:
    """Fully connected ReLU network over the global K-way output.

    ``dims`` is ``[input_dim, hidden..., K]``. ``active_labels`` is the set of
    output positions this model serves. :func:`forward` returns all K logits,
    but only the active ones are meaningful: read them with
    ``softmax(logits, model.active_index)`` or ``fed.evaluate``.

    ``flat`` is the model: one contiguous ``(*lead, P)`` buffer holding
    every parameter, which the model takes without copying. ``weights`` and
    ``biases`` are per-layer views into it, shaped ``(*lead, d_in, d_out)``
    and ``(*lead, d_out)``. An empty ``lead`` is one model; ``lead = (M,)``
    is a stack of M models of one architecture and one active set, which the
    forward, backward and Adam kernels here step all at once.
    """

    dims: list[int]
    flat: np.ndarray = field(repr=False)
    active_labels: frozenset[int]
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.dims) < 2:
            raise ValueError("an MLP needs at least an input and an output layer")
        if not self.active_labels:
            raise ValueError("active_labels must be nonempty")
        k = self.dims[-1]
        bad = [c for c in self.active_labels if not 0 <= c < k]
        if bad:
            raise ValueError(f"active labels {sorted(bad)} outside output range [0, {k})")
        count = _param_count(self.dims)
        if self.flat.shape[-1:] != (count,):
            raise ValueError(f"flat shape {self.flat.shape} does not end in {count} parameters")
        self.weights, self.biases = _layer_views(self.flat, self.dims)

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    # active_labels is never reassigned, so each index is computed once, on first use.
    @cached_property
    def active_index(self) -> np.ndarray:
        """Sorted active label ids as a read-only index array."""
        return _frozen(np.array(sorted(self.active_labels), dtype=np.intp))

    @cached_property
    def active_mask(self) -> np.ndarray:
        """Read-only boolean mask over the K outputs, True at active labels."""
        mask = np.zeros(self.num_classes, dtype=bool)
        mask[self.active_index] = True
        return _frozen(mask)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _param_count(dims: list[int]) -> int:
    return sum(d_in * d_out + d_out for d_in, d_out in zip(dims[:-1], dims[1:]))


def _layer_views(flat: np.ndarray, dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a ``(*lead, P)`` buffer.

    Layout: all weight matrices row-major in layer order, then all biases.
    """
    lead = flat.shape[:-1]
    weights, biases = [], []
    offset = 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[..., offset : offset + d_in * d_out].reshape(*lead, d_in, d_out))
        offset += d_in * d_out
    for d_out in dims[1:]:
        biases.append(flat[..., offset : offset + d_out])
        offset += d_out
    return weights, biases


def init_mlp(
    input_dim: int,
    hidden: list[int],
    num_classes: int,
    active_labels: frozenset[int] | set[int],
    rng: np.random.Generator,
) -> Mlp:
    """He-initialized MLP with zero biases, deterministic per ``rng`` state."""
    dims = [input_dim, *hidden, num_classes]
    model = Mlp(dims, np.zeros(_param_count(dims)), frozenset(active_labels))
    for w in model.weights:
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)
    return model


def clone_model(model: Mlp) -> Mlp:
    return Mlp(list(model.dims), model.flat.copy(), model.active_labels)


def replicate(model: Mlp, copies: int) -> Mlp:
    """A stack of ``copies`` independent copies of one model."""
    return Mlp(list(model.dims), np.tile(model.flat, (copies, 1)), model.active_labels)


def unstack(stack: Mlp) -> list[Mlp]:
    """The models of a stack, each copied out into its own buffer."""
    return [Mlp(list(stack.dims), row.copy(), stack.active_labels) for row in stack.flat]


def forward(model: Mlp, batch: np.ndarray) -> np.ndarray:
    """All K logits for a (batch, input_dim) matrix; only the active ones are meaningful.

    A stack takes ``(M, batch, input_dim)``, one batch per model.
    """
    logits, _ = forward_cached(model, batch)
    return logits


def forward_cached(model: Mlp, batch: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping post-activation layer inputs for backprop."""
    x = np.asarray(batch, dtype=float)
    lead = model.flat.shape[:-1]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead or x.shape[-1] != model.dims[0]:
        raise ValueError(
            f"batch shape {x.shape} incompatible with model input dim {model.dims[0]} "
            f"and model stack shape {lead}"
        )
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b[..., None, :]
        if i < last:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, acts


def backward(model: Mlp, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Parameter gradients given dL/dlogits, as one buffer shaped like ``model.flat``.

    The losses are formed over the active columns only, so ``dlogits`` is
    zero at the inactive ones and their output parameters get zero gradient.
    """
    grad = np.empty_like(model.flat)
    grads_w, grads_b = _layer_views(grad, model.dims)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=grads_w[i])
        delta.sum(axis=-2, out=grads_b[i])
        if i > 0:
            delta = (delta @ model.weights[i].swapaxes(-1, -2)) * (acts[i] > 0.0)
    return grad


def softmax(logits: np.ndarray, index: np.ndarray | slice) -> np.ndarray:
    """Stabilized softmax over the ``index`` columns of each row of ``logits``.

    Rows run along the last axis, so a 1-D input is one row. Returns the
    ``(..., len(index))`` probabilities of the selected columns; the other
    columns take no part, which makes this the masked softmax of a model
    whose active positions are ``index``.
    """
    za = logits[..., index]
    za = za - za.max(axis=-1, keepdims=True)
    ex = np.exp(za)
    return ex / ex.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row, with the 0*log(0) = 0 convention."""
    logs = np.log(np.maximum(p, PROB_FLOOR))
    return -(p * logs).sum(axis=-1)


@dataclass
class AdamState:
    """Moments, two work buffers, step count and learning rate for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)
    denom: np.ndarray = field(repr=False)
    step: int = 0
    lr: float = 0.001


def init_adam(param: np.ndarray, lr: float = 0.001) -> AdamState:
    return AdamState(
        np.zeros_like(param), np.zeros_like(param), np.empty_like(param), np.empty_like(param),
        lr=lr,
    )


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update, applied to ``param`` in place.

    Runs in place on the moments and the two work buffers; the operations
    and their order are those of the textbook update
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, so results are the same bits.
    """
    if grad.shape != param.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameter shape {param.shape}"
        )
    state.step += 1
    t = state.step
    m, v, s, d = state.m, state.v, state.scratch, state.denom
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=s)
    s *= grad
    v += s
    np.divide(m, 1.0 - ADAM_BETA1**t, out=s)
    s *= state.lr
    np.divide(v, 1.0 - ADAM_BETA2**t, out=d)
    np.sqrt(d, out=d)
    d += ADAM_EPSILON
    s /= d
    param -= s


def cross_entropy_grad(
    model: Mlp, logits: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over the active softmax and its K-wide logit gradient.

    The gradient is zero at inactive columns. For a stack, ``logits`` is
    ``(M, batch, K)`` and the loss is one value per model.
    """
    dlogits = np.zeros_like(logits)
    dlogits[..., model.active_index] = softmax(logits, model.active_index)
    k = dlogits.shape[-1]
    hit = (np.arange(labels.size), labels.ravel())  # each sample's label, one row per sample
    picked = dlogits.reshape(-1, k)[hit].reshape(labels.shape)
    loss = -np.log(np.maximum(picked, PROB_FLOOR)).mean(axis=-1)
    dlogits.reshape(-1, k)[hit] -= 1.0
    dlogits /= logits.shape[-2]
    return loss, dlogits


def batch_schedule(
    n: int, epochs: int, batch_size: int, rngs: Sequence[np.random.Generator]
) -> Iterator[np.ndarray]:
    """Row indices of each minibatch over ``n`` rows, shaped ``(len(rngs), batch)``.

    Each epoch draws one fresh ``rngs[i].permutation(n)`` for model i and cuts
    it into batches of ``batch_size`` rows; the last batch may be shorter.
    """
    for _ in range(epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, batch_size):
            yield order[:, start : start + batch_size]


def train_step(
    model: Mlp, opt: AdamState, batch: np.ndarray, labels: np.ndarray
) -> float | np.ndarray:
    """One Adam step on mean cross-entropy; returns the pre-step loss.

    A stack takes ``(M, batch, input_dim)`` features and ``(M, batch)``
    labels, steps every model at once and returns M losses.
    """
    y = np.asarray(labels)
    if y.size and (y.min() < 0 or y.max() >= model.num_classes or not model.active_mask[y].all()):
        outside = set(np.unique(y).tolist()) - model.active_labels
        raise ValueError(f"labels {sorted(outside)} outside the model's active set")
    logits, acts = forward_cached(model, batch)
    loss, dlogits = cross_entropy_grad(model, logits, y)
    adam_step(opt, model.flat, backward(model, acts, dlogits))
    return loss

