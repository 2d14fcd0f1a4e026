import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket.nn import (
    Mlp,
    adam_step,
    clone_model,
    cross_entropy_grad,
    entropy,
    forward,
    init_adam,
    init_mlp,
    replicate,
    softmax,
    train_step,
    unstack,
)
from fedmarket.data import gen_blobs
from conftest import cross_entropy, max_grad_rel_error
from oracles import kl_div


def small_model(seed=0, dims=(4, 6, 3), active=None):
    active = active if active is not None else set(range(dims[-1]))
    return init_mlp(dims[0], list(dims[1:-1]), dims[-1], active, np.random.default_rng(seed))


# ---------------------------------------------------------------- softmax

def test_softmax_symmetry():
    p = softmax(np.array([0.0, 0.0]), np.arange(2))
    assert np.allclose(p, [0.5, 0.5])


def test_softmax_closed_form():
    p = softmax(np.array([math.log(3.0), 0.0]), np.arange(2))
    assert abs(p[0] - 0.75) < 1e-12
    assert abs(p[1] - 0.25) < 1e-12


def test_softmax_large_logit_stable():
    p = softmax(np.array([1000.0, 0.0]), np.arange(2))
    assert np.isfinite(p).all()
    assert abs(p[0] - 1.0) < 1e-12


def test_softmax_masks_inactive_to_zero():
    index = np.array([1, 2])
    p = softmax(np.array([1.0, 2.0, 3.0, 4.0]), index)
    assert np.array_equal(p, softmax(np.array([-7.0, 2.0, 3.0, 9.0]), index))
    assert abs(p.sum() - 1.0) < 1e-12
    # a model's full-K distribution puts exactly zero mass on its inactive labels
    m = init_mlp(4, [6], 4, {1, 2}, np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(3, 4))
    _, dlogits = cross_entropy_grad(m, forward(m, x), np.array([1, 2, 1]))
    assert (dlogits[:, [0, 3]] == 0.0).all()


def test_softmax_empty_mask_rejected():
    with pytest.raises(ValueError):
        softmax(np.array([1.0, 2.0]), np.array([], dtype=np.intp))


@settings(max_examples=200, deadline=None)
@given(
    logits=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    shift=st.floats(-20, 20),
)
def test_softmax_shift_invariant_and_normalized(logits, shift):
    z = np.array(logits)
    active = np.arange(len(logits))
    p = softmax(z, active)
    q = softmax(z + shift, active)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) < 1e-6
    assert np.abs(p - q).max() < 1e-9


# ---------------------------------------------------------------- entropy / KL

def test_entropy_one_hot_is_zero():
    assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_entropy_uniform_is_log_k():
    assert abs(entropy(np.full(4, 0.25)) - math.log(4)) < 1e-12


def test_entropy_direct_evaluation():
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(entropy(np.array([0.75, 0.25])) - expected) < 1e-12
    assert abs(expected - 0.5623) < 1e-4


def test_entropy_maximal_only_at_uniform():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5))
        assert entropy(p) <= math.log(5) + 1e-9


def test_kl_identity_zero():
    assert kl_div(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)


def test_kl_closed_forms():
    assert abs(kl_div(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - math.log(2)) < 1e-12
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert abs(kl_div(np.array([0.5, 0.5]), np.array([0.75, 0.25])) - expected) < 1e-12
    assert abs(expected - 0.1438) < 1e-4


def test_kl_nonnegative_1000_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert kl_div(p, q) >= -1e-12


# ---------------------------------------------------------------- forward

def test_forward_zero_model_gives_zero_active_logits():
    m = small_model()
    for w in m.weights:
        w[:] = 0.0
    logits = forward(m, np.zeros((2, 4)))
    assert np.allclose(logits, 0.0)


def test_forward_output_shape():
    m = init_mlp(16, [8], 10, set(range(10)), np.random.default_rng(0))
    out = forward(m, np.zeros((32, 16)))
    assert out.shape == (32, 10)


def test_forward_dim_mismatch_rejected():
    m = small_model()
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 5)))


def test_model_requires_nonempty_active_set():
    with pytest.raises(ValueError):
        Mlp([2, 2], np.zeros(6), frozenset())


def test_model_requires_a_buffer_of_its_parameter_count():
    for shape in [(5,), (2, 7), ()]:
        with pytest.raises(ValueError, match="6 parameters"):
            Mlp([2, 2], np.zeros(shape), frozenset({0}))
    stack = Mlp([2, 2], np.zeros((3, 6)), frozenset({0}))
    assert stack.weights[0].shape == (3, 2, 2) and stack.biases[0].shape == (3, 2)


# ---------------------------------------------------------------- adam

def test_adam_zero_gradient_keeps_parameter_buffer():
    m = small_model()
    before = m.flat.copy()
    st_ = init_adam(m.flat, lr=0.01)
    adam_step(st_, m.flat, np.zeros_like(m.flat))
    assert np.array_equal(before, m.flat)


def test_adam_first_step_magnitude_is_lr():
    p = np.array([1.0, -2.0])
    st_ = init_adam(p, lr=0.001)
    adam_step(st_, p, np.array([0.3, -0.7]))
    delta = np.abs(p - np.array([1.0, -2.0]))
    # bias-corrected first step moves each coordinate by ~lr * sign(g)
    assert np.allclose(delta, 0.001, atol=1e-6)


def test_adam_deterministic():
    def run():
        p = np.array([0.5, 0.5])
        st_ = init_adam(p, lr=0.01)
        for _ in range(5):
            adam_step(st_, p, np.array([0.1, -0.2]))
        return p

    assert np.array_equal(run(), run())


def test_adam_shape_mismatch_rejected():
    p = np.zeros(3)
    st_ = init_adam(p)
    with pytest.raises(ValueError):
        adam_step(st_, p, np.zeros(4))


# ---------------------------------------------------------------- training

def test_train_step_learns_separable_blobs():
    ds = gen_blobs(2, 4, 100, 0.5, 7)
    m = init_mlp(4, [16], 2, {0, 1}, np.random.default_rng(1))
    opt = init_adam(m.flat, lr=0.01)
    rng = np.random.default_rng(2)
    for _ in range(200):
        sel = rng.integers(0, len(ds), 32)
        train_step(m, opt, ds.features[sel], ds.labels[sel])
    pred = np.argmax(forward(m, ds.features)[:, [0, 1]], axis=1)
    assert (pred == ds.labels).mean() > 0.95


def test_initial_loss_is_uniform_baseline():
    m = init_mlp(4, [6], 4, {0, 1, 2, 3}, np.random.default_rng(0))
    for w in m.weights:
        w[:] = 0.0
    opt = init_adam(m.flat)
    x = np.random.default_rng(1).normal(size=(8, 4))
    y = np.array([0, 1, 2, 3] * 2)
    loss = train_step(m, opt, x, y)
    assert abs(loss - math.log(4)) < 1e-9


def test_train_step_rejects_labels_outside_active_set():
    m = init_mlp(4, [6], 4, {0, 1}, np.random.default_rng(0))
    opt = init_adam(m.flat)
    with pytest.raises(ValueError, match=r"labels \[3\]"):
        train_step(m, opt, np.zeros((2, 4)), np.array([0, 3]))
    for bad in (4, -1):  # outside [0, K) as well
        with pytest.raises(ValueError, match=rf"labels \[{bad}\]"):
            train_step(m, opt, np.zeros((2, 4)), np.array([bad, 1]))
    stack = replicate(m, 2)
    with pytest.raises(ValueError, match=r"labels \[2\]"):
        train_step(stack, init_adam(stack.flat), np.zeros((2, 3, 4)),
                   np.array([[0, 1, 1], [1, 2, 0]]))


def test_repeated_batch_loss_decreases():
    m = small_model(seed=5)
    opt = init_adam(m.flat, lr=0.01)
    x = np.random.default_rng(6).normal(size=(16, 4))
    y = np.random.default_rng(7).integers(0, 3, 16)
    losses = [train_step(m, opt, x, y) for _ in range(10)]
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------- gradient check

def test_gradient_matches_finite_differences():
    m = small_model(seed=0, dims=(4, 6, 3))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 4))
    y = rng.integers(0, 3, 5)
    assert max_grad_rel_error(m, x, cross_entropy(m, y)) <= 1e-3


def test_gradient_matches_finite_differences_masked():
    m = init_mlp(4, [6], 5, {1, 3}, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4))
    y = np.array([1, 3, 1, 3, 1])
    assert max_grad_rel_error(m, x, cross_entropy(m, y)) <= 1e-3


def test_clone_is_independent():
    m = small_model()
    c = clone_model(m)
    assert np.array_equal(c.flat, m.flat)
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]


# Pinned at the per-layer constructor: building a model from its flat buffer
# must draw the same weights.
PIN_INIT_SHA256 = "55e9feccbf1d4130f137af1965b95488f245ab1bce98a68abef4b0585b857a11"


def _pinned_model():
    return init_mlp(16, [64, 32], 10, {0, 3, 5, 7}, np.random.default_rng(8))


def test_init_mlp_bytes_are_pinned():
    assert hashlib.sha256(_pinned_model().flat.tobytes()).hexdigest() == PIN_INIT_SHA256


def test_unstacked_replicas_are_exact_and_independent():
    m = small_model(seed=5)
    source = m.flat.copy()
    stack = replicate(m, 3)
    models = unstack(stack)
    assert len(models) == 3
    for c in models:
        assert c.dims == m.dims and c.active_labels == m.active_labels
        assert c.flat.shape == m.flat.shape and c.flat.tobytes() == source.tobytes()
    stack.flat[...] = 0.0  # neither the source nor the unstacked models see the stack
    models[1].flat += 1.0
    models[1].weights[0][0, 0] = 7.0
    assert models[0].flat.tobytes() == source.tobytes()
    assert models[2].flat.tobytes() == source.tobytes()
    assert m.flat.tobytes() == source.tobytes()
    assert models[1].weights[0][0, 0] == 7.0 and models[1].flat[0] == 7.0
