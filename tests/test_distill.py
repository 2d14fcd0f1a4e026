import hashlib
import math

import numpy as np
import pytest

from fedmarket import distill
from fedmarket.data import LabeledDataset, gen_blobs
from fedmarket.distill import (
    DistillConfig,
    combine_teachers,
    contributor_masks,
    distill_loss_grad,
    distill_train,
    entropy_weights,
    teacher_targets,
    uniform_weights,
)
from fedmarket.errors import ConfigError
from fedmarket.fed import evaluate
from fedmarket.nn import (
    adam_step,
    backward,
    clone_model,
    forward,
    forward_cached,
    init_adam,
    init_mlp,
    replicate,
    softmax,
    train_step,
    unstack,
)

from conftest import max_grad_rel_error
from oracles import (
    distill_loss,
    entropy_weights_kwide,
    split_per_class,
    teacher_table_per_chunk,
    uniform_weights_kwide,
)


def weights_of(*rows):
    """entropy_weights of one-row teacher logits that each cover every position."""
    z = np.array(rows, dtype=float)
    return entropy_weights(z, np.ones(z.shape, dtype=bool))


def target(z):
    """A one-teacher ensemble's target distribution: the softmax of its logits."""
    return softmax(np.asarray(z, dtype=float), slice(None))


# ---------------------------------------------------------------- teacher weights

def test_single_teacher_weight_one():
    w = weights_of([1.0, 2.0])
    assert np.allclose(w, [1.0])


def test_identical_teachers_uniform():
    z = [0.3, -0.2, 1.0]
    w = weights_of(z, z, z)
    assert np.allclose(w, 1 / 3)


def test_confident_vs_uniform_closed_form():
    w = weights_of([1000.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0])
    # exp(0) / (exp(0) + exp(-ln 4)) = 0.8
    assert abs(w[0] - 0.8) < 1e-9
    assert abs(w[1] - 0.2) < 1e-9


def test_weights_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    w = weights_of(*[rng.normal(size=3) for _ in range(4)])
    assert abs(w.sum() - 1.0) < 1e-12
    assert (w > 0).all()


def test_weights_permutation_equivariant():
    rng = np.random.default_rng(1)
    logits = [rng.normal(size=3) for _ in range(3)]
    w = weights_of(*logits)
    w_rev = weights_of(*logits[::-1])
    assert np.allclose(w[::-1], w_rev)


def test_weight_decreases_with_entropy():
    sharp = [3.0, 0.0]
    w1 = weights_of(sharp, [0.5, 0.0])
    w2 = weights_of(sharp, [0.1, 0.0])
    assert w2[1] < w1[1]


def test_duplicate_teacher_increases_its_mass():
    a = [2.0, 0.0]
    b = [0.0, 1.0]
    w = weights_of(a, b)
    w_dup = weights_of(a, a, b)
    assert w_dup[0] + w_dup[1] > w[0]


# ---------------------------------------------------------------- combine

ALL2 = np.ones((1, 2), dtype=bool)


def test_ensemble_single_teacher_identity():
    z = np.array([1.5, -0.5])
    out = combine_teachers(z[None], np.array([1.0]), ALL2)
    assert np.allclose(out, z)


def test_ensemble_full_overlap_mean():
    a = np.array([2.0, 0.0])
    b = np.array([0.0, 4.0])
    out = combine_teachers(np.array([a, b]), np.array([0.5, 0.5]), np.repeat(ALL2, 2, axis=0))
    assert np.allclose(out, [1.0, 2.0])


def test_ensemble_partial_overlap_renormalizes():
    a = np.array([1.0, 3.0, 50.0])  # active {0, 1}; the inactive logit is never read
    b = np.array([-50.0, 5.0, 7.0])  # active {1, 2}
    contrib = np.array([[True, True, False], [False, True, True]])
    out = combine_teachers(np.array([a, b]), np.array([0.5, 0.5]), contrib)
    assert out[0] == 1.0  # only teacher A covers class 0
    assert out[2] == 7.0  # only teacher B covers class 2
    assert out[1] == 4.0  # averaged with renormalized (equal) weights


def test_ensemble_orphan_class_rejected():
    a = init_mlp(2, [3], 3, {0, 1}, np.random.default_rng(0))
    with pytest.raises(ValueError, match="class 2"):
        contributor_masks([a], np.arange(3))
    with pytest.raises(ValueError, match="no teacher covers class 2"):
        teacher_targets([a], np.zeros((4, 2)), entropy_weights, np.arange(3))


def test_ensemble_needs_teachers_that_share_a_label():
    a = init_mlp(2, [3], 4, {0, 1}, np.random.default_rng(0))
    b = init_mlp(2, [3], 4, {3}, np.random.default_rng(1))
    with pytest.raises(ValueError, match="at least one teacher"):
        contributor_masks([], np.arange(2))
    with pytest.raises(ValueError, match="shares no labels"):
        contributor_masks([a, b], np.arange(2))
    # teacher_targets builds the same masks, so it rejects the same ensembles
    with pytest.raises(ValueError, match="at least one teacher"):
        teacher_targets([], np.zeros((4, 2)), entropy_weights, np.arange(2))
    with pytest.raises(ValueError, match="shares no labels"):
        teacher_targets([a, b], np.zeros((4, 2)), entropy_weights, np.arange(2))


# ---------------------------------------------------------------- loss

def test_loss_zero_when_student_matches_teacher():
    z = np.array([1.0, -1.0, 0.5])
    assert distill_loss(z, target(z), alpha=1.0) == pytest.approx(0.0, abs=1e-12)


def test_loss_alpha_zero_is_pseudo_label_ce():
    student = np.array([0.0, 1.0])
    teacher = [2.0, 0.0]  # argmax -> class 0
    got = distill_loss(student, target(teacher), alpha=0.0)
    p0 = math.exp(0.0) / (math.exp(0.0) + math.exp(1.0))
    assert abs(got - (-math.log(p0))) < 1e-12


def test_loss_alpha_half_blends_hand_computed_terms():
    student = np.array([0.4, -0.3])
    teacher = [1.2, 0.1]
    ps = np.exp([0.4, -0.3])
    ps /= ps.sum()
    pt = np.exp([1.2, 0.1])
    pt /= pt.sum()
    soft = float(sum(ps * np.log(ps / pt)))
    hard = -math.log(ps[0])  # teacher argmax is class 0
    got = distill_loss(student, target(teacher), alpha=0.5)
    assert abs(got - 0.5 * (soft + hard)) < 1e-12


def test_loss_uses_student_first_kl_orientation():
    student = np.array([2.0, 0.0])
    teacher = [0.0, 1.0]
    ps = np.exp([2.0, 0.0])
    ps /= ps.sum()
    pt = np.exp([0.0, 1.0])
    pt /= pt.sum()
    kl_st = float(sum(ps * np.log(ps / pt)))
    kl_ts = float(sum(pt * np.log(pt / ps)))
    assert abs(kl_st - kl_ts) > 1e-3  # asymmetric inputs
    got = distill_loss(student, target(teacher), alpha=1.0)
    assert abs(got - kl_st) < 1e-12


def test_loss_nonnegative_at_alpha_one():
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = rng.normal(size=3)
        t = rng.normal(size=3)
        assert distill_loss(s, target(t), alpha=1.0) >= -1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_loss_grad_matches_finite_differences(alpha):
    student = init_mlp(4, [6], 5, {0, 2, 3}, np.random.default_rng(50))  # 3 of K = 5 active
    idx = student.active_index
    rng = np.random.default_rng(51)
    x = rng.normal(size=(6, 4))
    p_t = target(rng.normal(size=(6, idx.size)))

    def loss_grad(logits):
        z = logits[:, idx]
        dz = distill_loss_grad(softmax(z, slice(None)), p_t, alpha)
        return distill_loss(z, p_t, alpha).mean(), dz

    assert max_grad_rel_error(student, x, loss_grad) <= 1e-3


# ---------------------------------------------------------------- training

def _blob_setup(seed=0):
    full = gen_blobs(4, 8, 1000, 1.0, seed)
    train, rest = split_per_class(full, 250)
    val, pub = split_per_class(rest, 150)
    return train, val, pub.features


def _train_teacher(train, seed=1, steps=400):
    model = init_mlp(train.dim, [16], train.num_classes, set(range(train.num_classes)), np.random.default_rng(seed))
    opt = init_adam(model.flat, lr=0.005)
    rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        sel = rng.integers(0, len(train), 32)
        train_step(model, opt, train.features[sel], train.labels[sel])
    return model


def test_distill_fixed_point_keeps_student():
    train, _, pub = _blob_setup()
    teacher = _train_teacher(train)
    student = clone_model(teacher)
    before = student.flat.copy()
    cfg = DistillConfig(alpha=1.0, epochs=1, batch_size=32, lr=0.001)
    distill_train(student, [teacher], pub, cfg, np.random.default_rng(0))
    assert np.allclose(before, student.flat, atol=1e-9)


def test_distill_zero_epochs_noop():
    # A zero-epoch call would leave the student as it is, so there is none.
    with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
        DistillConfig(alpha=1.0, epochs=0)
    train, _, pub = _blob_setup()
    narrow = init_mlp(train.dim, [16], 4, {0, 1}, np.random.default_rng(6))
    disjoint = init_mlp(train.dim, [16], 4, {2}, np.random.default_rng(7))
    cfg = DistillConfig(alpha=1.0, epochs=1)
    with pytest.raises(ValueError, match="at least one teacher"):
        distill_train(narrow, [], pub, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shares no labels"):
        distill_train(narrow, [disjoint], pub, cfg, np.random.default_rng(0))


def test_distill_transfers_knowledge():
    train, val, pub = _blob_setup(seed=3)
    teacher = _train_teacher(train, seed=4)
    t_acc = evaluate(teacher, val)
    student = init_mlp(train.dim, [16], 4, {0, 1, 2, 3}, np.random.default_rng(6))
    cfg = DistillConfig(alpha=1.0, epochs=10, batch_size=32, lr=0.001)
    distill_train(student, [teacher], pub, cfg, np.random.default_rng(7))
    s_acc = evaluate(student, val)
    assert s_acc >= t_acc - 0.03


def test_distill_never_touches_teachers():
    train, _, pub = _blob_setup(seed=8)
    teacher = _train_teacher(train, seed=9, steps=100)
    digest_before = hashlib.sha256(teacher.flat.tobytes()).hexdigest()
    student = init_mlp(train.dim, [16], 4, {0, 1, 2, 3}, np.random.default_rng(10))
    cfg = DistillConfig(alpha=0.5, epochs=2, batch_size=64, lr=0.001)
    distill_train(student, [teacher], pub, cfg, np.random.default_rng(11))
    digest_after = hashlib.sha256(teacher.flat.tobytes()).hexdigest()
    assert digest_before == digest_after


# SHA-256 of the student's parameters after the run below. The default scenario
# distills at alpha = 1 from fully covering teachers; this pins the hard-label
# term and the per-position renormalization bit for bit.
ALPHA_HALF_DIGEST = "99a966f0e22c00ebccb7564ce509e0684299f9484035278ade4ddc7214fa5771"


def test_distill_alpha_half_overlapping_teachers_digest():
    pub = gen_blobs(5, 6, 120, 1.0, 40).features  # 600 rows: short last batch
    teachers = [
        init_mlp(6, [8], 5, {0, 1, 2}, np.random.default_rng(41)),
        init_mlp(6, [8], 5, {1, 2, 3, 4}, np.random.default_rng(42)),
    ]
    student = init_mlp(6, [8], 5, {0, 1, 2, 3}, np.random.default_rng(43))
    cfg = DistillConfig(alpha=0.5, epochs=2, batch_size=32, lr=0.01)
    distill_train(student, teachers, pub, cfg, np.random.default_rng(44))
    assert hashlib.sha256(student.flat.tobytes()).hexdigest() == ALPHA_HALF_DIGEST


def _overlapping_setup(n_rows):
    """A pool of ``n_rows`` rows, two partly overlapping teachers and a student."""
    pub = gen_blobs(5, 6, 200, 1.0, 60).features[:n_rows]
    teachers = [
        init_mlp(6, [8], 5, {0, 1, 2}, np.random.default_rng(61)),
        init_mlp(6, [8], 5, {1, 2, 3, 4}, np.random.default_rng(62)),
    ]
    student = init_mlp(6, [8], 5, {0, 1, 2, 3}, np.random.default_rng(63))
    return pub, teachers, student


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_distill_builds_teacher_targets_once_per_call(monkeypatch, epochs):
    if epochs == 0:  # rejected by the config, so every call builds its table
        with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
            DistillConfig(0.5, epochs, 32, 0.01)
        return
    pub, teachers, student = _overlapping_setup(197)
    calls = []
    table_calls = []

    def counted(model, x):
        calls.append(len(x))
        return forward(model, x)

    def counted_table(*args):
        table_calls.append(len(args[1]))
        return teacher_targets(*args)

    monkeypatch.setattr(distill, "forward", counted)
    monkeypatch.setattr(distill, "teacher_targets", counted_table)
    distill_train(student, teachers, pub, DistillConfig(0.5, epochs, 32, 0.01),
                  np.random.default_rng(64))
    assert table_calls == [197]
    # One forward per teacher per table, over the whole pool.
    assert calls == [197] * len(teachers)
    assert sum(calls) == len(teachers) * 197


def _oracle_distill_train(student, teachers, weighting, public, alpha, epochs, batch_size, lr, rng):
    """Per-batch reference: recompute the teachers' targets for every batch of every epoch."""
    target_index = student.active_index
    opt = init_adam(student.flat, lr=lr)
    n = len(public)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            x = public[order[start : start + batch_size]]
            p_t = teacher_targets(teachers, x, weighting, target_index)
            logits, acts = forward_cached(student, x)
            dz = distill_loss_grad(softmax(logits, target_index), p_t, alpha)
            adam_step(opt, student.flat, backward(student, acts, dz))


@pytest.mark.parametrize("weighting", [entropy_weights, uniform_weights])
@pytest.mark.parametrize("n_rows", [197, 193])
def test_target_table_matches_per_batch_targets(weighting, n_rows):
    # Batches of 32 leave a short last batch (5 rows, 1 row) whose rows the
    # table computed inside full chunks; the BLAS may round them differently
    # (with OpenBLAS a one-row batch moves the last bits).
    pub, teachers, student = _overlapping_setup(n_rows)
    oracle = clone_model(student)
    distill_train(student, teachers, pub, DistillConfig(0.5, 3, 32, 0.01),
                  np.random.default_rng(65), weighting)
    _oracle_distill_train(oracle, teachers, weighting, pub, 0.5, 3, 32, 0.01,
                          np.random.default_rng(65))
    assert not np.array_equal(student.flat, _overlapping_setup(n_rows)[2].flat)  # it trained
    np.testing.assert_allclose(student.flat, oracle.flat, rtol=0, atol=1e-9)


@pytest.mark.parametrize(
    "weighting, weighting_kwide",
    [(entropy_weights, entropy_weights_kwide), (uniform_weights, uniform_weights_kwide)],
)
@pytest.mark.parametrize("n_rows", [197, 193])
def test_teacher_table_matches_per_chunk_build(weighting, weighting_kwide, n_rows):
    # Partial coverage, and a short last chunk (5 rows, 1 row).
    pub, teachers, student = _overlapping_setup(n_rows)
    target_index = student.active_index
    table = teacher_targets(teachers, pub, weighting, target_index)
    expected = teacher_table_per_chunk(teachers, pub, weighting_kwide, target_index, 32)
    assert table.shape == (n_rows, target_index.size)
    assert np.array_equal(table, expected)


def _oracle_entropy_weights(rows):
    """Per-sample reference: exp(-entropy) weights from each teacher's covered logits."""
    ents = []
    for z in rows:
        p = np.exp(z - z.max())
        p /= p.sum()
        ents.append(-sum(float(pi) * math.log(pi) for pi in p if pi > 0.0))
    e = np.exp(-np.asarray(ents))
    return e / e.sum()


def test_batched_weights_match_single_sample_op():
    rng = np.random.default_rng(12)
    k = 5
    teachers = [
        init_mlp(4, [6], k, {0, 1, 2}, np.random.default_rng(13)),
        init_mlp(4, [6], k, {1, 2, 3}, np.random.default_rng(14)),
    ]
    target_index = np.array([1, 2, 3], dtype=np.intp)
    x = rng.normal(size=(6, 4))
    t_logits = [forward(t, x) for t in teachers]
    contrib = contributor_masks(teachers, target_index)
    batched = entropy_weights(np.stack([z[:, target_index] for z in t_logits]), contrib)
    for row in range(6):
        expected = _oracle_entropy_weights(
            [z[row, target_index[mask]] for z, mask in zip(t_logits, contrib)]
        )
        assert np.allclose(batched[:, row], expected, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(alpha=1.5)
    with pytest.raises(ConfigError, match=r"alpha must lie in \[0, 1\], got 2.0"):
        DistillConfig(alpha=2.0)
    with pytest.raises(ValueError, match="epochs must be >= 1, got -1"):
        DistillConfig(epochs=-1)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        DistillConfig(batch_size=0)
    for lr in (0.0, -0.001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr"):
            DistillConfig(lr=lr)
    student = init_mlp(2, [], 3, {0, 1}, np.random.default_rng(0))
    pub = np.zeros((4, 2))
    with pytest.raises(ValueError):
        distill_train(student, [], pub, DistillConfig(), np.random.default_rng(0))


# ---------------------------------------------------------------- inactive outputs

PIN_ACTIVE = frozenset({0, 2, 3, 7})  # of K = 10


def _inactive(model):
    return np.setdiff1d(np.arange(model.num_classes), model.active_index)


def _noised_inactive(model, seed):
    """A copy of ``model`` whose output weights and biases at inactive labels are N(0, 5) noise."""
    out = clone_model(model)
    idx = _inactive(model)
    rng = np.random.default_rng(seed)
    out.weights[-1][:, idx] = rng.normal(0.0, 5.0, size=(model.dims[-2], idx.size))
    out.biases[-1][idx] = rng.normal(0.0, 5.0, size=idx.size)
    return out


def _active_part(model):
    """Every hidden parameter and the output parameters at the active labels, in one vector."""
    idx = model.active_index
    hidden = [a.ravel() for a in model.weights[:-1] + model.biases[:-1]]
    return np.concatenate([*hidden, model.weights[-1][:, idx].ravel(), model.biases[-1][idx]])


def _inactive_part(model):
    idx = _inactive(model)
    return np.concatenate([model.weights[-1][:, idx].ravel(), model.biases[-1][idx]])


def test_inactive_outputs_take_no_part():
    data = gen_blobs(10, 8, 60, 1.0, 70)
    keep = np.isin(data.labels, sorted(PIN_ACTIVE))
    x, y = data.features[keep], data.labels[keep]
    base = init_mlp(8, [12], 10, PIN_ACTIVE, np.random.default_rng(71))
    noised = _noised_inactive(base, 72)
    assert not np.array_equal(_inactive_part(base), _inactive_part(noised))
    assert np.array_equal(_active_part(base), _active_part(noised))

    # Local training, on one-model stacks as fed.local_train runs it.
    trained = []
    for model in (base, noised):
        stack = replicate(model, 1)
        opt = init_adam(stack.flat, lr=0.01)
        rng = np.random.default_rng(73)
        losses = []
        for _ in range(5):
            sel = rng.integers(0, len(y), 32)
            losses.append(train_step(stack, opt, x[sel][None], y[sel][None]))
        trained.append((unstack(stack)[0], np.concatenate(losses)))
    (a, loss_a), (b, loss_b) = trained
    assert np.array_equal(loss_a, loss_b)
    assert np.array_equal(_active_part(a), _active_part(b))
    assert not np.array_equal(_active_part(a), _active_part(base))  # it trained
    assert np.array_equal(_inactive_part(b), _inactive_part(noised))

    # Distillation from two partly overlapping teachers, theirs noised too.
    pub = gen_blobs(10, 8, 20, 1.0, 74).features
    teachers = [
        init_mlp(8, [12], 10, {0, 2, 5}, np.random.default_rng(75)),
        init_mlp(8, [12], 10, {3, 7, 9}, np.random.default_rng(76)),
    ]
    noised_teachers = [_noised_inactive(t, 77 + i) for i, t in enumerate(teachers)]
    cfg = DistillConfig(alpha=0.5, epochs=2, batch_size=32, lr=0.01)
    students = []
    for student, ensemble in ((clone_model(a), teachers), (clone_model(b), noised_teachers)):
        distill_train(student, ensemble, pub, cfg, np.random.default_rng(79))
        students.append(student)
    s_a, s_b = students
    assert np.array_equal(_active_part(s_a), _active_part(s_b))
    assert not np.array_equal(_active_part(s_a), _active_part(a))  # it distilled
    assert np.array_equal(_inactive_part(s_b), _inactive_part(noised))

    # Evaluation.
    test = LabeledDataset(x, y, 10)
    for model_a, model_b in ((a, b), (s_a, s_b)):
        assert evaluate(model_a, test) == evaluate(model_b, test)
