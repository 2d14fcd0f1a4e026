"""Reference implementations the tests check the library against.

``brute_force`` scans every node subset for the maximum-weight clique, the
oracle for ``maxclique.solve``. ``distill_loss`` and ``kl_div`` evaluate the
distillation objective whose gradient ``distill.distill_loss_grad`` computes.
"""
import numpy as np

from fedmarket.maxclique import WeightedGraph
from fedmarket.nn import PROB_FLOOR, softmax

BRUTE_FORCE_MAX_NODES = 25


def _neighbor_masks(g: WeightedGraph) -> list[int]:
    masks = []
    for v in range(g.n):
        m = 0
        for u in np.flatnonzero(g.adj[v]):
            m |= 1 << int(u)
        masks.append(m)
    return masks


def brute_force(g: WeightedGraph) -> tuple[set[int], int]:
    """Exhaustive subset scan; same tie rule as :func:`fedmarket.maxclique.solve`."""
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force is guarded at n <= {BRUTE_FORCE_MAX_NODES}")
    if g.n == 0:
        return set(), 0
    nbr = _neighbor_masks(g)
    best_w = 0
    best_key: tuple[int, ...] = ()
    for s in range(1, 1 << g.n):
        m = s
        weight = 0
        is_clique = True
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            # v must be adjacent to every higher-indexed member left in m
            if (nbr[v] & m) != m:
                is_clique = False
                break
            weight += g.weights[v]
        if not is_clique:
            continue
        if weight > best_w:
            best_w = weight
            best_key = _bits(s)
        elif weight == best_w and _bits(s) < best_key:
            best_key = _bits(s)
    return set(best_key), best_w


def _bits(s: int) -> tuple[int, ...]:
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length() - 1)
        s ^= low
    return tuple(out)


def kl_div(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p || q) in nats of each row; both are clamped at the probability floor inside the logs."""
    log_ratio = np.log(np.maximum(p, PROB_FLOOR)) - np.log(np.maximum(q, PROB_FLOOR))
    return (p * log_ratio).sum(axis=-1)


def distill_loss(student_active_logits: np.ndarray, p_t: np.ndarray, alpha: float) -> np.ndarray:
    """Per-row soft KL(student || teacher) blended with hard pseudo-label cross-entropy.

    The pseudo-label is the teacher's argmax; ties resolve to the lowest position.
    """
    p_s = softmax(student_active_logits, slice(None))
    pseudo = np.argmax(p_t, axis=-1)[..., None]
    hard = -np.log(np.maximum(np.take_along_axis(p_s, pseudo, axis=-1)[..., 0], PROB_FLOOR))
    return alpha * kl_div(p_s, p_t) + (1.0 - alpha) * hard
