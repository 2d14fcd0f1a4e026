"""Reference implementations the tests check the library against.

``brute_force`` scans every node subset for the maximum-weight clique, the
oracle for ``maxclique.solve``. ``full_scan_candidates`` scores every
consumer subset, the oracle for ``alliances.enumerate_candidates``.
``distill_loss`` and ``kl_div`` evaluate the distillation objective whose
gradient ``distill.distill_loss_grad`` computes.
"""
from itertools import combinations

import numpy as np

from fedmarket.alliances import MAX_ENUMERABLE_CONSUMERS, AllianceCandidate
from fedmarket.market import max_bid_matrix
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


def full_scan_candidates(
    consumers,
    owners,
    history,
    min_shared_labels: int,
    min_shared_owners: int,
    uid_start: int = 0,
) -> list[AllianceCandidate]:
    """All consumer subsets whose shared task and contested owners pass the thresholds.

    Scores every subset, in size-then-lexicographic order. An owner is
    contested when the product of the members' max bids on it is nonzero,
    which equals "every member bid positively" only while that product does
    not underflow: for bids of at least 1e-25 and up to 11 members.
    """
    if len(consumers) > MAX_ENUMERABLE_CONSUMERS:
        raise ValueError(
            f"{len(consumers)} consumers exceeds the subset-enumeration guard "
            f"({MAX_ENUMERABLE_CONSUMERS})"
        )
    if any(c.is_synthetic for c in consumers):
        raise ValueError("synthetic consumers cannot join alliances")
    bmax = max_bid_matrix(history)
    by_id = {c.id: c for c in consumers}
    ids = sorted(by_id)
    row = {cid: i for i, cid in enumerate(ids)}
    owner_ids = np.array([o.id for o in owners])

    out: list[AllianceCandidate] = []
    uid = uid_start
    for size in range(2, len(ids) + 1):
        for subset in combinations(ids, size):
            shared = frozenset.intersection(*(by_id[c].label_set for c in subset))
            if len(shared) < min_shared_labels:
                continue
            product = np.prod(bmax[[row[c] for c in subset], :], axis=0)
            contested = frozenset(int(o) for o in owner_ids[product > 0])
            if len(contested) < min_shared_owners:
                continue
            out.append(AllianceCandidate(uid, frozenset(subset), shared, contested))
            uid += 1
    return out


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
