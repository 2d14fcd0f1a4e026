"""Reference implementations the tests check the library against.

``brute_force`` scans every node subset for the maximum-weight clique, the
oracle for ``maxclique.solve``; ``write_dimacs`` writes the text that
``maxclique.read_dimacs`` parses. ``full_scan_candidates`` scores every
consumer subset, the oracle for ``alliances.enumerate_candidates``.
``offer_and_collect_pairs`` returns the conflicts as a set of uid tuples,
the oracle for ``alliances.offer_and_collect``; ``conflicts_from_pairs``
builds the ``alliances.Conflicts`` that tests hand to ``select_alliances``.
``distill_loss`` and ``kl_div`` evaluate the distillation objective whose
gradient ``distill.distill_loss_grad`` computes. ``split_per_class`` splits a
generated dataset into each class's first rows and the rest, the reference
for ``data.gen_blobs``' held-out block. ``match_first_price_loop`` scans
every bidder of every owner, the oracle for ``market.match_first_price``.
"""
import logging
from itertools import combinations
from pathlib import Path
from typing import Mapping

import numpy as np

from fedmarket.alliances import (
    MAX_ENUMERABLE_CONSUMERS,
    AllianceCandidate,
    AnonOffer,
    Conflicts,
    default_policy,
)
from fedmarket.data import LabeledDataset
from fedmarket.errors import ConfigError
from fedmarket.market import max_bid_matrix
from fedmarket.maxclique import WeightedGraph
from fedmarket.nn import PROB_FLOOR, entropy, forward, softmax

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


def write_dimacs(g: WeightedGraph, path: str | Path) -> None:
    """DIMACS-like text: ``p edge n m``, ``n <id> <weight>``, ``e <u> <v>`` (1-based ids)."""
    lines = []
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u, v]]
    lines.append(f"p edge {g.n} {len(edges)}")
    for v, w in enumerate(g.weights):
        lines.append(f"n {v + 1} {w}")
    for u, v in edges:
        lines.append(f"e {u + 1} {v + 1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    not underflow: for bids of at least 1e-25 and up to 12 members.
    """
    if len(consumers) > MAX_ENUMERABLE_CONSUMERS:
        raise ValueError(
            f"{len(consumers)} consumers exceeds the subset-enumeration guard "
            f"({MAX_ENUMERABLE_CONSUMERS})"
        )
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


log = logging.getLogger(__name__)


def offer_and_collect_pairs(candidates, consumers, policy=default_policy):
    """Anonymized offer round: a candidate survives only if all members accept.

    ``candidates`` come in increasing uid order. Returns the surviving
    candidates, in that order, and the union of all conflicting pairs between
    them, each as a (smaller uid, larger uid) tuple. A response that accepts
    an unknown uid, or whose conflict matrix does not fit its offers, is
    discarded (and logged), which makes that consumer's offers fail the
    unanimity rule.
    """
    n = len(candidates)
    if any(a.uid >= b.uid for a, b in zip(candidates, candidates[1:])):
        raise ValueError("candidates must come in increasing uid order")
    anon = [AnonOffer(c.uid, len(c.participants), c.shared_labels, c.contested) for c in candidates]
    offered_to: dict[int, list[int]] = {}  # consumer id -> its candidates' positions, in order
    for i, c in enumerate(candidates):
        for pid in c.participants:
            offered_to.setdefault(pid, []).append(i)
    # Positions follow the uids, so the upper triangle yields sorted pairs.
    conflicting = np.zeros((n, n), dtype=bool)
    accepted_by: dict[int, set[int]] = {}
    for consumer in consumers:
        mine = offered_to.get(consumer.id)
        if not mine:
            continue
        offers = [anon[i] for i in mine]
        response = policy(consumer, offers)
        unknown = set(response.accepted) - {o.uid for o in offers}
        matrix = np.asarray(response.conflicts, dtype=bool)
        if unknown or matrix.shape != (len(mine), len(mine)):
            log.warning(
                "consumer %d response rejected: unknown uids %s, conflict matrix %s for %d offers",
                consumer.id, sorted(unknown), matrix.shape, len(mine),
            )
            accepted_by[consumer.id] = set()
            continue
        accepted_by[consumer.id] = set(response.accepted)
        conflicting[np.ix_(mine, mine)] |= matrix
    surviving = [
        c
        for c in candidates
        if all(c.uid in accepted_by.get(pid, set()) for pid in c.participants)
    ]
    a, b = np.nonzero(np.triu(conflicting | conflicting.T, 1))
    # An object array hands out the candidates' own uid objects, so the pairs
    # share them instead of each holding two new ints.
    uids = np.array([c.uid for c in candidates], dtype=object)
    survivors = {c.uid for c in surviving}
    pairs = zip(uids[a].tolist(), uids[b].tolist())
    return surviving, {(u, v) for u, v in pairs if u in survivors and v in survivors}


def conflicts_from_pairs(uids, pairs) -> Conflicts:
    """The relation over ``uids``, holding exactly ``pairs``.

    A pair may name its uids in either order; each must be among ``uids``.
    """
    ordered = sorted(uids)
    pos = {u: i for i, u in enumerate(ordered)}
    matrix = np.zeros((len(ordered), len(ordered)), dtype=bool)
    for u, v in pairs:
        matrix[pos[u], pos[v]] = matrix[pos[v], pos[u]] = True
    return Conflicts(np.array(ordered, dtype=np.int64), matrix)


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


# The teacher table built per chunk, one ensemble call per batch-sized chunk
# of K-wide teacher logits with ``target_index`` threaded through each step.

def entropy_weights_kwide(teacher_logits, contrib, target_index):
    """Per-sample weights proportional to exp(-entropy), normalized over the teachers."""
    h = np.stack(
        [entropy(softmax(z, target_index[mask])) for z, mask in zip(teacher_logits, contrib)]
    )
    e = np.exp(-h)
    return e / e.sum(axis=0, keepdims=True)


def uniform_weights_kwide(teacher_logits, contrib, target_index):
    """Uniform per-sample teacher weights (plain logit averaging)."""
    n_t = len(teacher_logits)
    return np.full((n_t, *teacher_logits[0].shape[:-1]), 1.0 / n_t)


def combine_teachers_kwide(teacher_logits, weights, contrib, target_index):
    """Per-position weighted combination of teacher logits over the target positions."""
    shape = (*teacher_logits[0].shape[:-1], target_index.size)
    num = np.zeros(shape)
    den = np.zeros(shape)
    for z, w, mask in zip(teacher_logits, weights, contrib):
        vals = z[..., target_index] * mask
        num += w[..., None] * vals
        den += w[..., None] * mask
    return num / den


def teacher_targets_kwide(teachers, contrib, x, weighting, target_index):
    """The ensemble's target distribution over the target positions for one chunk ``x``."""
    t_logits = [forward(t, x) for t in teachers]
    w = weighting(t_logits, contrib, target_index)
    z_t = combine_teachers_kwide(t_logits, w, contrib, target_index)
    return softmax(z_t, slice(None))  # z_t holds only the target columns


def teacher_table_per_chunk(teachers, x, weighting, target_index, rows):
    """The teacher table over ``x`` as one ensemble call per ``rows``-row chunk.

    ``weighting`` is :func:`entropy_weights_kwide` or :func:`uniform_weights_kwide`.
    """
    contrib = [np.array([c in t.active_labels for c in target_index]) for t in teachers]
    chunks = [x[i : i + rows] for i in range(0, len(x), rows)]
    return np.concatenate(
        [teacher_targets_kwide(teachers, contrib, c, weighting, target_index) for c in chunks]
    )


def split_per_class(ds: LabeledDataset, first_count: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Split each class's samples into the first ``first_count`` and the rest.

    Keeps the two halves on the same class distribution, e.g. a train pool
    and a held-out test pool drawn from one generated dataset.
    """
    first: list[int] = []
    rest: list[int] = []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        if len(idx) < first_count:
            raise ConfigError(
                f"class {c}: cannot split off {first_count} samples, only {len(idx)} present"
            )
        first.extend(idx[:first_count])
        rest.extend(idx[first_count:])
    fi = np.array(first, dtype=np.intp)
    ri = np.array(rest, dtype=np.intp)
    return (
        LabeledDataset(ds.features[fi], ds.labels[fi], ds.num_classes),
        LabeledDataset(ds.features[ri], ds.labels[ri], ds.num_classes),
    )


def match_first_price_loop(bids: np.ndarray, budgets: Mapping[int, float]) -> dict[int, int]:
    """First-price greedy owner id -> consumer id: each owner to its highest affordable bidder.

    Ties go to the lowest consumer index; winners pay their bid out of the
    remaining budget. Owners nobody bids on (affordably) stay unmatched.
    """
    b = np.asarray(bids, dtype=float)
    remaining = dict(budgets)
    assignment: dict[int, int] = {}
    for o in range(b.shape[1]):
        best_cid = -1
        best_bid = 0.0
        for cid in range(b.shape[0]):
            amount = b[cid, o]
            if amount <= 0 or remaining.get(cid, 0.0) < amount:
                continue
            if amount > best_bid:
                best_bid = amount
                best_cid = cid
        if best_cid >= 0:
            assignment[o] = best_cid
            remaining[best_cid] -= best_bid
    return assignment
