"""Alliance detection and creation.

Pipeline: enumerate candidate consumer coalitions from the bidding history,
collect accept/conflict responses from each consumer against anonymized
offers, pick the optimal compatible set by solving a weighted max-clique
problem, and instantiate each winner as a synthetic consumer with a pooled
budget.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .market import BiddingHistory, DataConsumer, DataOwner, max_bid_matrix
from .maxclique import WeightedGraph, solve
from .nn import init_mlp

log = logging.getLogger(__name__)

# The largest consumer count whose every measured full pass over the paper's
# group-structured market (every subset a candidate) took at most 10 s on a
# 2-core x86 VM: 0.9-1.0 s at 11 consumers; 4.9-6.2 s at 12, of which
# maxclique.solve took 3.5-4.8 s, with a peak RSS of 166 MB (BENCH_17.json).
# 13 consumers (8,178 candidates) were not measured.
MAX_ENUMERABLE_CONSUMERS = 12


@dataclass(frozen=True)
class AllianceCandidate:
    """A possible coalition: who, which shared labels, which contested owners."""

    uid: int
    participants: frozenset[int]
    shared_labels: frozenset[int]
    contested: frozenset[int]

    def key(self) -> tuple[frozenset[int], frozenset[int]]:
        """Identity for deduplication against already-created alliances."""
        return (self.participants, self.shared_labels)


@dataclass(frozen=True)
class AnonOffer:
    """What a consumer sees about a candidate: size, never identities."""

    uid: int
    n_participants: int
    shared_labels: frozenset[int]
    contested: frozenset[int]


@dataclass
class DCResponse:
    """A consumer's answer to its offers.

    ``accepted`` holds the uids it accepts. ``conflicts`` is a symmetric
    boolean matrix over the offers, in the order they were given, that marks
    the pairs the consumer will not hold together; its diagonal is ignored.
    """

    accepted: set[int]
    conflicts: np.ndarray


@dataclass(frozen=True, eq=False)
class Conflicts:
    """The pairs of candidates that may not be chosen together.

    ``uids`` are the candidates' uids, strictly increasing; ``matrix[i, j]``
    marks that the candidates ``uids[i]`` and ``uids[j]`` conflict. The
    matrix is symmetric with a False diagonal. Its length and iteration are
    those of the pair set: each conflicting pair once, as a
    (smaller uid, larger uid) tuple of ints.
    """

    uids: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.uids)
        if self.uids.dtype != np.int64 or self.uids.shape != (n,):
            raise ValueError(f"uids must be a 1-D int64 array, got {self.uids.dtype} {self.uids.shape}")
        if self.matrix.dtype != bool or self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix must be a {n} x {n} boolean array, got {self.matrix.dtype} {self.matrix.shape}"
            )
        if np.any(self.uids[1:] <= self.uids[:-1]):
            raise ValueError("uids must be strictly increasing")
        if not np.array_equal(self.matrix, self.matrix.T):
            raise ValueError("conflict matrix must be symmetric")
        if self.matrix.diagonal().any():
            raise ValueError("no candidate conflicts with itself")

    def __len__(self) -> int:
        return int(np.count_nonzero(self.matrix)) // 2

    def __iter__(self) -> Iterator[tuple[int, int]]:
        a, b = np.nonzero(np.triu(self.matrix, 1))
        return zip(self.uids[a].tolist(), self.uids[b].tolist())


@dataclass
class Alliance:
    """An instantiated coalition: its synthetic consumer, whose ``budget`` is
    the pooled payments, and the money trail."""

    candidate: AllianceCandidate
    consumer: DataConsumer
    payments: dict[int, float]
    effective_budgets: dict[int, float]
    created_round: int = 0


PolicyFn = Callable[[DataConsumer, list[AnonOffer]], DCResponse]


def enumerate_candidates(
    consumers: Sequence[DataConsumer],
    owners: Sequence[DataOwner],
    history: BiddingHistory,
    min_shared_labels: int,
    min_shared_owners: int,
    uid_start: int = 0,
) -> list[AllianceCandidate]:
    """All consumer subsets whose shared task and contested owners pass the thresholds.

    An owner is contested by a subset iff every member bid positively on it
    at some point in the history window. Adding a member only shrinks a
    subset's shared labels and contested owners, so both thresholds are
    antimonotone: subsets of size k+1 are built only from the size-k subsets
    that passed, each extended by a later consumer id, and no superset of a
    failing subset is scored. Candidates come in size-then-lexicographic
    order of their sorted ids and take consecutive uids in that order.
    """
    if len(consumers) > MAX_ENUMERABLE_CONSUMERS:
        raise ValueError(
            f"{len(consumers)} consumers exceeds the subset-enumeration guard "
            f"({MAX_ENUMERABLE_CONSUMERS})"
        )
    if any(c.is_synthetic for c in consumers):
        raise ValueError("synthetic consumers cannot join alliances")
    by_id = {c.id: c for c in consumers}
    ids = sorted(by_id)
    labels = [frozenset(by_id[c].label_set) for c in ids]
    # Row i of the history is the i-th smallest id.
    bid_on = [
        frozenset(int(o.id) for o, bid in zip(owners, row) if bid > 0)
        for row in max_bid_matrix(history)
    ]

    def passes(shared: frozenset[int], contested: frozenset[int]) -> bool:
        return len(shared) >= min_shared_labels and len(contested) >= min_shared_owners

    # (member positions, shared labels, contested owners) of the passing subsets
    level = [((i,), labels[i], bid_on[i]) for i in range(len(ids)) if passes(labels[i], bid_on[i])]
    out: list[AllianceCandidate] = []
    uid = uid_start
    while level:
        extended = []
        for members, prefix_labels, prefix_owners in level:
            for j in range(members[-1] + 1, len(ids)):
                shared, contested = prefix_labels & labels[j], prefix_owners & bid_on[j]
                if passes(shared, contested):
                    extended.append((members + (j,), shared, contested))
        for members, shared, contested in extended:
            participants = frozenset(ids[i] for i in members)
            out.append(AllianceCandidate(uid, participants, shared, contested))
            uid += 1
        level = extended
    return out


def candidate_value(c: AllianceCandidate) -> int:
    """Objective weight: participants x shared labels x contested owners."""
    return len(c.participants) * len(c.shared_labels) * len(c.contested)


def default_policy(consumer: DataConsumer, offers: list[AnonOffer]) -> DCResponse:
    """Accept everything; flag near-duplicate pairs as conflicting.

    Two offers conflict when their label sets overlap in at least half of the
    smaller one, which weeds out the stack of near-identical alliances the
    enumeration produces.
    """
    size = np.array([len(o.shared_labels) for o in offers], dtype=np.intp)
    flat = [label for o in offers for label in o.shared_labels]
    labels = np.unique(flat)
    onehot = np.zeros((len(offers), len(labels)))
    onehot[np.repeat(np.arange(len(offers)), size), np.searchsorted(labels, flat)] = 1.0
    conflicts = 2 * (onehot @ onehot.T) >= np.minimum.outer(size, size)
    np.fill_diagonal(conflicts, False)
    return DCResponse({o.uid for o in offers}, conflicts)


def offer_and_collect(
    candidates: Sequence[AllianceCandidate],
    consumers: Sequence[DataConsumer],
    policy: PolicyFn = default_policy,
) -> tuple[list[AllianceCandidate], Conflicts]:
    """Anonymized offer round: a candidate survives only if all members accept.

    Returns the surviving candidates and the union of all consumers'
    conflicts over every candidate. A response that accepts an unknown uid,
    or whose conflict matrix does not fit its offers, is discarded (and
    logged), which makes that consumer's offers fail the unanimity rule.
    """
    n = len(candidates)
    by_uid = sorted(range(n), key=lambda i: candidates[i].uid)
    rank = np.empty(n, dtype=np.intp)
    rank[by_uid] = np.arange(n)
    anon = [AnonOffer(c.uid, len(c.participants), c.shared_labels, c.contested) for c in candidates]
    offered_to: dict[int, list[int]] = {}  # consumer id -> its candidates' positions, in order
    for i, c in enumerate(candidates):
        for pid in c.participants:
            offered_to.setdefault(pid, []).append(i)
    # Conflicts in uid-rank space, the order of Conflicts.uids.
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
        idx = rank[mine]
        conflicting[np.ix_(idx, idx)] |= matrix
    surviving = [
        c
        for c in candidates
        if all(c.uid in accepted_by.get(pid, set()) for pid in c.participants)
    ]
    conflicting |= conflicting.T
    np.fill_diagonal(conflicting, False)
    uids = np.array([candidates[i].uid for i in by_uid], dtype=np.int64)
    return surviving, Conflicts(uids, conflicting)


def select_alliances(
    accepted: Sequence[AllianceCandidate],
    conflicts: Conflicts,
) -> list[AllianceCandidate]:
    """Maximum-total-value conflict-free subset, via the weighted max-clique solver.

    Every accepted uid must be in ``conflicts``; candidates of the relation
    that are not among ``accepted`` are left out.
    """
    if not accepted:
        return []
    ordered = sorted(accepted, key=lambda c: c.uid)
    uids = np.array([c.uid for c in ordered], dtype=np.int64)
    pos = np.searchsorted(conflicts.uids, uids)
    # A sentinel past the largest accepted uid catches positions past the end.
    found = np.append(conflicts.uids, uids[-1] + 1)[pos] == uids
    if not found.all():
        raise ValueError(f"candidate uid {uids[~found][0]} is not in the conflict relation")
    adj = ~conflicts.matrix.take(pos, axis=0).take(pos, axis=1)
    np.fill_diagonal(adj, False)
    graph = WeightedGraph([candidate_value(c) for c in ordered], adj)
    chosen, _ = solve(graph)
    return [ordered[i] for i in sorted(chosen)]


def instantiate(
    selected: Sequence[AllianceCandidate],
    consumers: Sequence[DataConsumer],
    budget_share: float,
    hidden_dims: list[int],
    rng: np.random.Generator,
    id_start: int,
    created_round: int = 0,
) -> list[Alliance]:
    """Create a synthetic consumer per selected candidate and split the budget.

    The synthetic model predicts over the union of the participants' label
    sets; its task (and bidding interest) is the shared label set. It holds
    no validation shard, since only real consumers are evaluated.
    Participants pay ``budget_share`` each; a candidate whose participant
    cannot afford it is skipped.
    """
    by_id = {c.id: c for c in consumers}
    out: list[Alliance] = []
    next_id = id_start
    for cand in sorted(selected, key=lambda c: c.uid):
        members = [by_id[p] for p in sorted(cand.participants)]
        poorest = min(m.budget for m in members)
        if budget_share > poorest:
            log.warning(
                "alliance %d skipped: budget share %.3f exceeds a participant budget %.3f",
                cand.uid,
                budget_share,
                poorest,
            )
            continue
        union_labels = frozenset.union(*(m.label_set for m in members))
        first = members[0].model
        model = init_mlp(first.dims[0], hidden_dims, first.num_classes, union_labels, rng)
        payments = {m.id: float(budget_share) for m in members}
        effective = {
            m.id: m.budget + sum(payments[o.id] for o in members if o.id != m.id)
            for m in members
        }
        for m in members:
            m.budget -= budget_share
        synthetic = DataConsumer(
            id=next_id,
            label_set=cand.shared_labels,
            model=model,
            validation_shard=None,
            budget=float(sum(payments.values())),
            is_synthetic=True,
        )
        out.append(
            Alliance(cand, synthetic, payments, effective, created_round)
        )
        next_id += 1
    return out


def create_alliances(
    consumers: Sequence[DataConsumer],
    owners: Sequence[DataOwner],
    history: BiddingHistory,
    min_shared_labels: int,
    min_shared_owners: int,
    budget_share: float,
    hidden_dims: list[int],
    rng: np.random.Generator,
    existing: set[tuple[frozenset[int], frozenset[int]]],
    uid_start: int,
    id_start: int,
    created_round: int = 0,
    policy: PolicyFn = default_policy,
) -> tuple[list[Alliance], int]:
    """Full creation pass: enumerate, dedup, offer, select, instantiate.

    Returns the new alliances and the next fresh uid.
    """
    candidates = enumerate_candidates(
        consumers, owners, history, min_shared_labels, min_shared_owners, uid_start
    )
    next_uid = uid_start + len(candidates)
    candidates = [c for c in candidates if c.key() not in existing]
    if not candidates:
        return [], next_uid
    accepted, conflicts = offer_and_collect(candidates, consumers, policy)
    selected = select_alliances(accepted, conflicts)
    created = instantiate(
        selected, consumers, budget_share, hidden_dims, rng, id_start, created_round
    )
    return created, next_uid
