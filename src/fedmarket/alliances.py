"""Alliance detection and creation.

Pipeline: enumerate candidate consumer coalitions from the bidding history,
collect accept/conflict responses from each consumer against anonymized
offers, pick the optimal compatible set by solving a weighted max-clique
problem, and instantiate each winner as an alliance with its own id, model
and pooled budget.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .market import BiddingHistory, DataConsumer, DataOwner, max_bid_matrix
from .maxclique import WeightedGraph, solve
from .nn import Mlp, init_mlp

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


def _check_uid_order(uids: np.ndarray) -> None:
    if (bad := np.flatnonzero(uids[1:] <= uids[:-1])).size:
        raise ValueError(f"uids must be strictly increasing: uid {uids[bad[0] + 1]} follows {uids[bad[0]]}")


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
        _check_uid_order(self.uids)
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
    """An instantiated coalition: its id (a bid-matrix row), its model, its
    ``budget`` (the pooled payments) and the money trail."""

    candidate: AllianceCandidate
    id: int
    model: Mlp
    budget: float
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

    ``candidates`` come in increasing uid order, as ``enumerate_candidates``
    emits them. Returns the surviving candidates, in that order, and the union
    of all consumers' conflicts over them. A response that accepts an unknown
    uid, or whose conflict matrix does not fit its offers, is discarded (and
    logged), which makes that consumer's offers fail the unanimity rule.
    """
    uids = np.array([c.uid for c in candidates], dtype=np.int64)
    _check_uid_order(uids)
    anon = [AnonOffer(c.uid, len(c.participants), c.shared_labels, c.contested) for c in candidates]
    conflicting = np.zeros((len(uids), len(uids)), dtype=bool)
    votes = np.zeros(len(uids), dtype=np.intp)  # members accepting each candidate
    for consumer in consumers:
        mine = [i for i, c in enumerate(candidates) if consumer.id in c.participants]
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
            continue
        votes[mine] += [o.uid in response.accepted for o in offers]
        conflicting[np.ix_(mine, mine)] |= matrix
    keep = np.flatnonzero(votes == [len(c.participants) for c in candidates])
    conflicting = conflicting.take(keep, axis=0).take(keep, axis=1)
    conflicting |= conflicting.T
    np.fill_diagonal(conflicting, False)
    return [candidates[i] for i in keep], Conflicts(uids[keep], conflicting)


def select_alliances(
    accepted: Sequence[AllianceCandidate],
    conflicts: Conflicts,
) -> list[AllianceCandidate]:
    """Maximum-total-value conflict-free subset, via the weighted max-clique solver.

    ``conflicts`` is the relation over exactly the ``accepted`` uids, which
    come in increasing order, as ``offer_and_collect`` returns them.
    """
    uids = np.array([c.uid for c in accepted], dtype=np.int64)
    _check_uid_order(uids)
    if not np.array_equal(uids, conflicts.uids):
        stray = np.setxor1d(uids, conflicts.uids)[0]
        where = "in the conflict relation" if stray in uids else "an accepted candidate"
        raise ValueError(f"candidate uid {stray} is not {where}")
    adj = ~conflicts.matrix
    np.fill_diagonal(adj, False)
    chosen, _ = solve(WeightedGraph([candidate_value(c) for c in accepted], adj))
    return [accepted[i] for i in sorted(chosen)]


def instantiate(
    selected: Sequence[AllianceCandidate],
    consumers: Sequence[DataConsumer],
    budget_share: float,
    hidden_dims: list[int],
    rng: np.random.Generator,
    id_start: int,
    created_round: int = 0,
) -> list[Alliance]:
    """Create an alliance per selected candidate, in order, and split the budget.

    The alliance's model predicts over the union of the participants' label
    sets; its task (and bidding interest) is the candidate's shared labels.
    Participants pay ``budget_share`` each; a candidate whose participant
    cannot afford it is skipped.
    """
    if budget_share < 0:
        raise ValueError(f"budget_share must be >= 0, got {budget_share}")
    by_id = {c.id: c for c in consumers}
    out: list[Alliance] = []
    for cand in selected:
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
        budget = float(sum(payments.values()))
        out.append(
            Alliance(cand, id_start + len(out), model, budget, payments, effective, created_round)
        )
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
