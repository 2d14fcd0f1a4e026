import logging
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket.alliances import (
    MAX_ENUMERABLE_CONSUMERS,
    AllianceCandidate,
    AnonOffer,
    Conflicts,
    DCResponse,
    candidate_value,
    create_alliances,
    default_policy,
    enumerate_candidates,
    instantiate,
    offer_and_collect,
    select_alliances,
)
from fedmarket.data import LabeledDataset, gen_blobs
from fedmarket.market import BiddingHistory, DataConsumer, DataOwner, record_bids
from fedmarket.nn import init_mlp
from conftest import SHARED_LABELS as SHARED, group_market, label_shard, paper_market
from oracles import conflicts_from_pairs, full_scan_candidates, offer_and_collect_pairs

K = 10


def _shard(base, labels):
    return label_shard(base, labels)


def _no_conflicts(offers):
    return np.zeros((len(offers), len(offers)), dtype=bool)


# ---------------------------------------------------------------- enumeration

def test_enumeration_yields_four_candidates():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    assert [sorted(c.participants) for c in cands] == [
        [0, 1],
        [0, 2],
        [1, 2],
        [0, 1, 2],
    ]
    assert [candidate_value(c) for c in cands] == [24, 24, 24, 36]
    for c in cands:
        assert c.shared_labels == SHARED
        assert c.contested == frozenset(range(6))
    assert len({c.uid for c in cands}) == 4


def test_enumeration_empty_for_disjoint_labels():
    _, owners, history = paper_market()
    base = gen_blobs(K, 4, 40, 0.5, 1)
    disjoint = []
    for i, labels in enumerate([frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]):
        model = init_mlp(4, [6], K, labels, np.random.default_rng(i))
        disjoint.append(DataConsumer(i, labels, model, _shard(base, labels)))
    assert enumerate_candidates(disjoint, owners, history, 2, 2) == []


def test_enumeration_respects_owner_threshold():
    consumers, owners, history = paper_market()
    assert enumerate_candidates(consumers, owners, history, 2, 7) == []


def test_enumeration_guards_consumer_count():
    consumers, owners, history = paper_market()
    many = consumers * 7  # 21 entries
    with pytest.raises(ValueError):
        enumerate_candidates(many, owners, history, 2, 2)


def test_enumeration_guard_boundary():
    consumers, owners, history = group_market(MAX_ENUMERABLE_CONSUMERS, [7, 0])
    n = MAX_ENUMERABLE_CONSUMERS
    assert len(enumerate_candidates(consumers, owners, history, 2, 2)) == 2**n - n - 1
    consumers, owners, history = group_market(MAX_ENUMERABLE_CONSUMERS + 1, [7, 0])
    with pytest.raises(ValueError, match="guard"):
        enumerate_candidates(consumers, owners, history, 2, 2)


def test_contested_owners_need_only_positive_bids():
    # Both consumers bid 1e-200 on both owners: the bids' product underflows
    # to 0.0, but every member bid positively, so both owners are contested.
    base = gen_blobs(K, 4, 40, 0.5, 1)
    labels = frozenset({0, 1})
    consumers = [
        DataConsumer(i, labels, init_mlp(4, [6], K, labels, np.random.default_rng(i)),
                     _shard(base, labels))
        for i in range(2)
    ]
    owners = [DataOwner(j, _shard(base, labels), labels) for j in range(2)]
    history = record_bids(BiddingHistory(1, 2, 2), 0, np.full((2, 2), 1e-200))
    (cand,) = enumerate_candidates(consumers, owners, history, 2, 2)
    assert cand.participants == frozenset({0, 1})
    assert cand.contested == frozenset({0, 1})


_N_LABELS = 6
_MODEL = init_mlp(2, [2], _N_LABELS, set(range(_N_LABELS)), np.random.default_rng(0))
_ONE_ROW = LabeledDataset(np.zeros((1, 2)), np.zeros(1, dtype=int), _N_LABELS)
_NO_ROWS = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), _N_LABELS)
_BIDS = st.sampled_from([0.0, 0.0, 1e-3, 0.5, 1.0, 7.0])


@st.composite
def _random_markets(draw):
    """Consumers (in shuffled order, with gaps in their ids), owners and a history
    in which some consumers' rows are zero in every round."""
    ids = draw(st.lists(st.integers(0, 30), max_size=7, unique=True))
    n_dc, n_do = len(ids), draw(st.integers(0, 20))
    consumers = [
        DataConsumer(cid, draw(st.frozensets(st.integers(0, _N_LABELS - 1), min_size=1)),
                     _MODEL, _NO_ROWS)
        for cid in ids
    ]
    order = draw(st.permutations(range(n_dc)))
    owner_ids = draw(st.lists(st.integers(0, 50), min_size=n_do, max_size=n_do, unique=True))
    owners = [DataOwner(oid, _ONE_ROW, frozenset({0})) for oid in owner_ids]
    silent = draw(st.lists(st.booleans(), min_size=n_dc, max_size=n_dc))
    span = draw(st.integers(1, 3))
    history = BiddingHistory(span, n_dc, n_do)
    for r in range(span):
        cells = draw(st.lists(_BIDS, min_size=n_dc * n_do, max_size=n_dc * n_do))
        bids = np.array(cells).reshape(n_dc, n_do)
        bids[np.array(silent, dtype=bool)] = 0.0
        record_bids(history, r, bids)
    return [consumers[i] for i in order], owners, history


@settings(max_examples=300, deadline=None)
@given(_random_markets(), st.integers(1, 3), st.integers(1, 3), st.integers(0, 100))
def test_enumeration_matches_full_scan_oracle(market, min_labels, min_owners, uid_start):
    consumers, owners, history = market
    got = enumerate_candidates(consumers, owners, history, min_labels, min_owners, uid_start)
    want = full_scan_candidates(consumers, owners, history, min_labels, min_owners, uid_start)
    assert got == want


def test_candidate_value_products():
    c = AllianceCandidate(0, frozenset({1, 2, 3}), frozenset({0, 1}), frozenset(range(6)))
    assert candidate_value(c) == 36
    c2 = AllianceCandidate(1, frozenset({1, 2}), frozenset({0, 1}), frozenset(range(6)))
    assert candidate_value(c2) == 24


# ---------------------------------------------------------------- offers

def test_offer_accept_all_without_conflicts():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)

    def accept_all(consumer, offers):
        return DCResponse({o.uid for o in offers}, _no_conflicts(offers))

    surviving, conflicts = offer_and_collect(cands, consumers, accept_all)
    assert surviving == cands
    assert set(conflicts) == set()


def test_offer_unanimity_rule():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    triple = next(c for c in cands if len(c.participants) == 3)

    def decline_triple_if_zero(consumer, offers):
        accepted = {o.uid for o in offers}
        if consumer.id == 0:
            accepted.discard(triple.uid)
        return DCResponse(accepted, _no_conflicts(offers))

    surviving, _ = offer_and_collect(cands, consumers, decline_triple_if_zero)
    assert triple not in surviving
    assert len(surviving) == 3


def test_offer_conflict_pairs_survive_individually():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    u1, u2 = cands[0].uid, cands[3].uid

    def reject_pair(consumer, offers):
        uids = [o.uid for o in offers]
        matrix = _no_conflicts(offers)
        if {u1, u2} <= set(uids):
            matrix[uids.index(u2), uids.index(u1)] = True
            matrix[uids.index(u1), uids.index(u2)] = symmetric
        return DCResponse(set(uids), matrix)

    # Offers come in the candidates' order, which need not be uid order; a
    # pair marked on one side of the diagonal only still conflicts.
    for given in (cands, cands[1:] + cands[:1]):
        for symmetric in (True, False):
            surviving, conflicts = offer_and_collect(given, consumers, reject_pair)
            assert {c.uid for c in surviving} == {c.uid for c in cands}
            assert set(conflicts) == {(u1, u2)}


def test_offer_unknown_uid_response_discarded(caplog):
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)

    def buggy(consumer, offers):
        if consumer.id == 1:
            return DCResponse({9999}, _no_conflicts(offers))
        return DCResponse({o.uid for o in offers}, _no_conflicts(offers))

    with caplog.at_level(logging.WARNING):
        surviving, _ = offer_and_collect(cands, consumers, buggy)
    # candidates involving consumer 1 fail unanimity; only {0, 2} survives
    assert [sorted(c.participants) for c in surviving] == [[0, 2]]
    assert any("unknown uids" in rec.message for rec in caplog.records)


def test_offers_are_anonymized():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    seen: list[AnonOffer] = []

    def spy(consumer, offers):
        seen.extend(offers)
        return DCResponse({o.uid for o in offers}, _no_conflicts(offers))

    offer_and_collect(cands, consumers, spy)
    for offer in seen:
        assert isinstance(offer.n_participants, int)
        assert not hasattr(offer, "participants")


def test_default_policy_flags_similar_label_sets():
    offers = [
        AnonOffer(0, 2, frozenset({0, 1}), frozenset({0})),
        AnonOffer(1, 2, frozenset({0, 1}), frozenset({1})),
        AnonOffer(2, 2, frozenset({8, 9}), frozenset({2})),
    ]
    resp = default_policy(None, offers)
    assert resp.accepted == {0, 1, 2}
    assert resp.conflicts[0, 1] and resp.conflicts[1, 0]
    assert not resp.conflicts[0, 2] and not resp.conflicts[2, 0]
    assert not resp.conflicts.diagonal().any()


def _oracle_conflicts(offers):
    """The pairwise rule, one pair at a time, as a matrix over the offers."""
    out = np.zeros((len(offers), len(offers)), dtype=bool)
    for (i, a), (j, b) in combinations(enumerate(offers), 2):
        overlap = len(a.shared_labels & b.shared_labels)
        if 2 * overlap >= min(len(a.shared_labels), len(b.shared_labels)):
            out[i, j] = out[j, i] = True
    return out


_label_sets = st.frozensets(st.integers(0, 11), min_size=0, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(_label_sets, max_size=12), st.randoms(use_true_random=False))
def test_default_policy_matches_pairwise_oracle(label_sets, shuffle):
    uids = list(range(100, 100 + len(label_sets)))
    shuffle.shuffle(uids)  # offers need not come in uid order
    offers = [
        AnonOffer(u, 2, labels, frozenset({0})) for u, labels in zip(uids, label_sets)
    ]
    resp = default_policy(None, offers)
    assert resp.accepted == set(uids)
    assert resp.conflicts.dtype == bool
    assert np.array_equal(resp.conflicts, _oracle_conflicts(offers))


def test_offer_wrong_shape_response_discarded(caplog):
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)

    def short_matrix(consumer, offers):
        n = len(offers) - 1 if consumer.id == 1 else len(offers)
        return DCResponse({o.uid for o in offers}, np.zeros((n, n), dtype=bool))

    with caplog.at_level(logging.WARNING):
        surviving, _ = offer_and_collect(cands, consumers, short_matrix)
    # as with an unknown uid: consumer 1's offers fail unanimity
    assert [sorted(c.participants) for c in surviving] == [[0, 2]]
    assert any("conflict matrix" in rec.message for rec in caplog.records)


_RESPONSE_KINDS = ["symmetric", "one_sided", "partial", "wrong_shape", "unknown_uid"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 5), min_size=1, max_size=4), max_size=14),
    st.lists(st.sampled_from(_RESPONSE_KINDS), min_size=6, max_size=6),
    st.integers(0, 2**32 - 1),
    st.randoms(use_true_random=False),
)
def test_offer_conflicts_match_the_tuple_set_oracle(participant_sets, kinds, seed, shuffle):
    rng = np.random.default_rng(seed)
    # gapped uids, offered in a shuffled order
    uids = (np.cumsum(rng.integers(1, 4, len(participant_sets))) - 5).tolist()
    cands = [
        AllianceCandidate(u, members, frozenset({0, 1}), frozenset({0}))
        for u, members in zip(uids, participant_sets)
    ]
    shuffle.shuffle(cands)
    consumers = [SimpleNamespace(id=i) for i in range(6)]

    def policy(consumer, offers):
        draw = np.random.default_rng([seed, consumer.id])
        marks = draw.random((len(offers), len(offers))) < 0.3
        accepted = {o.uid for o in offers}
        kind = kinds[consumer.id]
        if kind == "symmetric":
            marks |= marks.T
        elif kind == "one_sided":
            marks = np.tril(marks)
        elif kind == "partial":
            accepted = {o.uid for o in offers if draw.random() < 0.7}
        elif kind == "wrong_shape":
            marks = marks[:-1]
        else:
            accepted.add(max(uids) + 1)
        return DCResponse(accepted, marks)

    surviving, conflicts = offer_and_collect(cands, consumers, policy)
    want_surviving, want_pairs = offer_and_collect_pairs(cands, consumers, policy)
    assert surviving == want_surviving
    assert conflicts.uids.tolist() == sorted(uids)
    pairs = list(conflicts)
    assert set(pairs) == want_pairs
    assert len(conflicts) == len(pairs) == len(want_pairs)
    assert all(type(a) is int and type(b) is int and a < b for a, b in pairs)


def test_conflicts_checks_its_invariants():
    uids = np.array([1, 4, 9], dtype=np.int64)
    matrix = np.zeros((3, 3), dtype=bool)
    matrix[0, 2] = matrix[2, 0] = True
    conflicts = Conflicts(uids, matrix)
    assert list(conflicts) == [(1, 9)] and len(conflicts) == 1
    one_sided, diagonal = matrix.copy(), matrix.copy()
    one_sided[2, 0] = False
    diagonal[1, 1] = True
    bad = [
        (uids.astype(np.int32), matrix, "int64"),
        (uids, matrix[:2], "3 x 3 boolean"),
        (uids, matrix.astype(np.uint8), "3 x 3 boolean"),
        (uids[::-1].copy(), matrix, "strictly increasing"),
        (np.array([1, 4, 4], dtype=np.int64), matrix, "strictly increasing"),
        (uids, one_sided, "symmetric"),
        (uids, diagonal, "itself"),
    ]
    for bad_uids, bad_matrix, message in bad:
        with pytest.raises(ValueError, match=message):
            Conflicts(bad_uids, bad_matrix)


# ---------------------------------------------------------------- selection

def _brute_force_select(cands, conflicts):
    norm = {tuple(sorted(p)) for p in conflicts}
    best, best_val = [], 0
    for r in range(len(cands) + 1):
        for combo in combinations(cands, r):
            uids = [c.uid for c in combo]
            if any(tuple(sorted((a, b))) in norm for a in uids for b in uids if a < b):
                continue
            val = sum(candidate_value(c) for c in combo)
            if val > best_val:
                best, best_val = list(combo), val
    return best_val


def test_select_nonconflicting_takes_both():
    a = AllianceCandidate(0, frozenset({1, 2}), frozenset({0, 1}), frozenset(range(6)))
    b = AllianceCandidate(1, frozenset({1, 2, 3}), frozenset({0, 1}), frozenset(range(6)))
    out = select_alliances([a, b], conflicts_from_pairs([0, 1], set()))
    assert out == [a, b]
    # pairs naming a uid that is not among the candidates are ignored
    assert select_alliances([a, b], conflicts_from_pairs([0, 1], {(0, 7), (5, 1), (-3, 0)})) == [a, b]


def test_select_conflicting_keeps_heavier():
    a = AllianceCandidate(0, frozenset({1, 2}), frozenset({0, 1}), frozenset(range(6)))
    b = AllianceCandidate(1, frozenset({1, 2, 3}), frozenset({0, 1}), frozenset(range(6)))
    out = select_alliances([a, b], conflicts_from_pairs([0, 1], {(0, 1)}))
    assert out == [b]


def test_select_rejects_a_uid_missing_from_the_conflicts():
    a = AllianceCandidate(0, frozenset({1, 2}), frozenset({0, 1}), frozenset(range(6)))
    b = AllianceCandidate(5, frozenset({1, 2, 3}), frozenset({0, 1}), frozenset(range(6)))
    # below, inside and above the relation's uids, and with an empty relation
    for uids in ([1, 5], [0, 3, 7], [0, 1], []):
        missing = min({0, 5} - set(uids))
        with pytest.raises(ValueError, match=f"candidate uid {missing} is not in the conflict"):
            select_alliances([a, b], conflicts_from_pairs(uids, set()))


def test_select_paper_instance_matches_brute_force():
    consumers, owners, history = paper_market()
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    accepted, conflicts = offer_and_collect(cands, consumers)  # default policy
    selected = select_alliances(accepted, conflicts)
    assert sum(candidate_value(c) for c in selected) == _brute_force_select(accepted, conflicts)
    assert [sorted(c.participants) for c in selected] == [[0, 1, 2]]


def test_select_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    gaps = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        cands = [
            AllianceCandidate(
                u,
                frozenset(rng.choice(10, size=int(rng.integers(2, 5)), replace=False).tolist()),
                frozenset(rng.choice(10, size=int(rng.integers(2, 5)), replace=False).tolist()),
                frozenset(rng.choice(20, size=int(rng.integers(2, 8)), replace=False).tolist()),
            )
            for u in range(n)
        ]
        conflicts = set()
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    conflicts.add((a, b))
        got = select_alliances(cands, conflicts_from_pairs(range(n), conflicts))
        assert sum(candidate_value(c) for c in got) == _brute_force_select(cands, conflicts)
        # The same instance under uids with gaps, plus pairs naming uids that
        # no candidate has (in a gap, below the smallest, above the largest).
        uids = sorted(int(u) for u in gaps.choice(np.arange(5, 10 * n + 5), n, replace=False))
        gapped = [replace(c, uid=uids[c.uid]) for c in cands]
        strays = [int(s) for s in gaps.integers(0, uids[-1] + 6, 6) if s not in uids]
        gapped_conflicts = {(uids[a], uids[b]) for a, b in conflicts}
        gapped_conflicts |= {(s, uids[int(gaps.integers(n))]) for s in strays}
        gapped_conflicts |= {(uids[int(gaps.integers(n))], s) for s in strays}
        got = select_alliances(gapped, conflicts_from_pairs(uids, gapped_conflicts))
        plain = select_alliances(cands, conflicts_from_pairs(range(n), conflicts))
        assert [c.uid for c in got] == [uids[c.uid] for c in plain]
        assert sum(candidate_value(c) for c in got) == _brute_force_select(gapped, gapped_conflicts)


def test_group_market_selection_golden():
    # Nine consumers sharing one block: all 502 subsets are candidates, every
    # partition of the consumers into coalitions has the same value 36, and
    # the lexicographic tie rule picks {0,1}, {2,3}, {4,5}, {6,7,8}.
    consumers, owners, history = group_market(9, [7, 9])
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    assert len(cands) == 502
    accepted, conflicts = offer_and_collect(cands, consumers)
    assert len(accepted) == 502
    assert len(conflicts) == 118_680
    selected = select_alliances(accepted, conflicts)
    assert [c.uid for c in selected] == [0, 15, 26, 119]
    assert [sorted(c.participants) for c in selected] == [[0, 1], [2, 3], [4, 5], [6, 7, 8]]
    assert sum(candidate_value(c) for c in selected) == 36


def test_group_market_selection_golden_ten_consumers():
    # 1,013 candidates, so the solver's integer keys are about 1,000 bits long.
    consumers, owners, history = group_market(10, [7, 10])
    cands = enumerate_candidates(consumers, owners, history, 2, 2)
    assert len(cands) == 1013
    accepted, conflicts = offer_and_collect(cands, consumers)
    assert len(accepted) == 1013
    assert len(conflicts) == 489_142
    selected = select_alliances(accepted, conflicts)
    assert [c.uid for c in selected] == [0, 17, 30, 39, 44]
    assert [sorted(c.participants) for c in selected] == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
    assert sum(candidate_value(c) for c in selected) == 60


def test_select_empty_input():
    assert select_alliances([], conflicts_from_pairs([], set())) == []


# ---------------------------------------------------------------- instantiation

def test_instantiate_budget_sum():
    consumers, owners, history = paper_market(budget=50.0)
    cand = AllianceCandidate(0, frozenset({0, 1, 2}), SHARED, frozenset(range(6)))
    out = instantiate([cand], consumers, 10.0, [8], np.random.default_rng(0), id_start=3)
    assert len(out) == 1
    a = out[0]
    assert a.budget == 30.0
    assert all(p == 10.0 for p in a.payments.values())
    assert a.id == 3
    for c in consumers:
        assert c.budget == 40.0
    # A negative share is refused before any participant is charged.
    with pytest.raises(ValueError, match="budget_share"):
        instantiate([cand], consumers, -1.0, [8], np.random.default_rng(0), id_start=4)
    assert [c.budget for c in consumers] == [40.0, 40.0, 40.0]


def test_instantiate_effective_budget_identity():
    consumers, owners, history = paper_market(budget=50.0)
    cand = AllianceCandidate(0, frozenset({0, 1, 2}), SHARED, frozenset(range(6)))
    (a,) = instantiate([cand], consumers, 10.0, [8], np.random.default_rng(0), id_start=3)
    for pid in cand.participants:
        others = sum(a.payments[q] for q in cand.participants if q != pid)
        assert a.effective_budgets[pid] - 50.0 == pytest.approx(others)


def test_instantiate_union_labels_and_validation_filter():
    base = gen_blobs(K, 4, 80, 0.5, 2)
    l1, l2 = frozenset({0, 1, 2, 3}), frozenset({2, 3, 4, 5})
    consumers = [
        DataConsumer(0, l1, init_mlp(4, [6], K, l1, np.random.default_rng(0)), _shard(base, l1)),
        DataConsumer(1, l2, init_mlp(4, [6], K, l2, np.random.default_rng(1)), _shard(base, l2)),
    ]
    cand = AllianceCandidate(0, frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 1}))
    (a,) = instantiate([cand], consumers, 0.0, [8], np.random.default_rng(2), id_start=2)
    assert a.id == 2
    assert a.budget == 0.0
    assert a.model.active_labels == frozenset(range(6))
    assert a.candidate.shared_labels == frozenset({2, 3})
    # an alliance is no consumer and is never evaluated, so it holds no validation data
    assert not hasattr(a, "validation_shard")


def test_instantiate_skips_unaffordable(caplog):
    consumers, owners, history = paper_market(budget=5.0)
    cand = AllianceCandidate(0, frozenset({0, 1, 2}), SHARED, frozenset(range(6)))
    with caplog.at_level(logging.WARNING):
        out = instantiate([cand], consumers, 10.0, [8], np.random.default_rng(0), id_start=3)
    assert out == []
    assert any("skipped" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------- full pipeline

def test_create_alliances_end_to_end_and_dedup():
    consumers, owners, history = paper_market()
    created, next_uid = create_alliances(
        consumers, owners, history, 2, 2, 0.0, [8],
        np.random.default_rng(0), existing=set(), uid_start=0, id_start=3,
    )
    assert len(created) == 1
    assert sorted(created[0].candidate.participants) == [0, 1, 2]
    assert next_uid == 4

    again, next_uid2 = create_alliances(
        consumers, owners, history, 2, 2, 0.0, [8],
        np.random.default_rng(1),
        existing={created[0].candidate.key()},
        uid_start=next_uid, id_start=4,
    )
    # the triple is deduplicated; the remaining pairs all conflict, best is one pair
    assert all(a.candidate.key() != created[0].candidate.key() for a in again)
