import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmarket.data import gen_blobs
from fedmarket.market import (
    BID,
    BiddingHistory,
    DataConsumer,
    DataOwner,
    default_bids,
    match_first_price,
    match_random_partition,
    max_bid_matrix,
    record_bids,
)
from fedmarket.nn import init_mlp

from oracles import match_first_price_loop


# ---------------------------------------------------------------- history

def test_record_bids_ring_arithmetic():
    h = BiddingHistory(3, 1, 1)
    for r in range(4):
        record_bids(h, r, np.array([[float(r)]]))
    assert h.window[0, 0, 0] == 3.0  # round 3 overwrote round 0
    assert h.window[1, 0, 0] == 1.0
    assert h.window[2, 0, 0] == 2.0


def test_record_zero_matrix_keeps_value():
    h = BiddingHistory(2, 2, 3)
    before = h.window.copy()
    record_bids(h, 0, np.zeros((2, 3)))
    assert np.array_equal(h.window, before)


def test_record_negative_entry_rejected():
    h = BiddingHistory(2, 1, 2)
    with pytest.raises(ValueError):
        record_bids(h, 0, np.array([[1.0, -0.5]]))


def test_record_shape_mismatch_rejected():
    h = BiddingHistory(2, 2, 2)
    with pytest.raises(ValueError):
        record_bids(h, 0, np.ones((3, 2)))


def test_max_bid_matrix_elementwise():
    h = BiddingHistory(2, 1, 2)
    record_bids(h, 0, np.array([[1.0, 0.0]]))
    record_bids(h, 1, np.array([[0.0, 2.0]]))
    assert np.array_equal(max_bid_matrix(h), [[1.0, 2.0]])


def test_max_bid_matrix_all_zero():
    h = BiddingHistory(3, 2, 2)
    assert np.array_equal(max_bid_matrix(h), np.zeros((2, 2)))


def test_max_bid_matrix_k1_identity():
    h = BiddingHistory(1, 1, 2)
    record_bids(h, 5, np.array([[0.5, 4.0]]))
    assert np.array_equal(max_bid_matrix(h), [[0.5, 4.0]])


def test_max_bid_dominates_each_round():
    rng = np.random.default_rng(0)
    h = BiddingHistory(4, 3, 5)
    for r in range(4):
        record_bids(h, r, rng.uniform(0, 2, size=(3, 5)))
    mx = max_bid_matrix(h)
    for r in range(4):
        assert (mx >= h.window[r]).all()
    hit = np.zeros((3, 5), dtype=bool)
    for r in range(4):
        hit |= h.window[r] == mx
    assert hit.all()


# ---------------------------------------------------------------- random partition

def test_random_partition_counts():
    m = match_random_partition(np.full((3, 6), BID), seed=[1])
    counts = {c: 0 for c in (0, 1, 2)}
    for owner, consumer in m.items():
        counts[consumer] += 1
    assert counts == {0: 2, 1: 2, 2: 2}
    assert set(m) == {0, 1, 2, 3, 4, 5}


def test_random_partition_deterministic():
    a = match_random_partition(np.full((2, 4), BID), seed=[9])
    b = match_random_partition(np.full((2, 4), BID), seed=[9])
    assert a == b


def test_random_partition_varies_with_seed():
    results = {
        tuple(sorted(match_random_partition(np.full((2, 4), BID), seed=[s]).items()))
        for s in range(10)
    }
    assert len(results) > 1


def test_random_partition_deals_indivisible():
    # Three owners over two bidders: one gets two, the other one, and which
    # bidder takes the odd owner is drawn from the seed.
    bids = np.full((2, 3), BID)
    takers = set()
    for s in range(10):
        m = match_random_partition(bids, seed=[s])
        assert set(m) == {0, 1, 2}
        counts = [sum(c == cid for c in m.values()) for cid in (0, 1)]
        assert sorted(counts) == [1, 2]
        takers.add(counts.index(2))
    assert takers == {0, 1}


@settings(max_examples=100, deadline=None)
@given(
    n_consumers=st.integers(1, 5),
    n_owners=st.integers(0, 23),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_partition_counts_property(n_consumers, n_owners, seed):
    # Owner counts that are no multiple of the consumer count deal the
    # remainder one owner each to distinct consumers.
    bids = np.full((n_consumers, n_owners), BID)
    m = match_random_partition(bids, [seed])
    assert set(m) == set(range(n_owners))
    floor, ceil = n_owners // n_consumers, -(-n_owners // n_consumers)
    for cid in range(n_consumers):
        assert floor <= sum(c == cid for c in m.values()) <= ceil
    assert match_random_partition(bids, [seed]) == m


def test_random_partition_each_owner_once():
    m = match_random_partition(np.full((4, 12), BID), seed=[5])
    assert sorted(m) == list(range(12))


def test_random_partition_splits_each_bidder_set_in_its_own_stream():
    # Owners 0-3 are wanted by consumers {0, 1}, owners 4-9 by {1, 2}, owner
    # 10 by consumer 2 alone, owner 11 by nobody.
    bids = np.zeros((3, 12))
    bids[[0, 1], 0:4] = BID
    bids[[1, 2], 4:10] = BID
    bids[2, 10] = BID
    m = match_random_partition(bids, seed=[7, 3])
    expected = {10: 2}
    for g, (rows, owners) in enumerate([((0, 1), range(0, 4)), ((1, 2), range(4, 10))]):
        order = np.array(owners)
        np.random.default_rng([7, 3, g]).shuffle(order)
        per_row = len(order) // len(rows)
        for i, row in enumerate(rows):
            expected.update({int(o): row for o in order[i * per_row : (i + 1) * per_row]})
    assert m == expected
    assert 11 not in m


# ---------------------------------------------------------------- first price

def test_first_price_argmax():
    m = match_first_price(np.array([[3.0], [5.0]]), {0: 10.0, 1: 10.0})
    assert m == {0: 1}


def test_first_price_tie_goes_to_lowest_index():
    m = match_first_price(np.array([[4.0], [4.0]]), {0: 10.0, 1: 10.0})
    assert m == {0: 0}


def test_first_price_budget_gates_winner():
    m = match_first_price(np.array([[3.0], [5.0]]), {0: 3.0, 1: 4.0})
    assert m == {0: 0}


def test_first_price_unaffordable_owner_unmatched():
    m = match_first_price(np.array([[2.0], [0.0]]), {0: 1.0, 1: 0.0})
    assert m == {}


def test_first_price_budget_depletes_within_call():
    bids = np.array([[2.0, 2.0]])
    m = match_first_price(bids, {0: 3.0})
    assert m == {0: 0}  # second owner unaffordable after paying for the first


_bid_values = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_price_market_properties(data):
    # Bids and budgets are multiples of 0.5, so every sum below is exact.
    n_c = data.draw(st.integers(1, 5))
    n_o = data.draw(st.integers(0, 8))
    rows = st.lists(_bid_values, min_size=n_o, max_size=n_o)
    bids = np.array(data.draw(st.lists(rows, min_size=n_c, max_size=n_c))).reshape(n_c, n_o)
    budgets = data.draw(
        st.dictionaries(st.integers(0, n_c - 1), st.integers(0, 12).map(lambda h: h / 2))
    )
    m = match_first_price(bids, budgets)
    assert m == match_first_price_loop(bids, budgets)
    assert set(m) <= set(range(n_o))
    # Replay the owners in column order, each winner paying its bid.
    remaining = {c: budgets.get(c, 0.0) for c in range(n_c)}
    for o in range(n_o):
        covered = [c for c in range(n_c) if 0 < bids[c, o] <= remaining[c]]
        if o not in m:
            assert not covered  # nobody could afford it
            continue
        w = m[o]
        assert bids[w, o] > 0
        assert w in covered
        assert all(bids[w, o] >= bids[c, o] for c in covered)
        remaining[w] -= bids[w, o]
    for c in range(n_c):
        spent = sum(bids[c, o] for o, w in m.items() if w == c)
        assert spent <= budgets.get(c, 0.0)


# ---------------------------------------------------------------- entities / bids

def _consumer(i, labels, seed=0):
    ds = gen_blobs(4, 4, 5, 0.5, seed)
    keep = np.isin(ds.labels, sorted(labels))
    shard = type(ds)(ds.features[keep], ds.labels[keep], 4)
    model = init_mlp(4, [4], 4, labels, np.random.default_rng(seed))
    return DataConsumer(i, frozenset(labels), model, shard)


def test_owner_validates_labels():
    ds = gen_blobs(4, 4, 5, 0.5, 0)
    with pytest.raises(ValueError):
        DataOwner(0, ds, frozenset({0}))


def test_consumer_validates_validation_labels():
    ds = gen_blobs(4, 4, 5, 0.5, 0)
    model = init_mlp(4, [4], 4, {0, 1}, np.random.default_rng(0))
    with pytest.raises(ValueError):
        DataConsumer(0, frozenset({0, 1}), model, ds)


def test_default_bids_interest_structure():
    owners = []
    base = gen_blobs(4, 4, 20, 0.5, 3)
    for j, labels in enumerate([{0, 1}, {2, 3}]):
        keep = np.isin(base.labels, sorted(labels))
        shard = type(base)(base.features[keep], base.labels[keep], 4)
        owners.append(DataOwner(j, shard, frozenset(labels)))
    consumers = [_consumer(0, {0, 1}), _consumer(1, {1, 2})]
    bids = default_bids(consumers, owners)
    assert np.array_equal(bids, [[1.0, 0.0], [1.0, 1.0]])
