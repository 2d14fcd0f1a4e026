"""Market entities, bid recording, and owner-to-consumer matching mechanisms."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import LabeledDataset
from .nn import Mlp

# Every consumer bids this much for each owner it wants, under both mechanisms.
BID = 1.0


@dataclass
class DataOwner:
    """A device holding one labeled training shard; recruitable by one consumer per round."""

    id: int
    train_shard: LabeledDataset
    label_set: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.train_shard) == 0:
            raise ValueError(f"owner {self.id}: empty training shard")
        held = set(np.unique(self.train_shard.labels).tolist())
        if not held <= set(self.label_set):
            raise ValueError(f"owner {self.id}: shard labels {sorted(held)} outside label set")


@dataclass
class DataConsumer:
    """A party training a model for its label set, with a validation shard and budget."""

    id: int
    label_set: frozenset[int]
    model: Mlp
    validation_shard: LabeledDataset
    budget: float = 0.0

    def __post_init__(self) -> None:
        if not self.label_set:
            raise ValueError(f"consumer {self.id}: empty label set")
        if self.budget < 0:
            raise ValueError(f"consumer {self.id}: negative budget")
        held = set(np.unique(self.validation_shard.labels).tolist())
        if not held <= set(self.label_set):
            raise ValueError(
                f"consumer {self.id}: validation labels {sorted(held)} outside label set"
            )


class BiddingHistory:
    """Ring buffer of the last k rounds of the (m consumers x n owners) bid matrix.

    Slots are zero until written, so the stored span is always exactly k.
    Only consumers' rows belong here, never an alliance's.
    """

    def __init__(self, k: int, n_consumers: int, n_owners: int) -> None:
        if k < 1:
            raise ValueError("history span must be >= 1")
        self.window = np.zeros((k, n_consumers, n_owners))


def record_bids(history: BiddingHistory, round_index: int, bids: np.ndarray) -> BiddingHistory:
    """Store ``bids`` in slot ``round_index`` mod the span; other slots untouched."""
    b = np.asarray(bids, dtype=float)
    if b.shape != history.window.shape[1:]:
        raise ValueError(
            f"bid matrix shape {b.shape} does not match history shape {history.window.shape[1:]}"
        )
    if (b < 0).any():
        raise ValueError("bid matrix contains negative entries")
    history.window[round_index % len(history.window)] = b
    return history


def max_bid_matrix(history: BiddingHistory) -> np.ndarray:
    """Elementwise maximum bid over the stored rounds."""
    return history.window.max(axis=0)


def default_bids(consumers: Sequence[DataConsumer], owners: Sequence[DataOwner]) -> np.ndarray:
    """Default bidding behavior: ``BID`` on every owner with overlapping labels."""
    bids = np.zeros((len(consumers), len(owners)))
    for i, c in enumerate(consumers):
        for j, o in enumerate(owners):
            if c.label_set & o.label_set:
                bids[i, j] = BID
    return bids


def match_random_partition(bids: np.ndarray, seed: Sequence[int]) -> dict[int, int]:
    """Owner id -> consumer id, splitting shared owners evenly over their bidders at random.

    Rows of ``bids`` are consumers and columns owners; a positive entry is a
    bid. An owner with one bidder goes to it; one nobody bids on stays
    unmatched. Owners with the same set of bidders form a group, and groups
    in sorted bidder order get indices 0, 1, ...; group ``g`` is shuffled
    with seed ``[*seed, g]`` and dealt to its bidders in equal slices, in row
    order. The remainder at the tail of the shuffled order goes one owner
    each to distinct bidders drawn from the same generator, so every bidder
    gets the floor or the ceiling of an even share. Deterministic per seed.
    """
    b = np.asarray(bids)
    assignment: dict[int, int] = {}
    groups: dict[tuple[int, ...], list[int]] = {}
    for o in range(b.shape[1]):
        rows = tuple(int(i) for i in np.flatnonzero(b[:, o] > 0))
        if len(rows) == 1:
            assignment[o] = rows[0]
        elif rows:
            groups.setdefault(rows, []).append(o)
    for g, (rows, owners) in enumerate(sorted(groups.items())):
        per_row = len(owners) // len(rows)
        order = np.array(owners, dtype=np.int64)
        rng = np.random.default_rng([*seed, g])
        rng.shuffle(order)
        for i, row in enumerate(rows):
            for o in order[i * per_row : (i + 1) * per_row]:
                assignment[int(o)] = row
        extra = rng.choice(len(rows), len(owners) % len(rows), replace=False)
        for o, i in zip(order[per_row * len(rows) :], extra):
            assignment[int(o)] = rows[i]
    return assignment


def match_first_price(bids: np.ndarray, budgets: Mapping[int, float]) -> dict[int, int]:
    """First-price greedy owner id -> consumer id: each owner to its highest affordable bidder.

    Owners go in column order. Ties go to the lowest consumer index (the
    first maximum of the masked column); winners pay their bid out of the
    remaining budget, 0 for a row missing from ``budgets``. Owners nobody
    bids on (affordably) stay unmatched.
    """
    b = np.asarray(bids, dtype=float)
    remaining = np.array([budgets.get(cid, 0.0) for cid in range(b.shape[0])], dtype=float)
    assignment: dict[int, int] = {}
    for o in range(b.shape[1]):
        col = np.where((b[:, o] > 0) & (b[:, o] <= remaining), b[:, o], 0.0)
        cid = int(np.argmax(col))
        if col[cid] > 0:
            assignment[o] = cid
            remaining[cid] -= col[cid]
    return assignment
