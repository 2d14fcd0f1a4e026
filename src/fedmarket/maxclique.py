"""Exact maximum-weight-clique solver and a reader for its DIMACS-like file format.

The solver is branch-and-bound with a greedy weighted-coloring upper bound,
coloured once per node. Ties between maximum cliques resolve to the
lexicographically smallest sorted node set. That rule is part of each node's
integer key, so the search maximises one exact integer and prunes every
branch whose bound does not beat the best clique found so far.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class WeightedGraph:
    """Undirected graph with positive integer node weights and no self-loops."""

    weights: list[int]
    adj: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.weights)
        self.adj = np.asarray(self.adj, dtype=bool)
        if self.adj.shape != (n, n):
            raise ValueError(f"adjacency shape {self.adj.shape} does not match {n} nodes")
        if not (self.adj == self.adj.T).all():
            raise ValueError("adjacency must be symmetric")
        if self.adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if any((not isinstance(w, (int, np.integer))) or w < 1 for w in self.weights):
            raise ValueError("node weights must be integers >= 1")
        self.weights = [int(w) for w in self.weights]

    @property
    def n(self) -> int:
        return len(self.weights)


def solve(g: WeightedGraph) -> tuple[set[int], int]:
    """Maximum-weight clique and its total weight, found exactly.

    Node v gets the key ``w_v * 2**n + 2**(n - 1 - v)`` and the search
    maximises a clique's key sum, whose high part (``>> n``) is the clique's
    weight and whose low ``n`` bits are its node set, node 0 highest. So no
    two cliques share a key, and since weights are at least 1, equal-weight
    maximum cliques are never nested: the largest key is the heaviest clique
    whose sorted node set is lexicographically smallest.

    Branch-and-bound over vertices ordered by descending key. Each
    candidate set is coloured greedily once, into independent classes; any
    clique takes at most the first vertex of each class, so the class
    heads' keys bound it. Branching then goes in key order, and each
    branched vertex is the first left in its class, so removing it swaps
    its key in the bound for that of the next member of its class. A branch
    is searched only if its bound beats the incumbent.
    """
    n = g.n
    if n == 0:
        return set(), 0
    order = sorted(range(n), key=lambda v: (-g.weights[v], v))
    key = [(g.weights[v] << n) + (1 << (n - 1 - v)) for v in order]
    # neighbor masks in the reordered index space, bit i for vertex order[i]
    rows = np.packbits(g.adj[np.ix_(order, order)], axis=1, bitorder="little")
    nbr = [int.from_bytes(row.tobytes(), "little") for row in rows]
    non_nbr = [~(m | 1 << v) for v, m in enumerate(nbr)]

    best_key, best = 0, []

    def expand(clique: list[int], clique_key: int, candidates: int) -> None:
        nonlocal best_key, best
        if clique_key > best_key:
            best_key, best = clique_key, clique
        if not candidates:
            return
        # Greedy colouring, one class at a time in index (= key) order.
        bound = 0
        next_key: dict[int, int] = {}
        uncoloured = candidates
        while uncoloured:
            low = uncoloured & -uncoloured
            prev = low.bit_length() - 1
            bound += key[prev]  # first member of a class is its largest
            uncoloured ^= low
            free = uncoloured & non_nbr[prev]
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= non_nbr[v]
                uncoloured ^= low
                next_key[prev] = key[v]
                prev = v
        m = candidates
        while m:
            if clique_key + bound <= best_key:
                return
            low = m & -m
            v = low.bit_length() - 1
            expand(clique + [v], clique_key + key[v], m & nbr[v])
            bound += next_key.get(v, 0) - key[v]
            m ^= low

    expand([], 0, (1 << n) - 1)
    return {order[v] for v in best}, best_key >> n


def is_clique(g: WeightedGraph, nodes: set[int]) -> bool:
    """Independent pairwise-adjacency check, used to verify solver output."""
    members = sorted(nodes)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not g.adj[u, v]:
                return False
    return True


def read_dimacs(path: str | Path) -> WeightedGraph:
    """Parse DIMACS-like text: ``p edge n m``, ``n <id> <weight>``, ``e <u> <v>``.

    Ids are 1-based and missing weights default to 1.

    A record without exactly two integer fields, a second problem line, a
    negative node count, a node id outside ``1..n``, a self-loop or a node
    weight below 1 is rejected with an error naming its line, and so is a
    problem line whose ``m`` is not the number of ``e`` records. An ``n``
    record that repeats a node, or an ``e`` record that repeats an edge in
    either orientation, is rejected naming its line and the earlier one, so
    ``m`` also counts the distinct edges.
    """
    n: int | None = None
    records: list[tuple[int, str, int, int]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        kind = parts[0]
        if kind not in ("p", "n", "e"):
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if kind == "p" and (len(parts) != 4 or parts[1] != "edge"):
            raise ValueError(f"line {lineno}: malformed problem line {line!r}")
        try:
            a, b = (int(f) for f in parts[2 if kind == "p" else 1 :])
        except ValueError:  # a field missing, one too many, or not an integer
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
        if kind == "p":
            if n is not None:
                raise ValueError(f"line {lineno}: second problem line {line!r}")
            if a < 0:
                raise ValueError(f"line {lineno}: negative node count {a}")
            n, m, p_lineno = a, b, lineno
        else:
            records.append((lineno, kind, a, b))
    if n is None:
        raise ValueError(f"{path}: missing 'p edge' line")
    weights = [1] * n
    adj = np.zeros((n, n), dtype=bool)
    first_lines: dict[tuple[int, ...], int] = {}  # (node,) or (low, high) -> its first line
    for lineno, kind, a, b in records:
        if not 1 <= a <= n or (kind == "e" and not 1 <= b <= n):
            raise ValueError(f"line {lineno}: node id outside 1..{n}")
        if kind == "e" and a == b:
            raise ValueError(f"line {lineno}: self-loop on node {a}")
        if kind == "n" and b < 1:
            raise ValueError(f"line {lineno}: node weight {b} below 1")
        key = (a,) if kind == "n" else (min(a, b), max(a, b))
        if (first := first_lines.setdefault(key, lineno)) != lineno:
            name = f"node {a}" if kind == "n" else f"edge {a} {b}"
            raise ValueError(f"line {lineno}: {name} repeats line {first}")
        if kind == "n":
            weights[a - 1] = b
        else:
            adj[a - 1, b - 1] = adj[b - 1, a - 1] = True
    if (edges := sum(len(key) == 2 for key in first_lines)) != m:
        raise ValueError(f"line {p_lineno}: problem line declares {m} edges, the file has {edges}")
    return WeightedGraph(weights, adj)
