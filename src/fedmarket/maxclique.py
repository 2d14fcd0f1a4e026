"""Exact maximum-weight-clique solver and its DIMACS-like file format.

The solver is branch-and-bound with a greedy weighted-coloring upper bound,
coloured once per node; weights are positive integers so all comparisons are
exact. Ties between maximum cliques resolve to the lexicographically smallest
sorted node set.
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

    Branch-and-bound over vertices ordered by descending weight. Each
    candidate set is coloured greedily once, into independent classes; any
    clique takes at most the heaviest vertex of each class, so the class
    heads' weights bound it. Branching then goes heaviest-first, and each
    branched vertex is the heaviest left in its class, so removing it swaps
    its weight in the bound for that of the next member of its class.
    Pruning is strict so equal-weight cliques survive for the lexicographic
    tie rule.
    """
    if g.n == 0:
        return set(), 0
    order = sorted(range(g.n), key=lambda v: (-g.weights[v], v))
    w = [g.weights[v] for v in order]
    # neighbor masks in the reordered index space, bit i for vertex order[i]
    rows = np.packbits(g.adj[np.ix_(order, order)], axis=1, bitorder="little")
    nbr = [int.from_bytes(row.tobytes(), "little") for row in rows]

    best_w = 0
    best_key: tuple[int, ...] = ()

    def expand(clique: list[int], clique_w: int, candidates: int) -> None:
        nonlocal best_w, best_key
        if clique_w >= best_w:
            key = tuple(sorted(order[v] for v in clique))
            if clique_w > best_w or key < best_key:
                best_w, best_key = clique_w, key
        if not candidates:
            return
        # Greedy colouring, one class at a time in index (= weight) order.
        bound = 0
        next_w: dict[int, int] = {}
        uncoloured = candidates
        while uncoloured:
            low = uncoloured & -uncoloured
            prev = low.bit_length() - 1
            bound += w[prev]  # first member of a class is its heaviest
            uncoloured ^= low
            free = uncoloured & ~nbr[prev]
            while free:
                low = free & -free
                v = low.bit_length() - 1
                free &= ~(nbr[v] | low)
                uncoloured ^= low
                next_w[prev] = w[v]
                prev = v
        m = candidates
        while m:
            if clique_w + bound < best_w:
                return
            low = m & -m
            v = low.bit_length() - 1
            expand(clique + [v], clique_w + w[v], m & nbr[v])
            bound += next_w.get(v, 0) - w[v]
            m ^= low

    expand([], 0, (1 << g.n) - 1)
    return set(best_key), best_w


def is_clique(g: WeightedGraph, nodes: set[int]) -> bool:
    """Independent pairwise-adjacency check, used to verify solver output."""
    members = sorted(nodes)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not g.adj[u, v]:
                return False
    return True


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


def read_dimacs(path: str | Path) -> WeightedGraph:
    """Parse the format written by :func:`write_dimacs`; missing weights default to 1.

    A record without exactly two integer fields, a negative node count, a
    node id outside ``1..n``, a self-loop or a node weight below 1 is
    rejected with an error naming its line.
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
            if a < 0:
                raise ValueError(f"line {lineno}: negative node count {a}")
            n = a
        else:
            records.append((lineno, kind, a, b))
    if n is None:
        raise ValueError(f"{path}: missing 'p edge' line")
    weights = [1] * n
    adj = np.zeros((n, n), dtype=bool)
    for lineno, kind, a, b in records:
        if not 1 <= a <= n or (kind == "e" and not 1 <= b <= n):
            raise ValueError(f"line {lineno}: node id outside 1..{n}")
        if kind == "e" and a == b:
            raise ValueError(f"line {lineno}: self-loop on node {a}")
        if kind == "n" and b < 1:
            raise ValueError(f"line {lineno}: node weight {b} below 1")
        if kind == "n":
            weights[a - 1] = b
        else:
            adj[a - 1, b - 1] = adj[b - 1, a - 1] = True
    return WeightedGraph(weights, adj)
