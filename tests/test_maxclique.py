import numpy as np
import pytest

from fedmarket.maxclique import WeightedGraph, is_clique, read_dimacs, solve, write_dimacs
from oracles import brute_force


def graph(weights, edges):
    n = len(weights)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return WeightedGraph(list(weights), adj)


def random_graph(rng, n, density, max_weight=100):
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u, v] = adj[v, u] = True
    weights = [int(w) for w in rng.integers(1, max_weight + 1, size=n)]
    return WeightedGraph(weights, adj)


def test_empty_graph():
    g = WeightedGraph([], np.zeros((0, 0), dtype=bool))
    assert solve(g) == (set(), 0)
    assert brute_force(g) == (set(), 0)


def test_complete_graph_takes_everything():
    g = graph([3, 5, 2], [(0, 1), (0, 2), (1, 2)])
    clique, weight = solve(g)
    assert clique == {0, 1, 2}
    assert weight == 10


def test_path_graph_resolved_by_oracle():
    g = graph([4, 1, 1, 1, 4], [(0, 1), (1, 2), (2, 3), (3, 4)])
    expected = brute_force(g)
    assert expected[1] == 5
    assert solve(g) == expected
    assert solve(g)[0] == {0, 1}  # lexicographic tie rule: {0,1} beats {3,4}


def test_single_node():
    g = graph([7], [])
    assert brute_force(g) == ({0}, 7)
    assert solve(g) == ({0}, 7)


def test_isolated_heavy_node_beats_triangle():
    g = graph([10, 10, 10, 100], [(0, 1), (0, 2), (1, 2)])
    assert solve(g) == ({3}, 100)
    assert brute_force(g) == ({3}, 100)


def test_monotonic_under_new_heavy_isolated_node():
    rng = np.random.default_rng(4)
    g = random_graph(rng, 8, 0.5)
    _, w = solve(g)
    n = g.n
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    adj[:n, :n] = g.adj
    g2 = WeightedGraph(g.weights + [w + 1], adj)
    assert solve(g2) == ({n}, w + 1)


def test_tie_breaks_lexicographically():
    # two disjoint edges with equal total weight
    g = graph([2, 3, 3, 2], [(0, 1), (2, 3)])
    clique, weight = solve(g)
    assert weight == 5
    assert clique == {0, 1}
    assert brute_force(g) == ({0, 1}, 5)


def test_brute_force_guard():
    g = WeightedGraph([1] * 26, np.zeros((26, 26), dtype=bool))
    with pytest.raises(ValueError):
        brute_force(g)


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(123)
    for trial in range(60):
        n = int(rng.integers(3, 13))
        density = [0.2, 0.5, 0.8][trial % 3]
        g = random_graph(rng, n, density)
        got_set, got_w = solve(g)
        exp_set, exp_w = brute_force(g)
        assert got_w == exp_w
        assert got_set == exp_set
        assert is_clique(g, got_set)


def test_oracle_equivalence_tie_heavy_graphs():
    # Weights in 1..3 make many maximum cliques of equal weight, so the
    # lexicographic tie rule decides most of these instances.
    rng = np.random.default_rng(321)
    for trial in range(150):
        n = int(rng.integers(1, 14))
        density = [0.2, 0.5, 0.8][trial % 3]
        g = random_graph(rng, n, density, max_weight=3)
        assert solve(g) == brute_force(g)


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedGraph([1, 1], np.array([[False, True], [False, False]]))
    with pytest.raises(ValueError):
        WeightedGraph([1, 0], np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError):
        WeightedGraph([1.5, 1], np.zeros((2, 2), dtype=bool))
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 0] = True
    with pytest.raises(ValueError):
        WeightedGraph([1, 1], adj)


def test_dimacs_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    g = random_graph(rng, 9, 0.5)
    path = tmp_path / "graph.dimacs"
    write_dimacs(g, path)
    g2 = read_dimacs(path)
    assert g2.weights == g.weights
    assert np.array_equal(g2.adj, g.adj)
    assert solve(g2) == solve(g)


def test_dimacs_default_weight_is_one(tmp_path):
    path = tmp_path / "g.dimacs"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    g = read_dimacs(path)
    assert g.weights == [1, 1, 1]


def test_dimacs_malformed_rejected(tmp_path):
    path = tmp_path / "bad.dimacs"
    for text, message in [
        ("p vertex 3 2\n", "line 1: malformed problem line"),
        ("e 1 2\n", "missing 'p edge' line"),
        ("p edge -1 0\n", "line 1: negative node count -1"),
        ("p edge 2 1\nn 2\n", "line 2: expected two integers, got 'n 2'"),
        ("p edge 2 1\ne 1\n", "line 2: expected two integers, got 'e 1'"),
        ("p edge 2 1\nn 1 x\n", "line 2: expected two integers"),
        ("p edge 2 1\ne 1 2.0\n", "line 2: expected two integers"),
        ("p edge 2 1\ne 1 2 3\n", "line 2: expected two integers"),
        ("p edge two 1\n", "line 1: expected two integers"),
        ("p edge 2 0\nn 9 50\n", r"line 2: node id outside 1\.\.2"),
        ("p edge 2 0\nn 0 50\n", r"line 2: node id outside 1\.\.2"),
        ("p edge 2 1\nc edge below\ne 1 3\n", r"line 3: node id outside 1\.\.2"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_dimacs(path)


def test_solver_deterministic():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 10, 0.5)
    assert solve(g) == solve(g)
