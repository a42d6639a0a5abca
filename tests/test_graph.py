import itertools
import math

import numpy as np
import pytest

from bootperc.graph import (
    ComponentSummary,
    ExplicitGraph,
    UnionFind,
    _unrank_pairs,
    count_neighbors_in,
    from_edges,
    largest_component,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)


def bfs_components(g: ExplicitGraph, subset=None):
    """Breadth-first-search oracle for component structure."""
    verts = list(range(1, g.n + 1)) if subset is None else sorted(subset)
    allowed = set(verts)
    seen = set()
    comps = []
    for start in verts:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            u = queue.pop()
            for v in g.adj[u]:
                if v in allowed and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


class TestUnrank:
    def test_bijection_small(self):
        for n in [2, 3, 5, 17, 40]:
            expected = list(itertools.combinations(range(1, n + 1), 2))
            us, vs = _unrank_pairs(np.arange(n * (n - 1) // 2, dtype=np.int64), n)
            assert list(zip(us.tolist(), vs.tolist())) == expected

    def test_large_indices(self):
        n = 10**6
        total = n * (n - 1) // 2
        us, vs = _unrank_pairs(np.array([total - 1, 0], dtype=np.int64), n)
        assert list(zip(us.tolist(), vs.tolist())) == [(n - 1, n), (1, 2)]


class TestSampling:
    def test_empty_graph(self):
        g = sample_gnp(10, 0.0, seed=1)
        assert g.edge_count == 0

    def test_complete_graph(self):
        g = sample_gnp(10, 1.0, seed=1)
        assert g.edge_count == 45
        assert g.adj[1] == list(range(2, 11))

    def test_structural_invariants(self):
        for seed in range(5):
            g = sample_gnp(400, 0.02, seed=seed)
            for u in range(1, g.n + 1):
                lst = g.adj[u]
                assert lst == sorted(lst)
                assert len(lst) == len(set(lst))
                assert u not in lst
                for v in lst:
                    assert u in g.adj[v]

    def test_determinism(self):
        g1 = sample_gnp(500, 0.01, seed=99)
        g2 = sample_gnp(500, 0.01, seed=99)
        assert g1.adj == g2.adj
        g3 = sample_gnp(500, 0.01, seed=100)
        assert g1.adj != g3.adj

    def test_edge_count_concentrates(self):
        n, p = 10_000, 1e-3
        mean = n * (n - 1) / 2 * p
        sd = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        g = sample_gnp(n, p, seed=12345)
        assert abs(g.edge_count - mean) < 4 * sd

    def test_from_edges_validation(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            from_edges(3, [(1, 4)])
        with pytest.raises(ValueError):
            from_edges(3, [(1, 2), (2, 1)])


class TestComponents:
    def test_empty_graph_singletons(self):
        g = from_edges(5, [])
        summary = largest_component(g)
        assert summary.largest_size == 1
        assert summary.component_count == 5

    def test_path_fixture(self):
        g = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        summary = largest_component(g, include_members=True)
        assert summary.largest_size == 5
        assert summary.largest_members == (1, 2, 3, 4, 5)
        assert summary.component_count == 1

    def test_two_components(self):
        g = from_edges(6, [(1, 2), (2, 3), (4, 5)])
        summary = largest_component(g, include_members=True)
        assert summary.largest_size == 3
        assert summary.largest_members == (1, 2, 3)
        assert summary.component_count == 3  # {1,2,3}, {4,5}, {6}

    def test_subset_restriction(self):
        g = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        summary = largest_component(g, subset=[1, 2, 4, 5])
        # removing 3 splits the path into {1,2} and {4,5}
        assert summary.largest_size == 2
        assert summary.component_count == 2

    def test_empty_subset(self):
        g = from_edges(4, [(1, 2)])
        summary = largest_component(g, subset=[])
        assert summary == ComponentSummary(0, 0, None)

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for case in range(100):
            n = int(rng.integers(10, 501))
            p = float(rng.choice([0.002, 0.01, 0.05]))
            g = sample_gnp(n, p, seed=int(rng.integers(0, 2**60)))
            comps = bfs_components(g)
            summary = largest_component(g, include_members=True)
            assert summary.component_count == len(comps)
            assert summary.largest_size == max(len(c) for c in comps)
            assert set(summary.largest_members) in [
                c for c in comps if len(c) == summary.largest_size
            ]

    def test_subset_matches_bfs(self):
        rng = np.random.default_rng(5)
        for case in range(20):
            n = int(rng.integers(20, 200))
            g = sample_gnp(n, 0.05, seed=int(rng.integers(0, 2**60)))
            subset = rng.choice(np.arange(1, n + 1), size=n // 2, replace=False).tolist()
            comps = bfs_components(g, subset)
            summary = largest_component(g, subset=subset)
            assert summary.component_count == len(comps)
            assert summary.largest_size == max(len(c) for c in comps)


class TestCountNeighbors:
    def test_empty_target(self):
        g = sample_gnp(50, 0.1, seed=0)
        counts = count_neighbors_in(g, [])
        assert counts.sum() == 0

    def test_complete_graph(self):
        g = sample_gnp(10, 1.0, seed=0)
        target = [1, 2, 3]
        counts = count_neighbors_in(g, target)
        for v in range(1, 11):
            assert counts[v] == (2 if v in target else 3)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(6)
        g = sample_gnp(120, 0.05, seed=77)
        target = set(rng.choice(np.arange(1, 121), size=30, replace=False).tolist())
        counts = count_neighbors_in(g, target)
        for v in range(1, 121):
            brute = sum(1 for w in g.adj[v] if w in target)
            assert counts[v] == brute


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = sample_gnp(60, 0.08, seed=21)
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        g2 = read_edge_list(path, 60)
        assert g2.adj == g.adj

    def test_format(self, tmp_path):
        g = from_edges(4, [(3, 4), (1, 2)])
        path = tmp_path / "edges.txt"
        write_edge_list(g, path)
        assert path.read_text() == "1 2\n3 4\n"


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)
        uf.union(1, 3)
        assert uf.find(0) == uf.find(4)
