import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from bootperc.graph import (
    ComponentSummary,
    ExplicitGraph,
    _sample_edge_indices,
    _unrank_pairs,
    count_neighbors_in,
    from_edges,
    largest_component,
    sample_gnp,
)
from bootperc.rng import make_generator


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
            for v in g.neighbors(u).tolist():
                if v in allowed and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def scipy_components(g: ExplicitGraph, verts: np.ndarray) -> tuple[int, int]:
    """scipy oracle: (component count, largest size) of the subgraph
    induced on the sorted vertices ``verts``."""
    adj = csr_matrix((np.ones(len(g.indices)), g.indices, g.indptr), shape=(g.n + 1, g.n + 1))
    count, labels = connected_components(adj[verts][:, verts], directed=False)
    return count, int(np.bincount(labels).max())


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
        assert g.neighbors(1).tolist() == list(range(2, 11))
        assert g.neighbors(10).tolist() == list(range(1, 10))

    def test_structural_invariants(self):
        for seed in range(5):
            g = sample_gnp(400, 0.02, seed=seed)
            assert len(g.indptr) == g.n + 2 and g.indptr[0] == g.indptr[1] == 0
            assert g.indptr[-1] == len(g.indices) == 2 * g.edge_count
            for u in range(1, g.n + 1):
                lst = g.neighbors(u).tolist()
                assert lst == sorted(lst)
                assert len(lst) == len(set(lst))
                assert u not in lst
                for v in lst:
                    assert 1 <= v <= g.n
                    assert u in g.neighbors(v).tolist()

    def test_rows_match_pair_loop(self):
        # reference: the sampler's pairs appended one by one to Python
        # lists, each list then sorted
        for n, p, seed in [(2, 0.5, 1), (300, 0.03, 2), (2000, 2e-3, 3), (40, 1.0, 4)]:
            g = sample_gnp(n, p, seed=seed)
            us, vs = _unrank_pairs(_sample_edge_indices(n, p, make_generator(seed)), n)
            rows = [[] for _ in range(n + 1)]
            for u, v in zip(us.tolist(), vs.tolist()):
                rows[u].append(v)
                rows[v].append(u)
            assert [g.neighbors(u).tolist() for u in range(n + 1)] == [sorted(r) for r in rows]

    def test_determinism(self):
        def rows(g):
            return [g.neighbors(u).tolist() for u in range(g.n + 1)]

        g1 = sample_gnp(500, 0.01, seed=99)
        g2 = sample_gnp(500, 0.01, seed=99)
        assert rows(g1) == rows(g2)
        g3 = sample_gnp(500, 0.01, seed=100)
        assert rows(g1) != rows(g3)

    def test_edge_count_concentrates(self):
        n, p = 10_000, 1e-3
        mean = n * (n - 1) / 2 * p
        sd = math.sqrt(n * (n - 1) / 2 * p * (1 - p))
        g = sample_gnp(n, p, seed=12345)
        assert abs(g.edge_count - mean) < 4 * sd

    def test_from_edges_validation(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match=r"edge \(1,4\) outside 1..3"):
            from_edges(3, [(1, 4)])
        with pytest.raises(ValueError, match="duplicate edge"):
            from_edges(3, [(1, 2), (2, 1)])

    def test_from_edges_sorts_rows(self):
        g = from_edges(5, [(5, 1), (3, 1), (2, 5)])
        assert [g.neighbors(u).tolist() for u in range(6)] == [[], [3, 5], [5], [1], [], [1, 2]]
        assert g.edge_count == 3


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

    def test_tie_goes_to_smallest_vertex(self):
        # {4,5,6} and {1,2,3} are equally large; the one holding vertex 1
        # wins, whatever the edge order
        g = from_edges(7, [(5, 6), (4, 5), (3, 2), (2, 1)])
        summary = largest_component(g, include_members=True)
        assert summary.largest_members == (1, 2, 3)
        assert summary.component_count == 3
        sub = largest_component(g, subset=[6, 5, 4, 3, 2], include_members=True)
        assert sub.largest_members == (4, 5, 6)  # {2,3} is smaller now

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
            # scipy's connected components, on the full graph and on a subset
            subset = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
            for verts in (np.arange(1, n + 1), np.sort(subset)):
                count, largest = scipy_components(g, verts)
                summary = largest_component(g, subset=verts)
                assert (summary.component_count, summary.largest_size) == (count, largest)

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
            brute = sum(1 for w in g.neighbors(v).tolist() if w in target)
            assert counts[v] == brute
