import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from bootperc import graph
from bootperc.engine import run_direct
from bootperc.graph import (
    MAX_N,
    ExplicitGraph,
    _geometric_gaps,
    _pair_rows,
    _row_start,
    _sample_edge_indices,
    _upper_key_offset,
    count_neighbors_in,
    from_edges,
    largest_component,
    sample_gnp,
    sample_gnp_with,
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


def upper_edges(g: ExplicitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge once, as (u, v) with u < v, read from the upper half
    rows in row order."""
    us = np.repeat(np.arange(g.n + 1), np.diff(g.indptr[: g.n + 2]))
    return us, g.indices[: len(us)]


def scipy_components(g: ExplicitGraph, verts: np.ndarray) -> tuple[int, int]:
    """scipy oracle: (component count, largest size) of the subgraph
    induced on the sorted vertices ``verts``."""
    us, vs = upper_edges(g)
    adj = csr_matrix((np.ones(len(us)), (us, vs)), shape=(g.n + 1, g.n + 1))
    count, labels = connected_components(adj[verts][:, verts], directed=False)
    return count, int(np.bincount(labels).max())


def reference_unrank_pairs(idxs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The float quadratic inverse with an integer fix-up that evaluates
    off(m) until it holds; needs (2n - 1)^2 < 2^63."""
    a = 2 * n - 1
    disc = a * a - 8 * idxs
    m = ((a - np.sqrt(disc.astype(np.float64))) // 2).astype(np.int64)

    def off(mm):
        # number of pairs (u, v), u < v, with u <= mm
        return mm * n - mm * (mm + 1) // 2

    over = off(m) > idxs
    while over.any():
        m[over] -= 1
        over = off(m) > idxs
    under = off(m + 1) <= idxs
    while under.any():
        m[under] += 1
        under = off(m + 1) <= idxs
    u = m + 1
    return u, u + 1 + (idxs - off(m))


def reference_edge_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The present pair indices from plain ``rng.geometric`` chunks, of
    the sampler's documented sizes, and an exact running sum in Python
    ints that stops at the first index past the last pair."""
    total = n * (n - 1) // 2
    idxs, pos = [], -1
    mean_left = total * p
    while True:
        size = max(64, int(mean_left + 4.0 * math.sqrt(mean_left + 1.0)))
        for gap in rng.geometric(p, size=size).tolist():
            pos += gap
            if pos >= total:
                return np.array(idxs, dtype=np.int64)
            idxs.append(pos)
        mean_left = (total - pos) * p


def reference_csr(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of sample_gnp(n, p, seed) from one sort of the
    keys src*(n+1) + dst over both copies of every edge, split by divmod."""
    indptr = np.zeros(n + 2, dtype=np.int64)
    if p <= 0.0 or n == 1:
        return indptr, np.empty(0, dtype=np.int64)
    us, vs = reference_unrank_pairs(reference_edge_indices(n, p, make_generator(seed)), n)
    keys = np.concatenate([us * (n + 1) + vs, vs * (n + 1) + us])
    keys.sort()
    src, dst = np.divmod(keys, n + 1)
    np.cumsum(np.bincount(src, minlength=n + 1), out=indptr[1:])
    return indptr, dst


def split_rows(indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole ascending CSR rows (``indptr`` of length n + 2) split into the
    half rows of ``ExplicitGraph``: each row's entries above it, row by
    row, then its entries below it, with the 2n + 3 half-row starts."""
    n = len(indptr) - 2
    src = np.repeat(np.arange(n + 1), np.diff(indptr))
    above = indices > src
    half = np.zeros(2 * n + 3, dtype=np.int64)
    half[1 : n + 2] = np.bincount(src[above], minlength=n + 1)
    half[n + 2 :] = np.bincount(src[~above], minlength=n + 1)
    return np.cumsum(half), np.concatenate([indices[above], indices[~above]])


def pair_rank(u: int, v: int, n: int) -> int:
    """0-based lexicographic index of the pair (u, v), in Python ints."""
    return (u - 1) * (2 * n - u) // 2 + (v - u - 1)


def graph_of_pair_indices(monkeypatch, n: int, idxs) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of the graph that ``sample_gnp_with``
    builds when the draws give the pair indices ``idxs``, handed over as
    the sampler hands them: at the front of a key buffer of twice their
    length."""

    def draws(*_):
        keys = np.zeros(2 * len(idxs), dtype=np.uint64)
        keys[: len(idxs)] = idxs
        return keys[: len(idxs)].view(np.int64)

    monkeypatch.setattr(graph, "_sample_edge_indices", draws)
    us, vs = upper_edges(sample_gnp_with(n, 0.5, make_generator(0)))
    return list(zip(us.tolist(), vs.tolist()))


# p on both sides of 1/3, where numpy's geometric switches from the
# inversion of an exponential to a search; 1e-19 hits the 2^62 cap
GAP_PS = [1e-19, 1e-7, 1.2e-5, 4e-4, 0.01, 0.2, 0.3, 0.3333, 1 / 3, 0.34, 0.5, 0.9, 1.0]


class TestGapDraws:
    """The sampler's gaps and pair indices against plain ``rng.geometric``:
    the same values and the same generator state after."""

    def test_gaps_match_numpy_geometric(self):
        for p in GAP_PS:
            for seed, size in ((0, 1), (1, 64), (2, 5000)):
                got_rng, ref_rng = make_generator(seed), make_generator(seed)
                got = _geometric_gaps(got_rng, p, size)
                want = np.minimum(ref_rng.geometric(p, size=size), 2**62)
                assert got.dtype == np.int64 and np.array_equal(got, want), (p, seed)
                assert got_rng.random() == ref_rng.random(), (p, seed)

    def test_edge_indices_match_reference(self):
        for p in [1e-18, *GAP_PS[1:]]:
            # about 2*10^4 edges at most; n = 10^6 at p = 1e-18 makes gaps
            # whose running sum wraps int64 after passing the last pair
            n = max(2, min(10**6, int(math.sqrt(4e4 / p))))
            for seed in range(3):
                got_rng, ref_rng = make_generator(seed), make_generator(seed)
                got = _sample_edge_indices(n, p, got_rng)
                assert np.array_equal(got, reference_edge_indices(n, p, ref_rng)), (n, p, seed)
                assert got_rng.random() == ref_rng.random(), (n, p, seed)

    def test_cast_peak_memory(self, traced_peak):
        # 8 B per gap and one block of scratch: the float draws share the
        # output's buffer, and each block is cast back on its own
        size = 10**6
        for p in (4e-4, 0.5):
            gaps, peak = traced_peak(lambda: _geometric_gaps(make_generator(2), p, size))
            assert len(gaps) == size and peak <= 8 * size + 16 * graph._BLOCK, (p, peak)

    def test_blocks_leave_draws_unchanged(self, monkeypatch):
        # blocks of 7 entries split every gap chunk, row block and lower
        # key pass; the values and the generator state stay those of
        # one block
        cases = [(p, 5000) for p in GAP_PS] + [(3000, 0.2), (300, 0.5), (2000, 1e-3), (40, 1.0)]
        want = [self.draw(case) for case in cases]
        monkeypatch.setattr(graph, "_BLOCK", 7)
        assert [self.draw(case) for case in cases] == want

    @staticmethod
    def draw(case):
        rng = make_generator(5)
        if isinstance(case[0], float):
            out = _geometric_gaps(rng, *case)
            return out.tolist(), rng.random()
        g = sample_gnp_with(*case, rng)
        return g.indptr.tolist(), g.indices.tolist(), rng.random()

    def test_short_first_chunk_grows_the_buffer(self, traced_peak):
        # a first chunk of all-ones gaps ends short of the last pair, so
        # the later chunks are drawn apart and the buffer grows once, in
        # place, to twice the edges: no second buffer sits beside the
        # first.  The reference sees the same ones
        class OnesFirst:
            def __init__(self, seed):
                self.rng, self.first = make_generator(seed), True

            def standard_exponential(self, out):
                if self.first:
                    out[:] = 1e-300  # ceil(1e-300 / -log1p(-p)) = 1
                else:
                    self.rng.standard_exponential(out=out)
                self.first = False

            def geometric(self, p, size):
                gaps = np.ones(size, dtype=np.int64) if self.first else self.rng.geometric(p, size=size)
                self.first = False
                return gaps

        n, p = 2000, 0.01
        for seed in range(3):
            got_rng, ref_rng = OnesFirst(seed), OnesFirst(seed)
            got = _sample_edge_indices(n, p, got_rng)
            want = reference_edge_indices(n, p, ref_rng)
            assert got[:100].tolist() == list(range(100)) and np.array_equal(got, want)
            assert len(got.base) == 2 * len(got)
            assert got_rng.rng.random() == ref_rng.rng.random()
            g = sample_gnp_with(n, p, OnesFirst(seed))
            assert g.neighbors(1).tolist()[:5] == [2, 3, 4, 5, 6] and g.edge_count == len(want)
        # at n = 6000 the growth against its bound: the buffer, 16 B per
        # edge, beside the later chunks, drawn apart at 8 B per entry
        n = 6000
        mean = n * (n - 1) // 2 * p
        first = int(mean + 4.0 * math.sqrt(mean + 1.0))
        grown, peak = traced_peak(lambda: _sample_edge_indices(n, p, OnesFirst(0)))
        assert grown[:first].tolist() == list(range(first)) and len(grown.base) == 2 * len(grown)
        assert peak <= 16 * len(grown) + 8 * (len(grown) - first) + 16 * graph._BLOCK, peak

    def test_tiny_p_graph(self):
        for seed in range(5):
            g = sample_gnp_with(10**6, 1e-18, make_generator(seed))
            assert g.edge_count == 0 and len(g.indptr) == 2 * 10**6 + 3


class TestUnrank:
    """The unranking inside ``sample_gnp_with``: with more pairs than rows,
    each row's upper degree from a search of the exact row starts and u by
    repeat; with fewer, u from ``_pair_rows``; v by subtraction."""

    def test_bijection_small(self, monkeypatch):
        rng = np.random.default_rng(8)
        for n in [2, 3, 5, 17, 40]:
            expected = list(itertools.combinations(range(1, n + 1), 2))
            total = len(expected)
            assert graph_of_pair_indices(monkeypatch, n, range(total)) == expected
            # both sides of the switch at n pairs
            for size in {1, min(n, total), min(n + 1, total), total // 3}:
                subset = np.sort(rng.choice(total, size=size, replace=False))
                assert graph_of_pair_indices(monkeypatch, n, subset) == [expected[k] for k in subset]

    def test_large_indices(self, monkeypatch):
        n = 10**6
        total = n * (n - 1) // 2
        idxs = [0, n - 2, n - 1, total // 2, total - 1]
        pairs = graph_of_pair_indices(monkeypatch, n, idxs)
        assert pairs[:3] == [(1, 2), (1, n), (2, 3)] and pairs[-1] == (n - 1, n)
        assert [pair_rank(u, v, n) for u, v in pairs] == idxs

    def test_pair_rows_match_exact_search(self):
        # every scale of n, with the ends of the index range included
        rng = np.random.default_rng(9)
        for n in [2, 3, 10, 1000, 10**6, 10**9, 2**31 + 11, MAX_N]:
            total = n * (n - 1) // 2
            idxs = [0, total - 1, *(int(x) for x in rng.integers(0, total, size=300))]

            def exact_row(idx):
                lo, hi = 1, n - 1  # the last u with off(u - 1) <= idx
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    lo, hi = (mid, hi) if (mid - 1) * (2 * n - mid) // 2 <= idx else (lo, mid - 1)
                return lo

            got = _pair_rows(np.array(idxs, dtype=np.int64), n).tolist()
            assert got == [exact_row(idx) for idx in idxs], n

    def test_row_starts_near_max_n(self):
        # the row starts, the rows of _pair_rows and v = idx - off(u - 1)
        # + u + 1 are exact in int64 up to n = MAX_N, where (2n - 1)^2 is
        # far beyond int64 and a float carries 53 bits of a 62-bit index
        n = MAX_N
        total = n * (n - 1) // 2
        rows = [1, 2, 3, n // 3, n // 2, n - 2, n - 1, n, n + 1]
        starts = _row_start(np.array(rows, dtype=np.int64), n)
        assert starts.tolist() == [(u - 1) * (2 * n - u) // 2 for u in rows]
        assert starts[-1] == starts[-2] == total  # row n has no upper pairs
        pairs = [(1, 2), (1, n), (2, 3), (2, n), (n // 3, n // 2), (n // 2, n // 2 + 1)]
        pairs += [(n // 2, n), (n - 3, n - 2), (n - 2, n), (n - 1, n)]
        idxs = np.array([pair_rank(u, v, n) for u, v in pairs], dtype=np.int64)
        us = _pair_rows(idxs, n)
        assert us.tolist() == [u for u, _ in pairs]
        assert (idxs - _row_start(us, n) + us + 1).tolist() == [v for _, v in pairs]
        # the upper key (u << s) + idx - off(u - 1) + u + 1 = (u << s) | v
        # in uint64, where u << 32 passes int64
        shift = n.bit_length()
        assert shift == 32
        keys = idxs.view(np.uint64) + _upper_key_offset(us, n, shift)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [(u << shift) | v for u, v in pairs]
        rows = np.array([u for u, _ in pairs], dtype=np.int64)
        assert _upper_key_offset(rows, n, shift).tolist() == [
            (u << shift) - (u - 1) * (2 * n - u) // 2 + u + 1 for u in rows.tolist()
        ]


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
            assert len(g.indptr) == 2 * g.n + 3 and g.indptr[0] == g.indptr[1] == 0
            assert g.indptr[g.n + 1] == g.indptr[g.n + 2] == g.edge_count  # n's upper half and 0's lower
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
            us, vs = reference_unrank_pairs(reference_edge_indices(n, p, make_generator(seed)), n)
            rows = [[] for _ in range(n + 1)]
            for u, v in zip(us.tolist(), vs.tolist()):
                rows[u].append(v)
                rows[v].append(u)
            assert [g.neighbors(u).tolist() for u in range(n + 1)] == [sorted(r) for r in rows]

    def test_csr_matches_reference_builder(self):
        ps = [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0]
        cases = [(n, p, seed) for n in [2, 3, 5, 40, 300, 3000] for p in ps for seed in (0, 1, 2)]
        # one seed where a graph has over 10^5 edges
        cases = [(n, p, seed) for n, p, seed in cases if seed == 0 or n * n * p < 2e5]
        cases += [(50_000, 4e-4, 3), (1_000_000, 1.2e-6, 4)]  # a dense and a sparse point
        for n, p, seed in cases:
            g = sample_gnp(n, p, seed=seed)
            # every row of the reference, split at its vertex
            indptr, indices = split_rows(*reference_csr(n, p, seed))
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert np.array_equal(g.indptr, indptr), (n, p, seed)
            assert np.array_equal(g.indices, indices), (n, p, seed)

    def test_peak_memory_while_building(self, traced_peak):
        # the pair indices are drawn into the front of the key buffer over
        # both copies of every edge (16 B/edge, and 4 sd of spare draws)
        # and become the keys in place; beside it the dense branch takes
        # indptr (16 B/vertex), its row starts (at most 48 B/vertex in
        # all) and blocks of scratch.  The lower keys are sorted in place
        # and nothing merges them, so no sort buffer hides from tracemalloc.
        n, p = 50_000, 4e-4
        sample_gnp_with(n, p, make_generator(0))
        g, peak = traced_peak(lambda: sample_gnp_with(n, p, make_generator(1)))
        assert g.edge_count > n  # the dense branch: row constants by repeat
        assert peak <= 16 * g.edge_count + 48 * n + 16 * graph._BLOCK, peak

    def test_half_row_invariants(self):
        # 2n + 3 half-row starts; each half ascends, the lower half below
        # u and the upper above it, and each edge sits once in each, on
        # sampled graphs of both branches and on from_edges graphs
        rng = np.random.default_rng(11)
        cases = [(1, 0.5, 0), (2, 1.0, 1), (40, 1.0, 2), (400, 0.02, 3), (3000, 2e-4, 4)]
        graphs = [(sample_gnp(n, p, seed=seed), None) for n, p, seed in cases]
        for case in range(20):
            n = int(rng.integers(2, 60))
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            chosen = [pairs[k] for k in rng.permutation(len(pairs))[: int(rng.integers(0, len(pairs) + 1))]]
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen]
            graphs.append((from_edges(n, edges), sorted(chosen)))
        for g, edges in graphs:
            n, ptr = g.n, g.indptr
            assert len(ptr) == 2 * n + 3 and ptr[0] == 0 and ptr[-1] == len(g.indices) == 2 * g.edge_count
            assert (np.diff(ptr) >= 0).all() and ptr[n + 1] == g.edge_count
            for u in range(n + 1):
                upper = g.indices[ptr[u] : ptr[u + 1]].tolist()
                lower = g.indices[ptr[n + 1 + u] : ptr[n + 2 + u]].tolist()
                assert upper == sorted(set(upper)) and all(u < v <= n for v in upper), u
                assert lower == sorted(set(lower)) and all(1 <= v < u for v in lower), u
            us, vs = upper_edges(g)
            upper = list(zip(us.tolist(), vs.tolist()))
            lower_rows = np.repeat(np.arange(n + 1), np.diff(ptr[n + 1 :]))
            assert sorted(zip(g.indices[g.edge_count :].tolist(), lower_rows.tolist())) == upper
            assert edges is None or upper == edges

    def test_n_bound_checked_before_drawing(self):
        assert MAX_N == 3_037_000_498 and (MAX_N + 1) ** 2 < 2**63 <= (MAX_N + 2) ** 2
        for n in (MAX_N + 1, 3_100_000_000):
            with pytest.raises(ValueError, match="n must lie in 1..3037000498"):
                sample_gnp_with(n, 1e-20, make_generator(0))
        with pytest.raises(ValueError, match="n must lie in"):
            sample_gnp_with(0, 0.5, make_generator(0))

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
        # a cast once read (1.5, 2.9) as the edge 1-2
        for edges in ([(1.5, 2.9), (3, 4)], [("1", "2")], np.array([[1.0, 2.0]]), np.array([[True, True]])):
            with pytest.raises(ValueError, match="edge vertex ids must be integers"):
                from_edges(4, edges)
        # integer arrays of any width, lists and generators are read as they are
        want = from_edges(4, [(1, 2), (3, 4)])
        pairs = [[1, 2], [3, 4]]
        for edges in (np.array(pairs, dtype=np.uint8), np.array(pairs, dtype=np.int32), (tuple(e) for e in pairs)):
            g = from_edges(4, edges)
            assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
        assert from_edges(4, []).edge_count == 0

    def test_vertex_sets_must_hold_integers(self):
        # on the path 1-2-3-4 a cast once read {1.9, 3.2} as {1, 3}, {2.5, 3.7}
        # as {2, 3} and the seed 1.5 as 1
        g = from_edges(4, [(1, 2), (2, 3), (3, 4)])
        calls = {
            "target vertex": lambda vs: count_neighbors_in(g, vs).tolist(),
            "subset vertex": lambda vs: largest_component(g, vs).largest_members.tolist(),
            "seed": lambda vs: run_direct(g, vs, 1),
        }
        floats = (np.array([1.9, 3.2]), np.array([2.5, 3.7]), [1.5], [2, 3.0])
        for label, call in calls.items():
            for vs in floats + ("12", ["2"], np.array([True, False, True]), [True]):
                with pytest.raises(ValueError, match=f"{label} ids must be integers"):
                    call(vs)
            # integer arrays of any width, lists, ranges, sets and generators
            want = call(np.array([2, 3]))
            for vs in (np.array([2, 3], dtype=np.uint16), np.array([2, 3], dtype=np.int8), [2, 3], range(2, 4), {2, 3}):
                assert call(vs) == want
            assert call(v for v in (2, 3)) == want
            call([])

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
        summary = largest_component(g)
        assert summary.largest_size == 5
        assert summary.largest_members.tolist() == [1, 2, 3, 4, 5]
        assert summary.component_count == 1

    def test_two_components(self):
        g = from_edges(6, [(1, 2), (2, 3), (4, 5)])
        summary = largest_component(g)
        assert summary.largest_size == 3
        assert summary.largest_members.tolist() == [1, 2, 3]
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
        summary = largest_component(g)
        assert summary.largest_members.tolist() == [1, 2, 3]
        assert summary.component_count == 3
        sub = largest_component(g, subset=[6, 5, 4, 3, 2])
        assert sub.largest_members.tolist() == [4, 5, 6]  # {2,3} is smaller now

    def test_empty_subset(self):
        g = from_edges(4, [(1, 2)])
        summary = largest_component(g, subset=[])
        assert (summary.component_count, summary.largest_size) == (0, 0)
        assert summary.largest_members.dtype == np.int64 and summary.largest_members.tolist() == []

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for case in range(100):
            n = int(rng.integers(10, 501))
            p = float(rng.choice([0.002, 0.01, 0.05]))
            g = sample_gnp(n, p, seed=int(rng.integers(0, 2**60)))
            comps = bfs_components(g)
            summary = largest_component(g)
            assert summary.component_count == len(comps)
            assert summary.largest_size == max(len(c) for c in comps)
            assert set(summary.largest_members.tolist()) in [
                c for c in comps if len(c) == summary.largest_size
            ]
            # scipy's connected components, on the full graph and on a subset
            subset = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
            for verts in (np.arange(1, n + 1), np.sort(subset)):
                count, largest = scipy_components(g, verts)
                summary = largest_component(g, subset=verts)
                assert (summary.component_count, summary.largest_size) == (count, largest)

    def test_scattered_subset_tie_matches_bfs(self):
        # two paths of 4 inside the subset, interleaved over the ids; the one
        # holding vertex 3 wins the tie.  30 would join them but lies
        # outside, 25 and 44 are alone in the subset, and 9 hangs off 25
        # from outside it
        a, b = [7, 19, 33, 52], [3, 41, 58, 12]
        edges = list(zip(a, a[1:])) + list(zip(b, b[1:])) + [(30, 52), (30, 3), (9, 25)]
        g = from_edges(60, edges)
        subset = [52, 44, *b, 25, 33, 19, 7]
        summary = largest_component(g, subset=subset)
        assert summary.largest_members.tolist() == sorted(b)
        comps = bfs_components(g, subset)
        assert summary.component_count == len(comps) == 4
        assert summary.largest_size == max(len(c) for c in comps) == 4
        whole = largest_component(g)
        assert whole.largest_members.tolist() == sorted(a + b + [30])
        # random scattered subsets: the largest component with the
        # smallest vertex, as the breadth-first search finds it
        rng = np.random.default_rng(6)
        ties = 0
        for case in range(60):
            n = int(rng.integers(30, 300))
            g = sample_gnp(n, float(rng.choice([0.005, 0.01, 0.02])), seed=int(rng.integers(0, 2**60)))
            subset = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n // 3 + 1)), replace=False)
            comps = bfs_components(g, subset.tolist())
            size = max(len(c) for c in comps)
            winners = sorted(c for c in comps if len(c) == size)
            ties += len(winners) > 1
            summary = largest_component(g, subset=subset)
            assert summary.component_count == len(comps)
            assert summary.largest_members.tolist() == sorted(min(winners, key=min))
        assert ties

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


class TestRowEntries:
    def test_rows_and_peak_memory(self, traced_peak):
        # the positions and the gathered entries, 8 B each, plus the
        # starts, lengths and offsets of the rows
        g = sample_gnp(50_000, 4e-4, seed=3)
        vs = np.arange(1, 20_001)
        (entries, lens), peak = traced_peak(lambda: graph._row_entries(g, vs))
        assert peak <= 2 * 8 * len(entries) + 64 * len(vs), peak
        rows = [g.neighbors(v) for v in vs.tolist()]
        assert lens.tolist() == [len(row) for row in rows]
        assert np.array_equal(entries, np.concatenate(rows))
        sub = np.array([5, 17, 17_000, 3])
        entries, lens = graph._row_entries(g, sub)
        assert entries.tolist() == sum((g.neighbors(v).tolist() for v in sub.tolist()), [])


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
