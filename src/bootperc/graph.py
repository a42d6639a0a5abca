"""Materialised G(n,p) sampling and component analysis.

A graph is held in compressed sparse row (CSR) form: two int64 arrays,
``indptr`` and ``indices``, with 1-based vertices.  Graphs are immutable
after construction; all read operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_generator


@dataclass(frozen=True)
class ExplicitGraph:
    """CSR graph on vertices 1..n: the neighbours of u are
    ``indices[indptr[u]:indptr[u + 1]]``, and row 0 is empty.

    Rows are sorted ascending, symmetric, loop-free and duplicate-free.
    """

    n: int
    indptr: np.ndarray  # int64, length n + 2
    indices: np.ndarray  # int64, two entries per edge

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2


@dataclass(frozen=True)
class ComponentSummary:
    component_count: int
    largest_size: int
    largest_members: tuple[int, ...] | None = None


def _csr(n: int, src: np.ndarray, indices: np.ndarray) -> ExplicitGraph:
    """The graph whose rows are ``indices`` grouped by the source vertices
    ``src`` (each row already sorted)."""
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n + 1), out=indptr[1:])
    return ExplicitGraph(n=n, indptr=indptr, indices=indices)


def from_edges(n: int, edges) -> ExplicitGraph:
    """Build a graph from (u, v) pairs; symmetrises and sorts."""
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    us, vs = pairs[:, 0], pairs[:, 1]
    bad = (us == vs) | (us < 1) | (us > n) | (vs < 1) | (vs > n)
    if bad.any():
        u, v = pairs[np.argmax(bad)].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) outside 1..{n}")
    src, dst = np.concatenate([us, vs]), np.concatenate([vs, us])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if dup.any():
        raise ValueError(f"duplicate edge involving vertex {dst[np.argmax(dup) + 1]}")
    return _csr(n, src, dst)


def _sample_edge_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Linearised indices of present pairs via geometric skips.

    Expected work is proportional to the edge count: the gap to the next
    present pair is geometric with success probability p.
    """
    total = n * (n - 1) // 2
    chunks = []
    pos = -1
    mean_left = total * p
    while True:
        size = max(64, int(mean_left + 4.0 * math.sqrt(mean_left + 1.0)))
        gaps = rng.geometric(p, size=size).astype(np.int64)
        idxs = pos + np.cumsum(gaps)
        cut = int(np.searchsorted(idxs, total))
        chunks.append(idxs[:cut])
        if cut < size:
            break
        pos = int(idxs[-1])
        mean_left = (total - pos) * p
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _unrank_pairs(idxs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (u, v), 1 <= u < v <= n, at 0-based lexicographic indices:
    the float quadratic inverse with an exact integer fix-up."""
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
    v = u + 1 + (idxs - off(m))
    return u, v


def sample_gnp_with(n: int, p: float, rng: np.random.Generator) -> ExplicitGraph:
    """G(n,p) drawn from an existing generator (one graph per call)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p <= 0.0 or n == 1:
        return from_edges(n, [])
    us, vs = _unrank_pairs(_sample_edge_indices(n, p, rng), n)
    # pairs come in lexicographic order, so a stable sort on the source,
    # with the (v, u) copies first, leaves every row ascending
    src, dst = np.concatenate([vs, us]), np.concatenate([us, vs])
    return _csr(n, src, dst[np.argsort(src, kind="stable")])


def sample_gnp(n: int, p: float, seed: int) -> ExplicitGraph:
    """G(n,p): every one of the C(n,2) pairs present independently with
    probability p.  Deterministic for fixed (n, p, seed).

    The graph takes 16 bytes per edge, plus 8 per vertex; as a rule of
    thumb keep n^2 p below 1e8.
    """
    return sample_gnp_with(n, p, make_generator(seed))


def _vertex_mask(vertices, n: int, label: str) -> np.ndarray:
    """Boolean mask over ids 0..n of an iterable of vertices in 1..n; a
    mask rather than ``np.unique``, which takes about 0.9 s on 10^6 ids."""
    if isinstance(vertices, np.ndarray):
        ids = vertices.astype(np.int64, copy=False)
    else:
        ids = np.fromiter(vertices, dtype=np.int64)
    bad = ids[(ids < 1) | (ids > n)]
    if len(bad):
        raise ValueError(f"{label} {bad[0]} outside 1..{n}")
    mask = np.zeros(n + 1, dtype=bool)
    mask[ids] = True
    return mask


def _rows_of(g: ExplicitGraph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every entry (u, w) in the rows of the vertices vs, as two arrays."""
    starts = g.indptr[vs]
    lens = g.indptr[vs + 1] - starts
    # position of each entry: its row's start plus its rank within the row
    pos = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return np.repeat(vs, lens), g.indices[pos]


def largest_component(
    g: ExplicitGraph,
    subset=None,
    include_members: bool = False,
) -> ComponentSummary:
    """Largest connected component, optionally restricted to the induced
    subgraph on ``subset`` (edges with both endpoints inside).

    Components are labelled by min-label propagation with pointer jumping
    (Shiloach and Vishkin): every edge hooks the larger of its two roots
    onto the smaller until no edge joins two roots, so each component ends
    labelled by its smallest vertex.  Ties between equally large components
    go to the one holding the smallest vertex.
    """
    if subset is None:
        inside = np.ones(g.n + 1, dtype=bool)
        inside[0] = False
    else:
        inside = _vertex_mask(subset, g.n, "subset vertex")
    verts = np.flatnonzero(inside)
    if not len(verts):
        return ComponentSummary(0, 0, () if include_members else None)
    us, ws = _rows_of(g, verts)
    keep = (us < ws) & inside[ws]
    us, ws = us[keep], ws[keep]
    root = np.arange(g.n + 1, dtype=np.int64)
    while True:
        ru, rw = root[us], root[ws]
        split = ru != rw
        if not split.any():
            break
        lo, hi = np.minimum(ru[split], rw[split]), np.maximum(ru[split], rw[split])
        root[hi] = lo  # hi is a root; any of its smaller partners will do
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    labels = root[verts]
    sizes = np.bincount(labels)
    best = int(np.argmax(sizes))  # the first maximum: smallest label
    members = None
    if include_members:
        members = tuple(verts[labels == best].tolist())
    return ComponentSummary(
        component_count=int(np.count_nonzero(sizes)),
        largest_size=int(sizes[best]),
        largest_members=members,
    )


def count_neighbors_in(g: ExplicitGraph, target_set) -> np.ndarray:
    """Exact per-vertex count of neighbours inside ``target_set``.

    Returns an array indexed by vertex id (entry 0 unused).
    """
    targets = np.flatnonzero(_vertex_mask(target_set, g.n, "target vertex"))
    return np.bincount(_rows_of(g, targets)[1], minlength=g.n + 1)
