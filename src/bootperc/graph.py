"""Materialised G(n,p) sampling and component analysis.

A graph is held in compressed sparse row (CSR) form: two int64 arrays,
``indptr`` and ``indices``, with 1-based vertices.  Graphs are immutable
after construction; all read operations are safe to call concurrently.

G(n,p) is drawn by geometric skips over the C(n,2) pair indices, each
unranked exactly to its pair (see :func:`sample_gnp_with`).
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
    largest_members: np.ndarray  # sorted int64 ids; empty when there is no vertex


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
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n + 1), out=indptr[1:])
    return ExplicitGraph(n=n, indptr=indptr, indices=dst)


def _geometric_gaps(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``rng.geometric(p, size)`` capped at 2^62, with the same generator
    state after: below p = 1/3 numpy inverts one standard exponential per
    draw, ceil(E / -log1p(-p)), done here in bulk in one buffer.  2^62
    passes every pair index and keeps the running sum from wrapping first."""
    if p >= 1.0 / 3.0:
        return rng.geometric(p, size=size)
    gaps = np.empty(size, dtype=np.int64)
    draws = gaps.view(np.float64)
    rng.standard_exponential(out=draws)
    draws /= -math.log1p(-p)
    np.minimum(draws, 2.0**62, out=draws)
    np.ceil(draws, out=gaps, casting="unsafe")  # in place, element by element
    return gaps


def _sample_edge_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Linearised indices of present pairs via geometric skips, ascending.

    Expected work is proportional to the edge count: the gap to the next
    present pair is geometric with success probability p.
    """
    total = n * (n - 1) // 2
    chunks = []
    pos = -1
    mean_left = total * p
    while True:
        size = max(64, int(mean_left + 4.0 * math.sqrt(mean_left + 1.0)))
        idxs = _geometric_gaps(rng, p, size)
        np.cumsum(idxs, out=idxs)
        idxs += pos
        # the sum may wrap once past total < 2^62: scan, do not bisect, for the end
        cut = int(np.argmax(idxs >= total))
        if idxs[cut] < total:
            cut = size
        chunks.append(idxs[:cut])
        if cut < size:
            break
        pos = int(idxs[-1])
        mean_left = (total - pos) * p
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def _row_start(u, n: int):
    """off(u - 1) = (u - 1)(2n - u) / 2: the number of pairs (x, y),
    x < y, with x < u, so the index of the pair (u, u + 1)."""
    return ((u - 1) * (2 * n - u)) >> 1


def _pair_rows(idxs: np.ndarray, n: int) -> np.ndarray:
    """Row u of each pair index, in O(len(idxs)): the float inverse of the
    row start, floor((2n + 1 - sqrt(8j + 9)) / 2) with j = C(n,2) - 1 - idx,
    is within one row of u for n <= MAX_N, and one exact step settles it."""
    j = (n * (n - 1) // 2 - 1 - idxs).astype(np.float64)
    us = np.floor((2 * n + 1 - np.sqrt(8.0 * j + 9.0)) / 2.0).astype(np.int64)
    us -= _row_start(us, n) > idxs
    us += _row_start(us + 1, n) <= idxs
    return us


# (n + 1)^2 < 2^63 keeps the pair indices below 2^62, the gap cap, and n below 2^32
MAX_N = math.isqrt(2**63 - 1) - 1


def sample_gnp_with(n: int, p: float, rng: np.random.Generator) -> ExplicitGraph:
    """G(n,p) drawn from an existing generator (one graph per call).

    Row u's upper neighbours are the ascending pair indices between the
    exact row starts off(u - 1) and off(u): with more pairs than rows, a
    ``searchsorted`` of the n + 1 row starts gives every upper degree and
    u follows by ``repeat``; with fewer, :func:`_pair_rows` finds each
    row.  v follows by subtraction.  The rows come from the uint64 keys
    (src << s) | dst, s = n.bit_length(), over both copies of every edge:
    the upper copies already ascend, so only the lower copies are sorted,
    and a stable sort (timsort) merges the two runs.  n is at most
    ``MAX_N`` = 3037000498 (where indptr alone takes 24 GB); a larger n
    raises ValueError before anything is drawn.
    """
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must lie in 1..{MAX_N}, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p <= 0.0 or n == 1:
        return from_edges(n, [])
    idxs = _sample_edge_indices(n, p, rng)
    e = len(idxs)
    indptr = np.zeros(n + 2, dtype=np.int64)  # u's degree sits at indptr[u + 1] until the cumsum
    # each index becomes v = idx - off(u - 1) + u + 1 in place
    if e > n:
        rows = np.arange(1, n + 2, dtype=np.int64)
        starts = _row_start(rows, n)
        indptr[2:] = np.diff(np.searchsorted(idxs, starts))
        idxs -= np.repeat(starts[:-1] - rows[:-1] - 1, indptr[2:])
        us = np.repeat(rows[:-1], indptr[2:])
    else:
        us = _pair_rows(idxs, n)
        indptr[1:] = np.bincount(us, minlength=n + 1)
        idxs -= _row_start(us, n) - us - 1
    vs = idxs
    indptr[1:] += np.bincount(vs, minlength=n + 1)
    np.cumsum(indptr, out=indptr)
    shift = n.bit_length()  # dst < 2^shift <= 2^32, so a key fits in 64 bits
    us, vs = us.view(np.uint64), vs.view(np.uint64)
    keys = np.empty(2 * e, dtype=np.uint64)
    upper, lower = keys[:e], keys[e:]
    np.left_shift(vs, shift, out=lower)
    lower |= us
    lower.sort()
    np.left_shift(us, shift, out=upper)
    upper |= vs
    del us, vs
    keys.sort(kind="stable")
    keys &= (1 << shift) - 1
    return ExplicitGraph(n=n, indptr=indptr, indices=keys.view(np.int64))


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


def _row_entries(g: ExplicitGraph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the vertices vs, concatenated, and their lengths."""
    starts = g.indptr[vs]
    lens = g.indptr[vs + 1] - starts
    # position of each entry: its row's start plus its rank within the row
    pos = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
    return g.indices[pos], lens


def _neighbor_counts(g: ExplicitGraph, vs: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbours among the distinct, in-range
    vertices vs, indexed by vertex id."""
    return np.bincount(_row_entries(g, vs)[0], minlength=g.n + 1)


def largest_component(g: ExplicitGraph, subset=None) -> ComponentSummary:
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
        return ComponentSummary(0, 0, verts)
    ws, lens = _row_entries(g, verts)
    us = np.repeat(verts, lens)
    keep = (us < ws) & inside[ws]
    us, ws = us[keep], ws[keep]
    root = np.arange(g.n + 1, dtype=np.int64)
    while True:
        ru, rw = root[us], root[ws]
        split = ru != rw
        if not split.any():
            break
        # an edge inside one component stays inside it
        us, ws, ru, rw = us[split], ws[split], ru[split], rw[split]
        root[np.maximum(ru, rw)] = np.minimum(ru, rw)  # any smaller partner will do
        # jump only the labels that still move; a root never moves
        moving = np.flatnonzero(root[root] != root)
        while len(moving):
            up = root[root[moving]]
            root[moving] = up
            moving = moving[root[up] != up]
    labels = root[verts]
    sizes = np.bincount(labels)
    best = int(np.argmax(sizes))  # the first maximum: smallest label
    return ComponentSummary(
        component_count=int(np.count_nonzero(sizes)),
        largest_size=int(sizes[best]),
        largest_members=verts[labels == best],
    )


def count_neighbors_in(g: ExplicitGraph, target_set) -> np.ndarray:
    """Exact per-vertex count of neighbours inside ``target_set``.

    Returns an array indexed by vertex id (entry 0 unused).
    """
    return _neighbor_counts(g, np.flatnonzero(_vertex_mask(target_set, g.n, "target vertex")))
