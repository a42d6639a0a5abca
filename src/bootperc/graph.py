"""Materialised G(n,p) sampling and component analysis.

A graph is held in half rows: two int64 arrays, ``indptr`` and
``indices``, with 1-based vertices, where each vertex's row is split at
the vertex itself (see :class:`ExplicitGraph`).  Graphs are immutable
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
    """Graph on vertices 1..n in 2n + 2 half rows: half row k is
    ``indices[indptr[k]:indptr[k + 1]]``.  Half row u, for u = 0..n, is
    u's upper half, its neighbours above u; half row n + 1 + u is its
    lower half, its neighbours below u.  So ``indices`` holds every upper
    half in row order, then every lower half, and each edge u < v appears
    once in each: v in u's upper half, u in v's lower half.  Vertex 0 has
    no neighbours.

    Each half ascends, so a row, the lower half then the upper, ascends;
    rows are symmetric, loop-free and duplicate-free.
    """

    n: int
    indptr: np.ndarray  # int64, length 2n + 3
    indices: np.ndarray  # int64, two entries per edge

    def neighbors(self, u: int) -> np.ndarray:
        ptr, low = self.indptr, self.n + 1 + u
        return np.concatenate((self.indices[ptr[low] : ptr[low + 1]], self.indices[ptr[u] : ptr[u + 1]]))

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2


@dataclass(frozen=True)
class ComponentSummary:
    component_count: int
    largest_size: int
    largest_members: np.ndarray  # sorted int64 ids; empty when there is no vertex


def from_edges(n: int, edges) -> ExplicitGraph:
    """Build a graph from (u, v) pairs, each edge once in either order."""
    pairs = _integer_ids(edges, "edge vertex").reshape(-1, 2)
    us, vs = pairs[:, 0], pairs[:, 1]
    bad = (us == vs) | (us < 1) | (us > n) | (vs < 1) | (vs > n)
    if bad.any():
        u, v = pairs[np.argmax(bad)].tolist()
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        raise ValueError(f"edge ({u},{v}) outside 1..{n}")
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]  # the upper halves
    dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if dup.any():
        raise ValueError(f"duplicate edge involving vertex {hi[np.argmax(dup) + 1]}")
    indptr = np.zeros(2 * n + 3, dtype=np.int64)
    indptr[1 : n + 2] = np.bincount(lo, minlength=n + 1)
    indptr[n + 2 :] = np.bincount(hi, minlength=n + 1)
    np.cumsum(indptr, out=indptr)
    # a stable sort by hi keeps each lower half ascending
    return ExplicitGraph(n=n, indptr=indptr, indices=np.concatenate([hi, lo[np.argsort(hi, kind="stable")]]))


# entries of scratch per pass over edge-sized data: the sampler's casts, row
# constants, rows and lower keys, and the rows that the neighbour counts, the
# components and the closure read
_BLOCK = 1 << 16


def _spans(ends: np.ndarray):
    """Items 0..k-1 with running totals ``ends``, in consecutive runs
    (lo, hi) of at most ``_BLOCK`` items and about ``_BLOCK`` in total
    each, one item at least; a single run, empty when k = 0, when both
    fit in one block."""
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1] if len(ends) else 0, _BLOCK))
    lo = 0
    for hi in np.sort(np.concatenate([cuts, np.arange(_BLOCK, len(ends), _BLOCK)])).tolist():
        if hi > lo:
            yield lo, hi
            lo = hi
    yield lo, len(ends)


def _geometric_gaps(rng: np.random.Generator, p: float, size: int, out=None) -> np.ndarray:
    """``rng.geometric(p, size)`` capped at 2^62, with the same generator
    state after, in ``out`` (int64, ``size`` entries) when given.  Below
    p = 1/3 numpy inverts one standard exponential per draw,
    ceil(E / -log1p(-p)), done here in bulk in the output's own buffer and
    cast back one block at a time: numpy copies an aliased input of another
    dtype whole.  At or above it, numpy's own draws, one block at a time.
    2^62 passes every pair index and keeps the running sum from wrapping
    first."""
    gaps = np.empty(size, dtype=np.int64) if out is None else out
    blocks = [slice(lo, min(lo + _BLOCK, size)) for lo in range(0, size, _BLOCK)]
    if p >= 1.0 / 3.0:
        for block in blocks:
            gaps[block] = rng.geometric(p, size=block.stop - block.start)
        return gaps
    draws = gaps.view(np.float64)
    rng.standard_exponential(out=draws)
    draws /= -math.log1p(-p)
    np.minimum(draws, 2.0**62, out=draws)
    for block in blocks:
        gaps[block] = np.ceil(draws[block])
    return gaps


def _sample_edge_indices(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Linearised indices of present pairs via geometric skips, ascending:
    the int64 view of the first e entries of a uint64 buffer of at least
    2e (its ``base``), in which :func:`sample_gnp_with` builds the keys.

    Expected work is proportional to the edge count: the gap to the next
    present pair is geometric with success probability p.  The first
    chunk, of mean + 4 sd gaps, is drawn straight into the front half of
    the buffer; in the rare case that it ends short of the last pair, the
    later chunks are drawn apart and the buffer grows once, at the end,
    by ``realloc``, which a large buffer's pages follow without a copy
    beside them.
    """
    total = n * (n - 1) // 2
    chunks = []
    pos = -1
    mean_left = total * p
    while True:
        size = max(64, int(mean_left + 4.0 * math.sqrt(mean_left + 1.0)))
        if not chunks:
            keys = np.empty(2 * size, dtype=np.uint64)
        idxs = _geometric_gaps(rng, p, size, out=None if chunks else keys[:size].view(np.int64))
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
    e = sum(map(len, chunks))
    if len(chunks) > 1:
        later = np.concatenate(chunks[1:])
        del chunks, idxs  # no view of the buffer may outlive its realloc
        keys.resize(2 * e, refcheck=False)
        keys[e - len(later) : e] = later
    return keys[:e].view(np.int64)


def _row_start(u, n: int):
    """off(u - 1) = (u - 1)(2n - u) / 2: the number of pairs (x, y),
    x < y, with x < u, so the index of the pair (u, u + 1).  Written
    (u (2n + 1 - u) - 2n) / 2, it takes one temporary array of u's size."""
    return (u * (2 * n + 1 - u) - 2 * n) >> 1


def _pair_rows(idxs: np.ndarray, n: int) -> np.ndarray:
    """Row u of each pair index, in O(len(idxs)): the float inverse of the
    row start, floor((2n + 1 - sqrt(8j + 9)) / 2) with j = C(n,2) - 1 - idx,
    is within one row of u for n <= MAX_N, and one exact step settles it."""
    j = (n * (n - 1) // 2 - 1 - idxs).astype(np.float64)
    us = np.floor((2 * n + 1 - np.sqrt(8.0 * j + 9.0)) / 2.0).astype(np.int64)
    us -= _row_start(us, n) > idxs
    us += _row_start(us + 1, n) <= idxs
    return us


def _upper_key_offset(u: np.ndarray, n: int, shift: int) -> np.ndarray:
    """(u << shift) - off(u - 1) + u + 1 in uint64: added to the index of
    a pair (u, v), it gives the pair's upper key (u << shift) | v."""
    u = u.view(np.uint64)  # int64 rows, all positive
    return (u << shift) - _row_start(u, n) + u + 1


# (n + 1)^2 < 2^63 keeps the pair indices below 2^62, the gap cap, and n below 2^32
MAX_N = math.isqrt(2**63 - 1) - 1


def sample_gnp_with(n: int, p: float, rng: np.random.Generator) -> ExplicitGraph:
    """G(n,p) drawn from an existing generator (one graph per call).

    Row u's upper neighbours are the ascending pair indices between the
    exact row starts off(u - 1) and off(u): with more pairs than rows, a
    ``searchsorted`` of the n + 1 row starts, one block of 2^16 rows at a
    time, gives every upper half's start, and ``repeat`` spreads each
    row's :func:`_upper_key_offset` over its pairs, one block of rows of
    about 2^16 pairs at a time; with fewer, :func:`_pair_rows` finds the
    rows, and ``np.add.at`` counts the upper degrees, one block of 2^16
    pairs at a time.  The pair indices are drawn into the front of one
    uint64 buffer over both copies of every edge (see
    :func:`_sample_edge_indices`), and adding the offset makes each, in
    place, its upper key (u << s) | v, s = n.bit_length().  The lower
    keys (v << s) | u fill the next e entries one block at a time, as
    ``np.add.at`` counts their v's, the lower degrees.  The upper keys
    already ascend, row by row, and sorting the lower ones in place puts
    them row by row too: the buffer is then the graph's upper halves
    followed by its lower halves (see :class:`ExplicitGraph`), with no
    merge, and ``indices`` is the low s bits of its first 2e entries.
    The graph holds 16 bytes per edge and 16 per vertex; beside the
    buffer, building takes O(n) and one block of scratch, so it peaks at
    16 bytes per edge.  n is at most ``MAX_N`` = 3037000498 (where indptr
    alone takes 48 GB); a larger n raises ValueError before anything is
    drawn.
    """
    if not (1 <= n <= MAX_N):
        raise ValueError(f"n must lie in 1..{MAX_N}, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if p <= 0.0 or n == 1:
        return from_edges(n, [])
    idxs = _sample_edge_indices(n, p, rng)
    e = len(idxs)
    keys = idxs.base  # uint64: the upper keys take the first e entries, the lower ones the next e
    upper, lower = keys[:e], keys[e : 2 * e]
    shift = n.bit_length()  # v < 2^shift <= 2^32, so a key fits in 64 bits
    # half row k starts at indptr[k]: the dense branch writes the upper starts
    # there, the rest are lengths at indptr[k + 1] until a cumsum
    indptr = np.zeros(2 * n + 3, dtype=np.int64)
    if e > n:
        # upper half u starts at the first pair index at or past off(u - 1)
        for lo in range(1, n + 2, _BLOCK):
            rows = np.arange(lo, min(lo + _BLOCK, n + 2), dtype=np.int64)
            indptr[rows] = np.searchsorted(idxs, _row_start(rows, n))
        for lo, hi in _spans(indptr[2 : n + 2]):  # rows lo + 1..hi
            offsets = _upper_key_offset(np.arange(lo + 1, hi + 1, dtype=np.int64), n, shift)
            upper[indptr[lo + 1] : indptr[hi + 1]] += np.repeat(offsets, np.diff(indptr[lo + 1 : hi + 2]))
    else:
        for lo in range(0, e, _BLOCK):
            us = _pair_rows(idxs[lo : lo + _BLOCK], n)
            np.add.at(indptr[1:], us, 1)
            upper[lo : lo + _BLOCK] += _upper_key_offset(us, n, shift)
        np.cumsum(indptr[: n + 2], out=indptr[: n + 2])
    for lo in range(0, e, _BLOCK):
        vs = np.bitwise_and(upper[lo : lo + _BLOCK], (1 << shift) - 1, out=lower[lo : lo + _BLOCK])
        np.add.at(indptr[n + 2 :], vs.view(np.int64), 1)
        vs <<= shift
        vs |= upper[lo : lo + _BLOCK] >> shift  # u
    np.cumsum(indptr[n + 1 :], out=indptr[n + 1 :])  # from indptr[n + 1] = e
    lower.sort()
    both = keys[: 2 * e]
    both &= (1 << shift) - 1
    return ExplicitGraph(n=n, indptr=indptr, indices=both.view(np.int64))


def sample_gnp(n: int, p: float, seed: int) -> ExplicitGraph:
    """G(n,p): every one of the C(n,2) pairs present independently with
    probability p.  Deterministic for fixed (n, p, seed).

    The graph takes 16 bytes per edge, plus 16 per vertex, and building
    it peaks at 16 bytes per edge, plus O(n) and one block of scratch; as
    a rule of thumb keep n^2 p below 1e8.
    """
    return sample_gnp_with(n, p, make_generator(seed))


def _integer_ids(items, label: str) -> np.ndarray:
    """Integer ids as int64; ValueError for floats, strings or bools, which a cast would misread."""
    ids = np.asarray(items if isinstance(items, np.ndarray) else list(items))
    if ids.size and ids.dtype.kind not in "iu":  # an empty list reads as float64
        raise ValueError(f"{label} ids must be integers, got {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def _vertex_mask(vertices, n: int, label: str) -> np.ndarray:
    """Boolean mask over ids 0..n of an iterable of vertices in 1..n; a
    mask rather than ``np.unique``, which takes about 0.9 s on 10^6 ids."""
    ids = _integer_ids(vertices, label)
    bad = ids[(ids < 1) | (ids > n)]
    if len(bad):
        raise ValueError(f"{label} {bad[0]} outside 1..{n}")
    mask = np.zeros(n + 1, dtype=bool)
    mask[ids] = True
    return mask


def _half_row_entries(g: ExplicitGraph, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half rows ``halves``, concatenated, and their lengths."""
    starts = g.indptr[halves]
    lens = g.indptr[halves + 1] - starts
    # position of each entry: its half row's start plus its rank within it
    pos = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    pos += np.arange(len(pos))
    return g.indices[pos], lens


def _row_entries(g: ExplicitGraph, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the vertices vs, each its lower half then its upper
    half, concatenated, and their lengths."""
    halves = np.repeat(vs, 2)
    halves[::2] += g.n + 1
    entries, lens = _half_row_entries(g, halves)
    return entries, lens[::2] + lens[1::2]


def _degrees(g: ExplicitGraph, vs: np.ndarray) -> np.ndarray:
    """The degrees of the vertices vs: the lengths of their two halves."""
    ptr, low = g.indptr, vs + (g.n + 1)
    return ptr[vs + 1] - ptr[vs] + ptr[low + 1] - ptr[low]


def _add_neighbor_counts(g: ExplicitGraph, vs: np.ndarray, ends: np.ndarray, counts: np.ndarray) -> None:
    """Add to ``counts``, indexed by vertex id, each vertex's number of
    neighbours among the distinct, in-range vertices vs, reading their
    rows in the blocks of ``ends``, the running sums of their degrees."""
    for lo, hi in _spans(ends):
        np.add.at(counts, _row_entries(g, vs[lo:hi])[0], 1)


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
    # hook on local ids 0..k-1, which keep the order of the vertex ids;
    # each edge is read once, from its upper half, one block of rows at a time
    local = np.zeros(g.n + 1, dtype=np.int64)
    local[verts] = np.arange(len(verts))
    ends = g.indptr[verts + 1]  # the upper halves' lengths, then their running sums
    ends -= g.indptr[verts]
    us, ws = [], []
    for lo, hi in _spans(np.cumsum(ends, out=ends)):
        above, lens = _half_row_entries(g, verts[lo:hi])
        keep = inside[above]
        us.append(np.repeat(np.arange(lo, hi), lens)[keep])
        ws.append(local[above[keep]])
    del local, ends
    us, ws = np.concatenate(us), np.concatenate(ws)
    root = np.arange(len(verts))
    ru, rw = us, ws  # every vertex is its own root, so every edge joins two
    while len(us):
        root[np.maximum(ru, rw)] = np.minimum(ru, rw)  # any smaller partner will do
        # jump only the labels that still move; a root never moves
        moving = np.flatnonzero(root[root] != root)
        while len(moving):
            up = root[root[moving]]
            root[moving] = up
            moving = moving[root[up] != up]
        ru, rw = root[us], root[ws]
        # an edge inside one component stays inside it
        split = ru != rw
        us, ws, ru, rw = us[split], ws[split], ru[split], rw[split]
    sizes = np.bincount(root)
    best = int(np.argmax(sizes))  # the first maximum: smallest label
    return ComponentSummary(
        component_count=int(np.count_nonzero(sizes)),
        largest_size=int(sizes[best]),
        largest_members=verts[root == best],
    )


def count_neighbors_in(g: ExplicitGraph, target_set) -> np.ndarray:
    """Exact per-vertex count of neighbours inside ``target_set``.

    Returns an array indexed by vertex id (entry 0 unused).
    """
    counts = np.zeros(g.n + 1, dtype=np.int64)
    vs = np.flatnonzero(_vertex_mask(target_set, g.n, "target vertex"))
    _add_neighbor_counts(g, vs, np.cumsum(_degrees(g, vs)), counts)
    return counts
