"""Materialised G(n,p) sampling and component analysis.

Vertices are 1-based.  Graphs are immutable after construction; all read
operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_generator


@dataclass(frozen=True)
class ExplicitGraph:
    """Adjacency-list graph on vertices 1..n.  ``adj[0]`` is unused.

    Neighbour lists are sorted ascending, symmetric, loop-free and
    duplicate-free.
    """

    n: int
    adj: list[list[int]]

    @property
    def edge_count(self) -> int:
        return sum(len(lst) for lst in self.adj) // 2


@dataclass(frozen=True)
class ComponentSummary:
    component_count: int
    largest_size: int
    largest_members: tuple[int, ...] | None = None


def from_edges(n: int, edges) -> ExplicitGraph:
    """Build a graph from (u, v) pairs; symmetrises and sorts."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) outside 1..{n}")
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
        for i in range(1, len(lst)):
            if lst[i] == lst[i - 1]:
                raise ValueError(f"duplicate edge involving vertex {lst[i]}")
    return ExplicitGraph(n=n, adj=adj)


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
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    if p <= 0.0 or n == 1:
        return ExplicitGraph(n=n, adj=adj)
    if p >= 1.0:
        for u in range(1, n + 1):
            adj[u] = [v for v in range(1, n + 1) if v != u]
        return ExplicitGraph(n=n, adj=adj)
    idxs = _sample_edge_indices(n, p, rng)
    us, vs = _unrank_pairs(idxs, n)
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return ExplicitGraph(n=n, adj=adj)


def sample_gnp(n: int, p: float, seed: int) -> ExplicitGraph:
    """G(n,p): every one of the C(n,2) pairs present independently with
    probability p.  Deterministic for fixed (n, p, seed).

    Memory is proportional to the edge count; as a rule of thumb keep
    n^2 p below 1e8.
    """
    return sample_gnp_with(n, p, make_generator(seed))


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1


def largest_component(
    g: ExplicitGraph,
    subset=None,
    include_members: bool = False,
) -> ComponentSummary:
    """Largest connected component, optionally restricted to the induced
    subgraph on ``subset`` (edges with both endpoints inside)."""
    if subset is None:
        verts = list(range(1, g.n + 1))
        in_subset = None
    else:
        verts = sorted(int(v) for v in set(subset))
        if verts and not (1 <= verts[0] and verts[-1] <= g.n):
            raise ValueError("subset contains vertices outside 1..n")
        in_subset = np.zeros(g.n + 1, dtype=bool)
        in_subset[verts] = True
    if not verts:
        return ComponentSummary(0, 0, () if include_members else None)
    index = {v: i for i, v in enumerate(verts)}
    uf = UnionFind(len(verts))
    for v in verts:
        for w in g.adj[v]:
            if w > v and (in_subset is None or in_subset[w]):
                uf.union(index[v], index[w])
    sizes: dict[int, int] = {}
    for i in range(len(verts)):
        root = uf.find(i)
        sizes[root] = sizes.get(root, 0) + 1
    best_root = max(sizes, key=lambda rt: (sizes[rt], -rt))
    members = None
    if include_members:
        members = tuple(v for i, v in enumerate(verts) if uf.find(i) == best_root)
    return ComponentSummary(
        component_count=len(sizes),
        largest_size=sizes[best_root],
        largest_members=members,
    )


def count_neighbors_in(g: ExplicitGraph, target_set) -> np.ndarray:
    """Exact per-vertex count of neighbours inside ``target_set``.

    Returns an array indexed by vertex id (entry 0 unused).
    """
    counts = np.zeros(g.n + 1, dtype=np.int64)
    for v in set(target_set):
        if not (1 <= v <= g.n):
            raise ValueError(f"target vertex {v} outside 1..{g.n}")
        for w in g.adj[v]:
            counts[w] += 1
    return counts


def write_edge_list(g: ExplicitGraph, path) -> None:
    """One ``u v`` pair per line, 1-based, u < v, sorted."""
    with open(path, "w") as fh:
        for u in range(1, g.n + 1):
            for v in g.adj[u]:
                if v > u:
                    fh.write(f"{u} {v}\n")


def read_edge_list(path, n: int) -> ExplicitGraph:
    """Inverse of :func:`write_edge_list`; the vertex count is not stored
    in the file and must be supplied."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = line.split()
            edges.append((int(u), int(v)))
    return from_edges(n, edges)
