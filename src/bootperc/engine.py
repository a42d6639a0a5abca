"""Bootstrap percolation engines.

Two interchangeable forms of the same process:

* :func:`run_direct`: the fixed-point definition on an explicit graph:
  sweep generations until no uninfected vertex has r infected neighbours.
  This is the oracle form.

* :func:`run_process`: the examine-one-vertex reformulation: at step t
  the smallest unexamined infected vertex is examined and its edges to
  all not-yet-examined vertices are revealed.  A vertex outside the seed
  set becomes infected once its revealed-neighbour counter reaches r.
  The run stops at the first step T where the examined set has caught the
  infected set.  On an explicit graph the edges are read one examined
  vertex at a time.  On an implicit G(n,p) the process is not stepped at
  all: an uninfected vertex meets one fresh Bernoulli(p) pair per step,
  so infection steps are i.i.d. r-th success times (the reduction of
  Janson, Luczak, Turova and Vallier), and the engine walks them in
  blocks, drawing per-vertex state only at checkpoints.  A capped or
  subcritical implicit run does no O(n) work, which is what lets n reach
  10^9 in the critical window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import ExplicitGraph
from .rng import make_generator
from .thresholds import DegenerateRegime, ProcessParams, log_binom_lower

CLASS_STOPPED = "Stopped"
CLASS_ALMOST = "AlmostPercolated"
CLASS_CENSORED = "Censored"  # run hit a step cap before stopping


@dataclass(frozen=True)
class SeedSpec:
    """Initially infected vertices.  By default the a smallest ids
    {1,...,a}; explicit membership is allowed for fixture graphs."""

    a: int
    members: tuple[int, ...] | None = None

    @classmethod
    def prefix(cls, a: int) -> "SeedSpec":
        return cls(a=a)

    @classmethod
    def of(cls, members) -> "SeedSpec":
        ms = tuple(sorted(set(int(v) for v in members)))
        return cls(a=len(ms), members=ms)

    def resolve(self, n: int) -> tuple[int, ...]:
        if not (0 <= self.a <= n):
            raise ValueError(f"seed count a={self.a} outside 0..{n}")
        if self.members is None:
            return tuple(range(1, self.a + 1))
        if self.members and not (1 <= self.members[0] and self.members[-1] <= n):
            raise ValueError("seed members outside 1..n")
        return self.members


@dataclass(frozen=True)
class TraceOptions:
    """Instrumentation knobs for :func:`run_process`.

    checkpoints: steps at which to snapshot counters and set membership.
    max_steps: hard cap on examined steps; a capped run is "Censored".
    size_horizon: record |A(t)| only for t <= horizon (the run itself
        continues); None records the whole trajectory.
    percolation_threshold: fraction of n at which a finished run counts
        as almost-percolated.
    """

    checkpoints: tuple[int, ...] = ()
    max_steps: int | None = None
    size_horizon: int | None = None
    percolation_threshold: float = 0.9


@dataclass(frozen=True)
class Checkpoint:
    """Snapshot of the run state after step t."""

    t: int
    counters: np.ndarray  # neighbours-in-Z count per vertex id
    examined: np.ndarray  # u(1..t) in examination order
    infected: np.ndarray  # sorted infected ids at step t


@dataclass(frozen=True)
class PercolationTrace:
    a: int
    n: int
    r: int
    infected_sizes: np.ndarray  # |A(t)| for t = 0..min(T, horizon)
    T: int | None  # None when max_steps hit before the process stopped
    final_size: int
    final_infected: np.ndarray  # sorted infected ids when the run ended
    counters_at: dict[int, Checkpoint]
    classification: str
    bernoulli_draws: int  # implicit mode: pairs accounted, sum over steps of (n - t), plus stage draws


@dataclass(frozen=True)
class MartingaleSeries:
    values: np.ndarray  # M(t) for each recorded t


class ExplicitSource:
    """Edges read from a materialised graph."""

    mode = "explicit"

    def __init__(self, graph: ExplicitGraph, p: float | None = None):
        self.graph = graph
        self.p = p  # informational; explicit edges come from the graph

    @property
    def n(self) -> int:
        return self.graph.n


class ImplicitSource:
    """An implicit G(n,p): a generator plus the count of pairs accounted.

    :func:`run_process` walks infection times with ``rng`` instead of
    revealing pairs (see the module docstring); it adds the pairs the
    examine-one-vertex process would have revealed, sum over steps t of
    (n - t), to ``bernoulli_draws``.  The stage pipeline draws pairs the
    process never reveals through :meth:`pair_block_has_edge` and
    :meth:`count_into`, which count their pairs as well.
    """

    mode = "implicit"

    def __init__(
        self,
        params: ProcessParams,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ):
        self.params = params
        self.rng = rng if rng is not None else make_generator(seed)
        self.bernoulli_draws = 0

    @property
    def n(self) -> int:
        return self.params.n

    # --- fresh draws for the stage pipeline (pairs never touched by the
    # --- engine, which only reveals pairs with an examined endpoint)

    def pair_block_has_edge(self, set_a, set_b) -> bool:
        k = len(set_a) * len(set_b)
        if k == 0:
            return False
        self.bernoulli_draws += k
        return bool(self.rng.binomial(k, self.params.p) > 0)

    def count_into(self, pool, targets) -> np.ndarray:
        """Neighbour counts of each pool vertex inside ``targets``."""
        self.bernoulli_draws += len(pool) * len(targets)
        return self.rng.binomial(len(targets), self.params.p, size=len(pool)).astype(np.int64)


EdgeSource = ExplicitSource | ImplicitSource


def run_direct(g: ExplicitGraph, seed_set, r: int) -> tuple[frozenset[int], int]:
    """Fixed-point sweep: returns (final infected set, productive
    generations).  A generation is productive when it infects at least
    one vertex; a seed set that is already a fixed point reports 0."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    seeds = sorted(set(int(v) for v in seed_set))
    if seeds and not (1 <= seeds[0] and seeds[-1] <= g.n):
        raise ValueError("seed set outside 1..n")
    infected = np.zeros(g.n + 1, dtype=bool)
    infected[seeds] = True
    counts = np.zeros(g.n + 1, dtype=np.int64)
    frontier = seeds
    generations = 0
    while frontier:
        crossed = []
        for u in frontier:
            for v in g.adj[u]:
                if not infected[v]:
                    counts[v] += 1
                    if counts[v] == r:
                        crossed.append(v)
        joins = [v for v in crossed if not infected[v]]
        if not joins:
            break
        generations += 1
        infected[joins] = True
        frontier = joins
    return frozenset(np.flatnonzero(infected).tolist()), generations


def run_process(
    source: EdgeSource,
    seed: SeedSpec,
    r: int,
    opts: TraceOptions = TraceOptions(),
) -> PercolationTrace:
    """Examine-one-vertex process; see the module docstring.

    Counters are kept for every not-yet-examined vertex, including
    infected-but-unexamined ones (the stage diagnostics read them); a
    vertex's counter freezes once it is examined.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = source.n
    seeds = seed.resolve(n)
    if isinstance(source, ImplicitSource):
        walk = _InfectionWalk(source, np.array(seeds, dtype=np.int64), r, opts)
        steps, sizes, final_infected, checkpoints = walk.run()
        source.bernoulli_draws += steps * n - steps * (steps + 1) // 2
    else:
        steps, sizes, final_infected, checkpoints = _examine_graph(source.graph, seeds, r, opts)
    final_size = len(final_infected)
    censored = final_size > steps
    if censored:
        classification = CLASS_CENSORED
    elif final_size >= opts.percolation_threshold * n:
        classification = CLASS_ALMOST
    else:
        classification = CLASS_STOPPED
    return PercolationTrace(
        a=len(seeds),
        n=n,
        r=r,
        infected_sizes=np.asarray(sizes, dtype=np.int64),
        T=None if censored else steps,
        final_size=final_size,
        final_infected=final_infected,
        counters_at=checkpoints,
        classification=classification,
        bernoulli_draws=getattr(source, "bernoulli_draws", 0),
    )


def _examine_graph(g: ExplicitGraph, seeds, r: int, opts: TraceOptions):
    """The process on a materialised graph, one examined vertex per step.

    Returns (steps taken, recorded sizes, sorted final infected ids,
    checkpoints).
    """
    n = g.n
    adj = g.adj
    # hot loop works on plain lists and bytearrays; numpy only at snapshots
    infected = bytearray(n + 1)
    for v in seeds:
        infected[v] = 1
    examined = bytearray(n + 1)
    counters = [0] * (n + 1)
    heap = list(seeds)  # already sorted, a valid min-heap

    want_checkpoint = set(opts.checkpoints)
    checkpoints: dict[int, Checkpoint] = {}
    examined_order: list[int] = []
    horizon = opts.size_horizon
    max_steps = opts.max_steps
    sizes = [len(seeds)]
    infected_count = len(seeds)
    t = 0
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap:
        if max_steps is not None and t >= max_steps:
            break
        u = heappop(heap)
        t += 1
        examined[u] = 1
        examined_order.append(u)

        for v in adj[u]:
            if examined[v]:
                continue
            c = counters[v] + 1
            counters[v] = c
            if c == r and not infected[v]:
                infected[v] = 1
                infected_count += 1
                heappush(heap, v)

        if horizon is None or t <= horizon:
            sizes.append(infected_count)
        if t in want_checkpoint:
            checkpoints[t] = Checkpoint(
                t=t,
                counters=np.array(counters, dtype=np.int64),
                examined=np.array(examined_order, dtype=np.int64),
                infected=np.flatnonzero(
                    np.frombuffer(bytes(infected), dtype=np.uint8)
                ).astype(np.int64),
            )

    final = np.flatnonzero(np.frombuffer(bytes(infected), dtype=np.uint8)).astype(np.int64)
    return t, sizes, final, checkpoints


def _cat(arrays) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)


class _InfectionWalk:
    """The implicit process as a walk over infection times.

    While a non-seed is uninfected it meets one fresh Bernoulli(p) pair per
    step, so its infection step is an i.i.d. r-th success time Y and
    |A(t)| = a + #{v : Y_v <= t} up to T.  The process cannot stop before
    step |A(H)|, so the walk jumps from H to H' = min(|A(H)|, cap, next
    checkpoint) and draws the infections in (H, H'] as one binomial per
    pool of uninfected vertices.  Infection steps inside a block are drawn
    (by inverse CDF) only while the size record or a checkpoint needs them;
    vertex ids only when a checkpoint or the final set asks for them.

    A pool holds the uninfected non-seeds that still needed k hits at step
    ``base``; each survives to step s with P[Bin(s - base, p) < k].  Before
    the first checkpoint there is one pool (k = r, base = 0) without ids.
    A checkpoint draws every uninfected counter, regroups the pools by
    counter value with shuffled ids, and after it infections take the
    tail of a pool, a uniform subset.
    """

    def __init__(self, source: ImplicitSource, seeds: np.ndarray, r: int, opts: TraceOptions):
        self.rng = source.rng
        self.p = source.params.p
        self.n = source.n
        self.r = r
        self.opts = opts
        self.seeds = seeds
        # [hits still needed, base step, shuffled ids or None, live size]
        self.pools: list[list] = [[r, 0, None, self.n - len(seeds)]]
        self.steps_drawn: list[np.ndarray] = []  # infection steps of timed blocks
        self.unassigned = 0  # infected non-seeds still without ids
        # after the first checkpoint: infected vertices, seeds included, as
        # ids, infection steps (0 for seeds), counters and the step each
        # counter refers to; and the infections since the last checkpoint
        self.marks: tuple[np.ndarray, ...] | None = None
        self.fresh_ids: list[np.ndarray] = []
        self.fresh_steps: list[np.ndarray | None] = []

    def run(self):
        opts = self.opts
        cap = self.n if opts.max_steps is None else opts.max_steps
        pending = sorted(c for c in set(opts.checkpoints) if c >= 1)
        timed_until = max([*pending, self.n if opts.size_horizon is None else opts.size_horizon])
        checkpoints: dict[int, Checkpoint] = {}
        h, size = 0, len(self.seeds)
        while size > h and h < cap:
            h2 = min(size, cap, pending[0] if pending else cap)
            size += self._block(h, h2, timed=h < timed_until)
            h = h2
            if pending and pending[0] == h:
                checkpoints[h] = self._checkpoint(pending.pop(0))
        last = h if opts.size_horizon is None else min(h, opts.size_horizon)
        counts = np.bincount(_cat(self.steps_drawn), minlength=last + 1)[: last + 1]
        sizes = len(self.seeds) + np.cumsum(counts)
        return h, sizes, self._final_infected(), checkpoints

    def _block(self, h: int, h2: int, timed: bool) -> int:
        """Infect the uninfected non-seeds whose infection step falls in
        (h, h2]; returns how many."""
        total = 0
        for pool in self.pools:
            k, base, ids, live = pool
            if live == 0:
                continue
            # survival to each step of the block when its steps are drawn,
            # else to its two ends only
            span = np.arange(h, h2 + 1) if timed else np.array([h, h2])
            log_s = log_binom_lower(span - base, self.p, k)
            m = int(self.rng.binomial(live, -math.expm1(log_s[-1] - log_s[0])))
            if m == 0:
                continue
            steps = self._infection_steps(h, log_s, m) if timed else None
            if steps is not None:
                self.steps_drawn.append(steps)
            pool[3] = live - m
            total += m
            if ids is None:
                self.unassigned += m
            else:
                self.fresh_ids.append(ids[live - m : live])
                self.fresh_steps.append(steps)
        return total

    def _infection_steps(self, h: int, log_s: np.ndarray, m: int) -> np.ndarray:
        """m i.i.d. steps in (h, h2] with law P[Y = s | h < Y <= h2], from
        the log survivals at h..h2, in ascending order (callers pair them
        with ids in random order)."""
        cdf = -np.expm1(log_s[1:] - log_s[0])  # P[Y <= s | Y > h], s = h+1..h2
        u = self.rng.random(m) * cdf[-1]
        u.sort()  # sorted keys make the search cache-friendly
        return h + 1 + np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)

    def _assign_ids(self) -> np.ndarray:
        """Ids for the infected non-seeds that have none yet: a uniform
        sample of positions in the sorted non-seed set, mapped onto ids."""
        idx = self.rng.choice(self.n - len(self.seeds), size=self.unassigned, replace=False)
        gaps = self.seeds - 1 - np.arange(len(self.seeds))  # non-seeds below each seed
        return idx + 1 + np.searchsorted(gaps, idx, side="right")

    def _final_infected(self) -> np.ndarray:
        if self.marks is None:
            return np.sort(np.concatenate([self.seeds, self._assign_ids()]))
        return np.sort(np.concatenate([self.marks[0], *self.fresh_ids]))

    def _checkpoint(self, c: int) -> Checkpoint:
        """Draw the per-vertex state after step c; later blocks continue
        from it with the same joint law."""
        rng, r, p = self.rng, self.r, self.p
        if self.marks is None:
            # so far every drawn step belongs to a vertex without an id
            a = len(self.seeds)
            steps = _cat(self.steps_drawn)
            ids = np.concatenate([self.seeds, self._assign_ids()])
            step = np.concatenate([np.zeros(a, dtype=np.int64), steps])
            count = np.concatenate([np.zeros(a, dtype=np.int64), np.full(len(steps), r)])
            as_of = step.copy()
            rest = np.ones(self.n + 1, dtype=bool)
            rest[0] = False
            rest[ids] = False
            groups = [(r, 0, np.flatnonzero(rest))]
            self.unassigned = 0
        else:
            ids, step, count, as_of = self.marks
            new_steps = _cat(self.fresh_steps)
            ids = np.concatenate([ids, *self.fresh_ids])
            step = np.concatenate([step, new_steps])
            count = np.concatenate([count, np.full(len(new_steps), r)])
            as_of = np.concatenate([as_of, new_steps])
            groups = [(k, base, pool_ids[:live]) for k, base, pool_ids, live in self.pools]
            self.fresh_ids, self.fresh_steps = [], []

        examined = _replay_examinations(ids, step, c)
        # infected and seed counters gain Bin(., p) hits until examined
        order = np.argsort(ids)
        exam_step = np.full(len(ids), c + 1, dtype=np.int64)
        exam_step[order[np.searchsorted(ids[order], examined)]] = np.arange(1, c + 1)
        grow = np.maximum(np.minimum(exam_step - 1, c) - as_of, 0)
        count = count + rng.binomial(grow, p)
        as_of = np.full(len(ids), c, dtype=np.int64)
        self.marks = (ids, step, count, as_of)

        # uninfected counters: j + Bin(c - base, p) given it stayed below r
        counters = np.zeros(self.n + 1, dtype=np.int64)
        for k, base, members in groups:
            # P[Bin(s, p) <= x | Bin(s, p) < k] = S_{x+1}(s) / S_k(s), x < k
            log_s = [log_binom_lower(c - base, p, x + 1) for x in range(k)]
            cdf = np.exp(np.array(log_s) - log_s[-1])
            x = np.minimum(np.searchsorted(cdf, rng.random(len(members)), side="right"), k - 1)
            counters[members] = (r - k) + x
        uninfected = _cat([g[2] for g in groups])
        values = counters[uninfected]
        self.pools = []
        for j in range(r):
            pool_ids = rng.permutation(uninfected[values == j])
            self.pools.append([r - j, c, pool_ids, len(pool_ids)])
        counters[ids] = count
        return Checkpoint(t=c, counters=counters, examined=examined, infected=np.sort(ids))


def _replay_examinations(ids: np.ndarray, steps: np.ndarray, c: int) -> np.ndarray:
    """Vertices examined at steps 1..c by the smallest-id rule: step s
    examines the smallest unexamined id among those infected by step s-1."""
    order = np.lexsort((ids, steps))
    ready = np.searchsorted(steps[order], np.arange(c), side="right").tolist()
    queue = ids[order].tolist()
    heap: list[int] = []
    examined = []
    i = 0
    for s in range(c):
        for v in queue[i : ready[s]]:
            heapq.heappush(heap, v)
        i = ready[s]
        examined.append(heapq.heappop(heap))
    return np.array(examined, dtype=np.int64)


def martingale_series(trace: PercolationTrace, params: ProcessParams) -> MartingaleSeries:
    """Normalised zero-drift series for a recorded trace.

    Inverts the infected-count identity
    |A(t)| = a + M(t) (1 - pi(t)) + (n - a) pi(t),
    with pi evaluated at min(t, T); within the run (t <= T) this is the
    plain binomial tail pi_hat(t).
    """
    a, n = trace.a, trace.n
    t = np.arange(len(trace.infected_sizes))
    if trace.T is not None:
        t = np.minimum(t, trace.T)
    log_s = log_binom_lower(t, params.p, trace.r)
    pi = np.clip(-np.expm1(log_s), 0.0, 1.0)
    if np.any(pi >= 1.0):
        bad = int(t[np.argmax(pi >= 1.0)])
        raise DegenerateRegime(f"pi_hat({bad}) = 1; martingale values diverge")
    return MartingaleSeries(values=(trace.infected_sizes - a - (n - a) * pi) / np.exp(log_s))


def write_trace_csv(trace: PercolationTrace, params: ProcessParams, path) -> None:
    """Trace export: columns t, infected_size, martingale_value."""
    series = martingale_series(trace, params)
    with open(path, "w") as fh:
        fh.write("t,infected_size,martingale_value\n")
        for t, (size, m) in enumerate(zip(trace.infected_sizes.tolist(), series.values.tolist())):
            fh.write(f"{t},{size},{m:.12g}\n")
