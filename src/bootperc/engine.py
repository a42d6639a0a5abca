"""Bootstrap percolation engines.

Two interchangeable forms of the same process:

* :func:`run_direct`: the fixed-point definition on an explicit graph:
  sweep generations until no uninfected vertex has r infected neighbours,
  each generation one ``bincount`` over the rows of the vertices it
  infected.  This is the oracle form.

* :func:`run_process`: the examine-one-vertex reformulation: at step t
  the smallest unexamined infected vertex is examined and its edges to
  all not-yet-examined vertices are revealed.  A vertex outside the seed
  set becomes infected once its revealed-neighbour counter reaches r.
  The run stops at the first step T where the examined set has caught the
  infected set.  On an explicit graph (an :class:`ExplicitGraph`) the
  edges are read one examined vertex at a time, as a row of its CSR
  arrays.  The examination order only matters for what a run records
  (|A(t)| up to its size horizon, and its checkpoints); the final set is
  the r-closure of the seeds whatever the order.  So an uncapped explicit
  run with a size horizon steps only through its recorded window and then
  finishes with the generation sweep of :func:`run_direct`, started from
  A(t).  On an implicit G(n,p) (an :class:`ImplicitSource`) the process
  is not stepped at all: an uninfected vertex meets one fresh Bernoulli(p)
  pair per step, so infection steps are i.i.d. r-th success times (the
  reduction of Janson, Luczak, Turova and Vallier), and the engine walks
  them in blocks.  An implicit run keeps counts only, no per-vertex
  state: it takes no checkpoints, its seeds are the prefix {1..a}, and it
  reports the final size but not the final set.  A capped or subcritical
  implicit run does no O(n) work, which is what lets n reach 10^9 in the
  critical window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import ExplicitGraph, _neighbor_counts
from .rng import make_generator
from .thresholds import DegenerateRegime, ProcessParams, binom_tail_geq, log_binom_lower

# a run's classification, the one vocabulary of runs and experiment counts
CLASS_STOPPED = "Stopped"  # stopped below the almost-percolation threshold
CLASS_ALMOST = "AlmostPercolated"  # stopped with final size >= threshold * n
CLASS_CENSORED = "Censored"  # run hit a step cap before stopping


@dataclass(frozen=True)
class SeedSpec:
    """Initially infected vertices.  By default the a smallest ids
    {1,...,a}; explicit membership is allowed for fixture graphs."""

    a: int
    members: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.members is None:
            return
        members = tuple(sorted(set(int(v) for v in self.members)))
        if members and members[0] < 1:
            raise ValueError("seed members outside 1..n")
        if self.a != len(members):
            raise ValueError(f"seed count a={self.a} but {len(members)} distinct members")
        # the engine takes the members as a sorted heap of distinct ids
        object.__setattr__(self, "members", members)

    @classmethod
    def prefix(cls, a: int) -> "SeedSpec":
        return cls(a=a)

    @classmethod
    def of(cls, members) -> "SeedSpec":
        ms = set(int(v) for v in members)
        return cls(a=len(ms), members=tuple(ms))

    def _check(self, n: int) -> None:
        if not (0 <= self.a <= n):
            raise ValueError(f"seed count a={self.a} outside 0..{n}")
        if self.members and self.members[-1] > n:
            raise ValueError("seed members outside 1..n")

    def resolve(self, n: int) -> tuple[int, ...]:
        self._check(n)
        if self.members is None:
            return tuple(range(1, self.a + 1))
        return self.members

    def _prefix_size(self) -> int:
        """a for the seeds {1..a}, without building them; ValueError for
        any other seed set."""
        if self.members is None:
            return self.a
        if any(v != k for k, v in enumerate(self.members, 1)):
            raise ValueError("implicit runs take the prefix seeds {1..a} only")
        return len(self.members)


@dataclass(frozen=True)
class TraceOptions:
    """Instrumentation knobs for :func:`run_process`.

    checkpoints: steps at which to snapshot counters and set membership;
        explicit runs only (an implicit run holds no per-vertex state).
    max_steps: hard cap on examined steps; a capped run is "Censored".
    size_horizon: record |A(t)| only for t <= horizon (the run itself
        continues); None records the whole trajectory.  An uncapped
        explicit run with a horizon stops stepping once it is past the
        horizon and every checkpoint, and finishes by closure.
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
    final_infected: np.ndarray | None  # sorted infected ids when the run ended; None for implicit runs
    counters_at: dict[int, Checkpoint]
    classification: str
    bernoulli_draws: int  # implicit mode: pairs accounted, sum over steps of (n - t), plus stage draws


class ImplicitSource:
    """An implicit G(n,p): a generator plus the count of pairs accounted.

    :func:`run_process` walks infection times with ``rng`` instead of
    revealing pairs (see the module docstring); it adds the pairs the
    examine-one-vertex process would have revealed, sum over steps t of
    (n - t), to ``bernoulli_draws``.  The stage pipeline draws pairs the
    process never reveals through :meth:`pair_block_has_edge` and
    :meth:`count_into`, which take set sizes, return counts and count
    their pairs as well.
    """

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

    def pair_block_has_edge(self, size_a: int, size_b: int) -> bool:
        """Whether any of the size_a * size_b pairs between two disjoint
        sets is an edge."""
        k = size_a * size_b
        if k == 0:
            return False
        self.bernoulli_draws += k
        return bool(self.rng.binomial(k, self.params.p) > 0)

    def count_into(self, pool: int, targets: int, r: int) -> int:
        """How many of ``pool`` vertices have at least r neighbours among
        ``targets`` other vertices."""
        if pool == 0 or targets == 0:
            return 0
        self.bernoulli_draws += pool * targets
        return int(self.rng.binomial(pool, binom_tail_geq(targets, self.params.p, r)))


EdgeSource = ExplicitGraph | ImplicitSource


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
    generations = _close(g, infected, r)
    return frozenset(np.flatnonzero(infected).tolist()), generations


def _close(g: ExplicitGraph, infected: np.ndarray, r: int) -> int:
    """Grow the mask ``infected`` (ids 0..n) in place to its r-closure on
    g, one generation at a time: every uninfected vertex with at least r
    infected neighbours joins.  The neighbour counts start from one
    ``bincount`` over the infected rows and then add the rows of each
    generation's joins.  Returns the number of productive generations."""
    counts = _neighbor_counts(g, np.flatnonzero(infected))
    generations = 0
    while True:
        joins = np.flatnonzero((counts >= r) & ~infected)
        if not len(joins):
            return generations
        generations += 1
        infected[joins] = True
        counts += _neighbor_counts(g, joins)


def run_process(
    source: EdgeSource,
    seed: SeedSpec,
    r: int,
    opts: TraceOptions = TraceOptions(),
) -> PercolationTrace:
    """Examine-one-vertex process; see the module docstring.

    On an explicit graph, counters are kept for every not-yet-examined
    vertex, including infected-but-unexamined ones (the stage diagnostics
    read them at a checkpoint); a vertex's counter freezes once it is
    examined.  An implicit run raises ValueError for checkpoints and for
    seeds other than the prefix {1..a}.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = source.n
    if isinstance(source, ImplicitSource):
        seed._check(n)
        if opts.checkpoints:
            raise ValueError("implicit runs take no checkpoints; use an explicit graph")
        a = seed._prefix_size()
        steps, sizes, final_size = _walk_infection_times(source, a, r, opts)
        final_infected, checkpoints = None, {}
        source.bernoulli_draws += steps * n - steps * (steps + 1) // 2
        draws = source.bernoulli_draws
    else:
        seeds = seed.resolve(n)
        a = len(seeds)
        steps, sizes, final_infected, checkpoints = _examine_graph(source, seeds, r, opts)
        final_size, draws = len(final_infected), 0
    censored = final_size > steps
    if censored:
        classification = CLASS_CENSORED
    elif final_size >= opts.percolation_threshold * n:
        classification = CLASS_ALMOST
    else:
        classification = CLASS_STOPPED
    return PercolationTrace(
        a=a,
        n=n,
        r=r,
        infected_sizes=np.asarray(sizes, dtype=np.int64),
        T=None if censored else steps,
        final_size=final_size,
        final_infected=final_infected,
        counters_at=checkpoints,
        classification=classification,
        bernoulli_draws=draws,
    )


def _examine_graph(g: ExplicitGraph, seeds, r: int, opts: TraceOptions):
    """The process on a materialised graph, one examined vertex per step.

    An uncapped run with a size horizon steps only until it has recorded
    |A(t)| up to the horizon and taken every checkpoint, then finishes
    with :func:`_close` on A(t): closure(A(t)) = closure(seeds), and an
    uncapped run stops at T = |final set|.  A capped run steps to its cap,
    since the set infected at the cap depends on the order.

    Returns (steps taken, recorded sizes, sorted final infected ids,
    checkpoints).
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    # hot loop works on plain lists and bytearrays; numpy only for rows and
    # at snapshots
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
    stop = max_steps
    if max_steps is None and horizon is not None:
        stop = max((horizon, *opts.checkpoints))
    sizes = [len(seeds)]
    infected_count = len(seeds)
    t = 0
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap and (stop is None or t < stop):
        u = heappop(heap)
        t += 1
        examined[u] = 1
        examined_order.append(u)

        for v in indices[indptr[u] : indptr[u + 1]].tolist():
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

    final_mask = np.frombuffer(infected, dtype=bool)
    if heap and max_steps is None:
        _close(g, final_mask, r)
        t = int(np.count_nonzero(final_mask))
    final = np.flatnonzero(final_mask).astype(np.int64)
    return t, sizes, final, checkpoints


def _walk_infection_times(source: ImplicitSource, a: int, r: int, opts: TraceOptions):
    """The implicit process as a walk over infection times.

    While a non-seed is uninfected it meets one fresh Bernoulli(p) pair per
    step, so its infection step is an i.i.d. r-th success time Y and
    |A(t)| = a + #{v : Y_v <= t} up to T.  The process cannot stop before
    step |A(H)|, so the walk jumps from H to H' = min(|A(H)|, cap) and
    draws the infections in (H, H'] as one binomial over the uninfected
    non-seeds, each of which survives to step s with P[Bin(s, p) < r].
    Infection steps inside a block are drawn (by inverse CDF) only while
    the size record needs them.

    Returns (steps taken, recorded sizes, final size).
    """
    rng, p = source.rng, source.params.p
    cap = source.n if opts.max_steps is None else opts.max_steps
    timed_until = source.n if opts.size_horizon is None else opts.size_horizon
    live = source.n - a  # uninfected non-seeds
    steps_drawn: list[np.ndarray] = []  # infection steps of timed blocks
    h, size = 0, a
    while size > h and h < cap:
        h2 = min(size, cap)
        if live:
            # survival to each step of the block when its steps are drawn,
            # else to its two ends only
            timed = h < timed_until
            log_s = log_binom_lower(np.arange(h, h2 + 1) if timed else np.array([h, h2]), p, r)
            m = int(rng.binomial(live, -math.expm1(log_s[-1] - log_s[0])))
            if m and timed:
                steps_drawn.append(_infection_steps(rng, h, log_s, m))
            live -= m
            size += m
        h = h2
    last = h if opts.size_horizon is None else min(h, opts.size_horizon)
    drawn = np.concatenate(steps_drawn) if steps_drawn else np.empty(0, dtype=np.int64)
    sizes = a + np.cumsum(np.bincount(drawn, minlength=last + 1)[: last + 1])
    return h, sizes, size


def _infection_steps(rng: np.random.Generator, h: int, log_s: np.ndarray, m: int) -> np.ndarray:
    """m i.i.d. steps in (h, h2] with law P[Y = s | h < Y <= h2], from
    the log survivals at h..h2."""
    cdf = -np.expm1(log_s[1:] - log_s[0])  # P[Y <= s | Y > h], s = h+1..h2
    u = rng.random(m) * cdf[-1]
    u.sort()  # sorted keys make the search cache-friendly
    return h + 1 + np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def martingale_series(trace: PercolationTrace, params: ProcessParams) -> np.ndarray:
    """Normalised zero-drift series M(t) for each recorded t of a trace.

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
    return (trace.infected_sizes - a - (n - a) * pi) / np.exp(log_s)


def write_trace_csv(trace: PercolationTrace, params: ProcessParams, path) -> None:
    """Trace export: columns t, infected_size, martingale_value."""
    series = martingale_series(trace, params)
    with open(path, "w") as fh:
        fh.write("t,infected_size,martingale_value\n")
        for t, (size, m) in enumerate(zip(trace.infected_sizes.tolist(), series.tolist())):
            fh.write(f"{t},{size},{m:.12g}\n")
