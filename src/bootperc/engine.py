"""Bootstrap percolation engines.

Two interchangeable forms of the same process:

* :func:`run_direct`: the fixed-point definition on an explicit graph:
  sweep generations until no uninfected vertex has r infected neighbours;
  each pushes its joins' rows into the neighbour counts, or pulls the
  counts from the uninfected rows when those weigh less.  The oracle form.

* :func:`run_process`: the examine-one-vertex reformulation, from the
  seeds {1..a} (a :class:`SeedSpec`; on G(n,p) the process depends on
  its seeds only through a): at step t the smallest unexamined infected
  vertex is examined and its edges to all not-yet-examined vertices are
  revealed.  A non-seed becomes infected once its revealed-neighbour
  counter reaches r.  The run stops at the first step T where the
  examined set has caught the infected set.  On an explicit graph (an
  :class:`ExplicitGraph`) the edges are read one examined vertex at a
  time, as its lower and then its upper half row.  The examination order
  only matters for what a run records (|A(t)| up to its size horizon, and
  the order, which the stages read); the final set is the r-closure of
  the seeds whatever the order.  So an uncapped explicit run with a size horizon
  steps only through its recorded window and then finishes with the
  generation sweep of :func:`run_direct`, started from A(t).  On an
  implicit G(n,p) (an :class:`ImplicitSource`) the process is not
  stepped at all: an uninfected vertex meets one fresh Bernoulli(p) pair
  per step, so infection steps are i.i.d. r-th success times (the
  reduction of Janson, Luczak, Turova and Vallier), walked in blocks on
  plain inputs (generator, n, p, a, r, step cap, size horizon): every
  block's count, then the recorded blocks' steps from one draw.  An
  implicit run keeps counts only: it reports the final size but neither
  the examination order nor the final set.  Capped or subcritical, it
  does no O(n) work, which is what lets n reach 10^9 in the critical window.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import _BLOCK, ExplicitGraph, _add_neighbor_counts, _row_blocks, _row_entries, _vertex_mask
from .rng import make_generator
from .thresholds import DegenerateRegime, ProcessParams, log_binom_lower

# a run's classification, the one vocabulary of runs and experiment counts
CLASS_STOPPED = "Stopped"  # stopped below the almost-percolation threshold
CLASS_ALMOST = "AlmostPercolated"  # stopped with final size >= threshold * n
CLASS_CENSORED = "Censored"  # run hit a step cap before stopping


@dataclass(frozen=True)
class SeedSpec:
    """Initially infected vertices: the a smallest ids {1,...,a}.

    On G(n,p) the process depends on its seeds only through a, so both
    engines, their traces and the stages start from this prefix; the
    oracle :func:`run_direct` takes any seed set."""

    a: int

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"seed count a must be >= 0, got {self.a}")

    @classmethod
    def prefix(cls, a: int) -> "SeedSpec":
        return cls(a=a)


@dataclass(frozen=True)
class TraceOptions:
    """Instrumentation knobs for :func:`run_process`.

    max_steps: hard cap on examined steps; a capped run is "Censored".
    size_horizon: record |A(t)| only for t <= horizon; None records the
        whole trajectory.  It sets what is recorded, never how a run
        ends: T, the final size and the sizes up to the horizon are the
        same for every horizon.  An uncapped explicit run with a horizon
        stops stepping once it is past the horizon, and finishes by
        closure.
    percolation_threshold: fraction of n in (0, 1] at which a finished
        run counts as almost-percolated.
    """

    max_steps: int | None = None
    size_horizon: int | None = None
    percolation_threshold: float = 0.9

    def __post_init__(self):
        for name in ("max_steps", "size_horizon"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be None or >= 0, got {value}")
        threshold = self.percolation_threshold
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"percolation_threshold must lie in (0,1], got {threshold}")


@dataclass(frozen=True)
class PercolationTrace:
    a: int
    n: int
    r: int
    infected_sizes: np.ndarray  # |A(t)| for t = 0..min(T, horizon)
    T: int | None  # None when max_steps hit before the process stopped
    final_size: int
    final_infected: np.ndarray | None  # sorted infected ids when the run ended; None for implicit runs
    examined: np.ndarray | None  # u(1..t) for the steps taken; None for implicit runs
    classification: str
    bernoulli_draws: int  # implicit mode: this run's pairs, sum over its steps t of (n - t); else 0


class ImplicitSource:
    """An implicit G(n,p): its parameters and a generator.

    :func:`run_process` walks infection times with ``rng`` instead of
    revealing pairs (see the module docstring), and the implicit stage
    pipeline draws its sizes from the same generator.
    """

    def __init__(
        self,
        params: ProcessParams,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ):
        if params.n >= 2**63:  # numpy's binomial counts are int64
            raise ValueError(f"implicit mode needs n < 2**63, got n={params.n}")
        self.params = params
        self.rng = rng if rng is not None else make_generator(seed)

    @property
    def n(self) -> int:
        return self.params.n


EdgeSource = ExplicitGraph | ImplicitSource


def run_direct(g: ExplicitGraph, seed_set, r: int) -> tuple[frozenset[int], int]:
    """Fixed-point sweep: returns (final infected set, productive
    generations).  A generation is productive when it infects at least
    one vertex; a seed set that is already a fixed point reports 0."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    infected = _vertex_mask(seed_set, g.n, "seed")
    generations = _close(g, infected, r)
    return frozenset(np.flatnonzero(infected).tolist()), generations


def _close(g: ExplicitGraph, infected: np.ndarray, r: int) -> int:
    """Grow the mask ``infected`` (ids 0..n) in place to its r-closure on g;
    returns the productive generations.  Each generation takes the cheaper
    direction (Beamer, Asanovic and Patterson, SC 2012): it pushes its
    joins' rows into the neighbour counts while their degree sum is below
    the uninfected vertices', else pulls each uninfected count from its row
    by one ``reduceat`` over the infected flags of the rows' entries.  Both
    read the rows one block of about 2^16 entries at a time, so beside the
    graph the closure takes O(n) plus that block, whatever the rows weigh."""
    counts = np.zeros(g.n + 1, dtype=np.int64)
    _add_neighbor_counts(g, np.flatnonzero(infected), counts)
    joins = np.flatnonzero((counts >= r) & ~infected)
    degrees = np.diff(g.indptr[: g.n + 2])  # the upper halves' lengths, then the lower ones' added
    degrees += np.diff(g.indptr[g.n + 1 :])
    # degree sum of the uninfected vertices: all rows less the counted ones
    pending = int(g.indptr[-1]) - int(counts.sum())
    generations = 0
    while len(joins):
        generations += 1
        infected[joins] = True
        pushed = int(degrees[joins].sum())
        pending -= pushed
        if pushed < pending:
            _add_neighbor_counts(g, joins, counts)
            joins = np.flatnonzero((counts >= r) & ~infected)
        else:
            # nonempty rows only: reduceat gives an empty row the next row's first entry
            rest = np.flatnonzero(~infected[1:] & (degrees[1:] > 0)) + 1
            for block in _row_blocks(g, rest):
                entries, lens = _row_entries(g, block)
                counts[block] = np.add.reduceat(infected[entries], np.cumsum(lens) - lens)
            joins = rest[counts[rest] >= r]
    return generations


def run_process(
    source: EdgeSource,
    seed: SeedSpec,
    r: int,
    opts: TraceOptions = TraceOptions(),
) -> PercolationTrace:
    """Examine-one-vertex process from the seeds {1..a}; see the module docstring."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n, a = source.n, seed.a
    if a > n:
        raise ValueError(f"seed count a={a} outside 0..{n}")
    horizon = n if opts.size_horizon is None else opts.size_horizon  # a run has at most n steps
    if isinstance(source, ImplicitSource):
        if r != source.params.r:
            raise ValueError(f"r={r} differs from the implicit source's r={source.params.r}")
        cap = n if opts.max_steps is None else opts.max_steps
        steps, sizes, final_size = _walk_infection_times(source.rng, n, source.params.p, a, r, cap, horizon)
        final_infected = examined = None
        draws = steps * n - steps * (steps + 1) // 2
    else:
        steps, sizes, final_infected, examined = _examine_graph(source, a, r, opts.max_steps, horizon)
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
        examined=examined,
        classification=classification,
        bernoulli_draws=draws,
    )


def _examine_graph(g: ExplicitGraph, a: int, r: int, max_steps: int | None, horizon: int):
    """The process on a materialised graph, one examined vertex per step.

    An uncapped run steps only until it has recorded |A(t)| up to the
    horizon, then finishes with :func:`_close` on A(t): closure(A(t)) =
    closure({1..a}), and an uncapped run stops at T = |final set|.  A
    capped run steps to its cap, since the set infected at the cap
    depends on the order.

    Returns (steps taken, recorded sizes, sorted final infected ids,
    examination order of the steps taken).
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    low = indptr[n + 1 :]  # u's lower half row starts at low[u]
    # hot loop works on plain lists and bytearrays; numpy only for rows
    infected = bytearray(n + 1)
    infected[1 : a + 1] = b"\x01" * a
    counters = [0] * (n + 1)
    heap = list(range(1, a + 1))  # already sorted, a valid min-heap

    examined_order: list[int] = []
    stop = horizon if max_steps is None else max_steps
    sizes = [a]
    infected_count = a
    t = 0
    heappop, heappush = heapq.heappop, heapq.heappush

    while heap and t < stop:
        u = heappop(heap)
        t += 1
        examined_order.append(u)
        # an examined v is infected, so its counter is counted on but never read
        for v in indices[low[u] : low[u + 1]].tolist() + indices[indptr[u] : indptr[u + 1]].tolist():
            c = counters[v] + 1
            counters[v] = c
            if c == r and not infected[v]:
                infected[v] = 1
                infected_count += 1
                heappush(heap, v)

        if t <= horizon:
            sizes.append(infected_count)

    del counters  # the closure counts afresh; freed before it allocates
    final_mask = np.frombuffer(infected, dtype=bool)
    if heap and max_steps is None:
        _close(g, final_mask, r)
        t = int(np.count_nonzero(final_mask))
    final = np.flatnonzero(final_mask).astype(np.int64, copy=False)
    return t, sizes, final, np.array(examined_order, dtype=np.int64)


def _walk_infection_times(rng: np.random.Generator, n: int, p: float, a: int, r: int, cap: int, horizon: int):
    """The implicit process on G(n,p) from a seeds, walked for at most
    ``cap`` steps; |A(t)| is recorded for t <= ``horizon``.

    While a non-seed is uninfected it meets one fresh Bernoulli(p) pair per
    step, so its infection step is an i.i.d. r-th success time Y and
    |A(t)| = a + #{v : Y_v <= t} up to T.  The process cannot stop before
    step |A(H)|, so the walk jumps from H to H' = min(|A(H)|, cap) and
    draws the infections in (H, H'] as one binomial over the uninfected
    non-seeds, each of which survives to step s with P[Bin(s, p) < r].
    The walk draws every block's count first and only then, from one
    ``rng.random`` call, the infection steps of the blocks that start
    before the horizon, by inverse CDF.  Given the counts, each block's
    steps are independent of the later counts: the law is the process's,
    and the horizon changes only how long the record is.

    Returns (steps taken, recorded sizes, final size).
    """
    live = n - a  # uninfected non-seeds
    # (h, P[Y <= s | Y > h] for s in (h, min(h2, horizon)] and at h2, m)
    blocks: list[tuple[int, np.ndarray, int]] = []
    h, size = 0, a
    while size > h and h < cap:
        h2 = min(size, cap)
        if live:
            # survival to each step of the block up to the horizon when its
            # steps are drawn, and to its end; log_binom_lower is elementwise,
            # so the ends, and with them the count, are the same either way
            timed = h < horizon
            steps = np.arange(h, min(h2, horizon) + 1) if timed else np.array([h, h2])
            if timed and h2 > horizon:
                steps = np.append(steps, h2)
            log_s = log_binom_lower(steps, p, r)
            # a survival cannot rise, so a positive ratio is rounding
            m = int(rng.binomial(live, -math.expm1(min(0.0, log_s[-1] - log_s[0]))))
            if m and timed:
                blocks.append((h, -np.expm1(log_s[1:] - log_s[0]), m))
            live -= m
            size += m
        h = h2
    # each block's m steps, from its slice of one draw; a block cut at the
    # horizon ends its cdf with its end h2, so a key past the horizon
    # lands after it and is not recorded
    u = rng.random(sum(m for _, _, m in blocks))
    drawn, lo = np.empty(len(u), dtype=np.int64), 0
    for h0, cdf, m in blocks:
        keys = u[lo : lo + m] * cdf[-1]
        keys.sort()  # sorted keys make the search cache-friendly: half the time in a long block
        drawn[lo : lo + m] = h0 + 1 + np.minimum(np.searchsorted(cdf, keys, side="right"), len(cdf) - 1)
        lo += m
    last = min(h, horizon)
    sizes = a + np.cumsum(np.bincount(drawn, minlength=last + 1)[: last + 1])
    return h, sizes, size


def martingale_series(trace: PercolationTrace, p: float) -> np.ndarray:
    """Normalised zero-drift series M(t) for each recorded t of a trace
    run at edge probability p; a, n and r are the trace's own.

    Inverts the infected-count identity
    |A(t)| = a + M(t) (1 - pi(t)) + (n - a) pi(t),
    with pi evaluated at min(t, T); within the run (t <= T) this is the
    plain binomial tail pi_hat(t).
    """
    a, n = trace.a, trace.n
    t = np.arange(len(trace.infected_sizes))
    if trace.T is not None:
        t = np.minimum(t, trace.T)
    log_s = log_binom_lower(t, p, trace.r)
    pi = np.clip(-np.expm1(log_s), 0.0, 1.0)
    if np.any(pi >= 1.0):
        bad = int(t[np.argmax(pi >= 1.0)])
        raise DegenerateRegime(f"pi_hat({bad}) = 1; martingale values diverge")
    return (trace.infected_sizes - a - (n - a) * pi) / np.exp(log_s)


def write_trace_csv(trace: PercolationTrace, p: float, path) -> None:
    """Trace export: columns t, infected_size, martingale_value."""
    series, sizes = martingale_series(trace, p).tolist(), trace.infected_sizes.tolist()
    with open(path, "w") as fh:
        fh.write("t,infected_size,martingale_value\n")
        for lo in range(0, len(sizes), _BLOCK):  # one % format per block of rows
            rows = zip(range(lo, len(sizes)), sizes[lo : lo + _BLOCK], series[lo : lo + _BLOCK])
            fh.write("%d,%d,%.12g\n" * min(_BLOCK, len(sizes) - lo) % tuple(chain.from_iterable(rows)))
