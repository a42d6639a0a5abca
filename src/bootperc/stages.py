"""Stage diagnostics for a single supercritical run.

Decomposes the cascade past the critical window into the measured
quantities of the expansion pipeline:

* early growth: the run is alive past t1 = ceil(t0 + alpha/4) with
  |A(t1)| - t1 >= the witness target, max(0, (1 - 2 pi_hat(t0)) alpha / 4);
* B-hat: vertices outside the examined set (and outside a designated
  witness subset A of the infected surplus) with at least r-1 revealed
  neighbours among the examined;
* B: the largest connected component inside B-hat;
* the A-B bridge: whether any edge joins the witness set to B;
* C: vertices outside all prior sets with at least r neighbours in a
  designated subset of B;
* D: vertices outside the examined, witness, B and C sets (so B-hat \\ B
  is eligible) with at least r neighbours in a designated subset of C.

All of these are measurements.  The stage plan, alpha, t1 and every
target and prediction, is :func:`bootperc.thresholds.stage_predictions`
of (params, alpha): the caller derives it once and hands it to the
pipeline, which passes it to each stage and derives nothing itself.  The
predictions are reported side by side, never asserted on a single run.

In both modes the seeds are the prefix {1..a} and are examined first.
An explicit run is measured on its :class:`ExplicitGraph`: the pipeline
derives the state at t1 from the run's examination order (:func:`state_at`)
and builds each set.  This is the oracle.

An implicit run keeps no per-vertex state, so the pipeline draws the
sizes alone from |A(t1)| in the size record (the reduction of Janson,
Luczak, Turova and Vallier).  At t1 there are K = |A(t1)| - t1 infected
vertices not yet examined, s = max(0, a - t1) of them seeds, and the
witness set W holds the |W| = min(ceil(witness_target), K) smallest of
them, w_s = min(|W|, s) of them seeds.  The laws at t1 are: an unexamined
seed's counter is Bin(t1, p), an infected non-seed's is at least r, an
uninfected counter is Bin(t1, p) conditioned below r, and every pair
between unexamined vertices is unrevealed.  Hence

* |B-hat| = (K - s - (|W| - w_s)) + Bin(s - w_s, P[Bin(t1,p) >= r-1])
  + Bin(n - |A(t1)|, P[Bin(t1,p) = r-1 | Bin(t1,p) < r]);
* |B| is the largest component of a fresh G(|B-hat|, p);
* the bridge is Bin(|W| |B|, p) > 0;
* |C| = Bin(n - t1 - |W| - |B-hat|, P[Bin(b1,p) >= r]) with
  b1 = min(ceil(b1_target), |B|), and |D| likewise against
  c1 = min(ceil(pred_C), |C|) over the pool outside Z, W, B and C.

All of these are drawn from the stage source's own generator, so B-hat,
like B, C and D, is independent of the run after t1; the law given the
trajectory up to t1 is that of the explicit pipeline.  Implicit stages
therefore cost a few binomials and one G(|B-hat|, p) sample, not O(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import thresholds
from .engine import EdgeSource, ImplicitSource, PercolationTrace
from .graph import ExplicitGraph, count_neighbors_in, largest_component, sample_gnp_with
from .thresholds import StagePredictions, log_survival


class TraceTooShort(Exception):
    """The trace recording ended before t1 for a reason other than the
    process itself stopping (e.g. a size horizon below t1)."""


def state_at(graph: ExplicitGraph, trace: PercolationTrace, t: int):
    """(Z(t), counters, A(t)) of an explicit run after step t, from its
    examination order: Z(t) = u(1..t); the neighbour counts in Z(t), an
    unexamined vertex's revealed-neighbour counter; and the seeds {1..a}
    plus every vertex with r neighbours in Z(t) (an examined non-seed had r
    before its turn)."""
    if trace.examined is None or len(trace.examined) < t:
        raise TraceTooShort(f"no examination order up to t1={t}; pass size_horizon >= {t}")
    examined = trace.examined[:t]
    counters = count_neighbors_in(graph, examined)
    infected = counters >= trace.r
    infected[1 : trace.a + 1] = True
    return examined, counters, np.flatnonzero(infected)


@dataclass(frozen=True)
class StageReport:
    """Measured vs. predicted sizes of the expansion pipeline on one run.

    Field names are the serialisation contract: ``bootperc stages`` emits
    exactly these, by ``asdict``.  ``truncated`` is set when the giant
    component was smaller than the designated subset the C stage wants, in
    which case the full component was used and the pipeline's inequality
    chain is not meaningful.
    """

    alpha: float
    t1: int
    early_ok: bool
    size_Bhat: int
    pred_Bhat: float
    size_B: int
    pred_B: float
    bridge_AB: bool
    size_C: int
    pred_C: float
    size_D: int
    pred_D_fraction: float
    truncated: bool


def early_growth_check(trace: PercolationTrace, pred: StagePredictions) -> bool:
    """The early-growth event on a recorded trace: the run is alive past t1
    and |A(t1)| - t1 >= the witness target.

    A run that stopped at T <= t1 fails the event.  Raises TraceTooShort
    only when the recording cannot answer the question: the trace was cut
    before t1 while the run was still alive.
    """
    t1 = pred.t1
    if trace.T is not None and trace.T <= t1:
        return False
    if len(trace.infected_sizes) <= t1:
        raise TraceTooShort(
            f"run alive past t1={t1} but only {len(trace.infected_sizes) - 1} steps recorded"
        )
    return int(trace.infected_sizes[t1]) - t1 >= pred.witness_target


def giant_in_qualified(graph: ExplicitGraph, bhat: np.ndarray) -> np.ndarray:
    """Largest connected component of the subgraph induced on B-hat, as
    sorted vertex ids."""
    return largest_component(graph, bhat).largest_members


def bridge_and_expand(
    graph: ExplicitGraph,
    outside: np.ndarray,
    witness: np.ndarray,
    bhat: np.ndarray,
    b_component: np.ndarray,
    r: int,
    pred: StagePredictions,
) -> tuple[bool, np.ndarray, np.ndarray]:
    """(bridge, C, D): the A-B bridge event and the two expansion stages.

    ``outside`` masks the vertex ids outside {0}, Z(t1) and the witness
    set; it is not modified.  C is drawn outside B-hat and counted against
    the first ceil(b1_target) ids of B, sorted as :func:`giant_in_qualified`
    returns it (all of B when it is smaller); D is drawn outside B and C
    and counted against the first ceil(pred_c) ids of C.
    """
    bridge = bool(count_neighbors_in(graph, witness)[b_component].any())
    b1 = b_component[: math.ceil(pred.b1_target)]
    pool = outside.copy()
    pool[bhat] = False
    c_set = np.flatnonzero(pool & (count_neighbors_in(graph, b1) >= r))
    pool[bhat] = True  # B-hat \ B is eligible for D
    pool[b_component] = False
    pool[c_set] = False
    c1 = c_set[: math.ceil(pred.pred_c)]
    d_set = np.flatnonzero(pool & (count_neighbors_in(graph, c1) >= r))
    return bridge, c_set, d_set


def _explicit_stages(graph: ExplicitGraph, trace: PercolationTrace, pred: StagePredictions) -> dict:
    """Stage sizes measured on the graph, from the state at t1; the witness
    set W is the first ceil(witness_target) ids of A(t1) outside Z(t1)."""
    examined, counters, infected = state_at(graph, trace, pred.t1)
    outside = np.ones(graph.n + 1, dtype=bool)
    outside[0] = False
    outside[examined] = False
    witness = infected[outside[infected]][: math.ceil(pred.witness_target)]
    outside[witness] = False
    bhat = np.flatnonzero(outside & (counters >= trace.r - 1))
    b = giant_in_qualified(graph, bhat)
    bridge, c, d = bridge_and_expand(graph, outside, witness, bhat, b, trace.r, pred)
    return dict(size_Bhat=len(bhat), size_B=len(b), bridge_AB=bridge, size_C=len(c), size_D=len(d))


def _implicit_stages(source: ImplicitSource, trace: PercolationTrace, pred: StagePredictions) -> dict:
    """Stage sizes drawn from |A(t1)| alone; see the module docstring."""
    n, p, r = source.params.n, source.params.p, source.params.r
    t1, rng = pred.t1, source.rng
    k = int(trace.infected_sizes[t1]) - t1  # infected, not yet examined
    s = max(0, trace.a - t1)  # of which seeds
    w = min(math.ceil(pred.witness_target), k)  # witness_target >= 0
    w_s = min(w, s)
    below_r1 = log_survival(t1, p, r - 1)  # log P[Bin(t1,p) < r-1]
    below_r = log_survival(t1, p, r)
    bhat = (
        (k - s - (w - w_s))
        + int(rng.binomial(s - w_s, -math.expm1(below_r1)))
        + int(rng.binomial(n - t1 - k, -math.expm1(below_r1 - below_r)))
    )
    b = bhat
    if bhat > 1:
        b = largest_component(sample_gnp_with(bhat, p, rng)).largest_size
    # a binomial with no trials or a zero chance draws nothing
    bridge = bool(rng.binomial(w * b, p) > 0)
    b1 = min(math.ceil(pred.b1_target), b)
    c = int(rng.binomial(n - t1 - w - bhat, thresholds.binom_tail_geq(b1, p, r)))
    c1 = min(math.ceil(pred.pred_c), c)
    d = int(rng.binomial(n - t1 - w - b - c, thresholds.binom_tail_geq(c1, p, r)))
    return dict(size_Bhat=bhat, size_B=b, bridge_AB=bridge, size_C=c, size_D=d)


def run_stage_pipeline(source: EdgeSource, trace: PercolationTrace, pred: StagePredictions) -> StageReport:
    """Run every stage of the plan ``pred`` on one finished (or t1-capped) trace.

    An explicit trace must carry its examination order up to t1 (run with
    ``size_horizon`` or a cap >= t1); an implicit one needs only its size
    record up to t1.  A run that stopped before t1 reports early_ok=False
    with all stage sets empty: the pipeline is only defined conditional on
    early growth.  An explicit run is measured on its graph with the
    trace's r; an implicit one reads n, p and r from ``source.params``.
    A trace from a run at another n (or, implicit, another r) is refused.
    """
    if trace.n != source.n or (isinstance(source, ImplicitSource) and trace.r != source.params.r):
        raise ValueError(f"a trace at n={trace.n}, r={trace.r} does not match its stage source")
    base = dict(
        alpha=pred.alpha,
        t1=pred.t1,
        early_ok=early_growth_check(trace, pred),
        pred_Bhat=pred.pred_bhat,
        pred_B=pred.pred_b,
        pred_C=pred.pred_c,
        pred_D_fraction=pred.pred_d_fraction,
    )
    if trace.T is not None and trace.T <= pred.t1:
        return StageReport(
            size_Bhat=0, size_B=0, bridge_AB=False, size_C=0, size_D=0,
            truncated=False, **base,
        )
    stages = _implicit_stages if isinstance(source, ImplicitSource) else _explicit_stages
    sizes = stages(source, trace, pred)
    return StageReport(**sizes, truncated=sizes["size_B"] < math.ceil(pred.b1_target), **base)
