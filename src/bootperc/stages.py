"""Stage diagnostics for a single supercritical run.

Decomposes the cascade past the critical window into the measured
quantities of the expansion pipeline:

* early growth: did the run survive past t1 = ceil(t0 + alpha/4) with
  surplus at least (1 - 2 pi_hat(t0)) alpha / 4;
* B-hat: vertices outside the examined set (and outside a designated
  witness subset A of the infected surplus) with at least r-1 revealed
  neighbours among the examined;
* B: the largest connected component inside B-hat;
* the A-B bridge: whether any edge joins the witness set to B;
* C: vertices outside all prior sets with at least r neighbours in a
  designated subset of B;
* D: vertices outside the prior sets with at least r neighbours in C.

All of these are measurements; the matching predictions recompute from
(params, alpha) via :func:`bootperc.thresholds.stage_predictions` and are
reported side by side, never asserted on a single run.

An explicit run is measured on its :class:`ExplicitGraph`: the pipeline
derives the state at t1 from the run's examination order (:func:`state_at`)
and builds each set.  This is the oracle.

An implicit run keeps no per-vertex state, so the pipeline draws the
sizes alone from |A(t1)| in the size record (the reduction of Janson,
Luczak, Turova and Vallier).  Seeds are the prefix {1..a} and are
examined first.  So at t1 there are K = |A(t1)| - t1 infected vertices
not yet examined, s = max(0, a - t1) of them seeds, and the witness set
W holds the |W| = min(ceil(witness_target), K) smallest of them,
w_s = min(|W|, s) of them seeds.  The laws at t1 are: an unexamined
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

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import thresholds
from .engine import EdgeSource, ImplicitSource, PercolationTrace
from .graph import ExplicitGraph, count_neighbors_in, largest_component, sample_gnp_with
from .thresholds import ProcessParams, StagePredictions, log_binom_lower


class TraceTooShort(Exception):
    """The trace recording ended before t1 for a reason other than the
    process itself stopping (e.g. a size horizon below t1)."""


def state_at(graph: ExplicitGraph, trace: PercolationTrace, t: int):
    """(Z(t), counters, A(t)) of an explicit run after step t, from its
    examination order: Z(t) = u(1..t); the neighbour counts in Z(t), an
    unexamined vertex's revealed-neighbour counter; and the seeds plus every
    vertex with r neighbours in Z(t) (an examined non-seed had r before its
    turn)."""
    if trace.examined is None or len(trace.examined) < t:
        raise TraceTooShort(f"no examination order up to t1={t}; pass size_horizon >= {t}")
    examined = trace.examined[:t]
    counters = count_neighbors_in(graph, examined)
    infected = counters >= trace.r
    infected[np.array(trace.seeds, dtype=np.int64)] = True
    return examined, counters, np.flatnonzero(infected)


@dataclass(frozen=True)
class StageReport:
    """Measured vs. predicted sizes of the expansion pipeline on one run.

    Field names are the serialisation contract; ``to_json`` emits exactly
    these.  ``truncated`` is set when the giant component was smaller than
    the designated subset the C stage wants, in which case the full
    component was used and the pipeline's inequality chain is not
    meaningful.
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

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class EarlyGrowth:
    ok: bool
    surplus: int
    t1: int
    threshold: float


def early_growth_check(
    trace: PercolationTrace, params: ProcessParams, alpha: float
) -> EarlyGrowth:
    """Evaluate the early-growth event on a recorded trace: the run kept
    going past t1 and carried surplus |A(t1)| - t1 of at least
    (1 - 2 pi_hat(t0)) alpha / 4.

    When the run stopped at T <= t1 the event is simply false (surplus
    reported from the frozen final size).  Raises TraceTooShort only when
    the recording cannot answer the question: the trace was cut before t1
    while the run was still alive.
    """
    pred = thresholds.stage_predictions(params, alpha)
    t1 = pred.t1
    pi_t0 = thresholds.binom_tail_geq(thresholds.t_zero_int(params), params.p, params.r)
    threshold = t1 + (1.0 - 2.0 * pi_t0) * alpha / 4.0
    if trace.T is not None and trace.T <= t1:
        return EarlyGrowth(ok=False, surplus=trace.final_size - t1, t1=t1, threshold=threshold)
    if len(trace.infected_sizes) <= t1:
        raise TraceTooShort(
            f"run alive past t1={t1} but only {len(trace.infected_sizes) - 1} steps recorded"
        )
    size_t1 = int(trace.infected_sizes[t1])
    return EarlyGrowth(
        ok=size_t1 >= threshold,
        surplus=size_t1 - t1,
        t1=t1,
        threshold=threshold,
    )


def designated_witness(
    infected: np.ndarray, examined: np.ndarray, params: ProcessParams, alpha: float
) -> np.ndarray:
    """The designated witness subset A: the smallest-id members of
    A(t1) \\ Z(t1), ceil((1 - 2 pi_hat(t0)) alpha / 4) of them (capped at
    the available surplus)."""
    pred = thresholds.stage_predictions(params, alpha)
    want = math.ceil(pred.witness_target)
    pool = np.setdiff1d(infected, examined)  # sorted
    return pool[: max(0, want)]


def qualified_set(
    counters: np.ndarray, examined: np.ndarray, witness: np.ndarray, r: int
) -> np.ndarray:
    """B-hat: vertices outside Z(t1) and outside the witness set whose
    revealed-neighbour counter reached r-1 by step t1."""
    mask = counters >= (r - 1)
    mask[0] = False
    mask[examined] = False
    mask[witness] = False
    return np.flatnonzero(mask).astype(np.int64)


def giant_in_qualified(graph: ExplicitGraph, bhat: np.ndarray) -> np.ndarray:
    """Largest connected component of the subgraph induced on B-hat, as
    sorted vertex ids."""
    summary = largest_component(graph, bhat, include_members=True)
    return np.array(summary.largest_members, dtype=np.int64)


@dataclass(frozen=True)
class BridgeExpansion:
    bridge_AB: bool
    C: np.ndarray
    D: np.ndarray
    truncated: bool


def bridge_and_expand(
    graph: ExplicitGraph,
    witness: np.ndarray,
    b_component: np.ndarray,
    r: int,
    *,
    examined: np.ndarray,
    bhat: np.ndarray,
    predictions: StagePredictions,
) -> BridgeExpansion:
    """The A-B bridge event and the two expansion stages.

    C is counted against a designated subset of B of size
    ceil(b1_target), truncated to |B| (flagged); D is counted against C
    truncated to ceil(pred_C) when C is larger.  Each stage reads only
    pairs no earlier stage (or the engine) touched.
    """
    n = graph.n
    bridge = bool(count_neighbors_in(graph, witness)[b_component].any())

    b1_want = math.ceil(predictions.b1_target)
    truncated = len(b_component) < b1_want
    b1 = np.sort(b_component)[: min(b1_want, len(b_component))]

    exclude = np.zeros(n + 1, dtype=bool)
    exclude[0] = True
    exclude[examined] = True
    exclude[witness] = True
    exclude[bhat] = True
    pool_c = np.flatnonzero(~exclude).astype(np.int64)
    c_set = _expand_once(graph, pool_c, b1, r)

    c1_want = math.ceil(predictions.pred_c)
    c1 = c_set[: min(c1_want, len(c_set))]

    exclude_d = np.zeros(n + 1, dtype=bool)
    exclude_d[0] = True
    exclude_d[examined] = True
    exclude_d[witness] = True
    exclude_d[b_component] = True
    exclude_d[c_set] = True
    pool_d = np.flatnonzero(~exclude_d).astype(np.int64)
    d_set = _expand_once(graph, pool_d, c1, r)

    return BridgeExpansion(bridge_AB=bridge, C=c_set, D=d_set, truncated=truncated)


def _expand_once(
    graph: ExplicitGraph, pool: np.ndarray, targets: np.ndarray, r: int
) -> np.ndarray:
    """Vertices of ``pool`` with at least r neighbours in ``targets``."""
    if len(pool) == 0 or len(targets) == 0:
        return np.empty(0, dtype=np.int64)
    return pool[count_neighbors_in(graph, targets)[pool] >= r]


def _explicit_stages(
    graph: ExplicitGraph,
    trace: PercolationTrace,
    params: ProcessParams,
    alpha: float,
    pred: StagePredictions,
) -> dict:
    """Stage sizes measured on the graph, from the state at t1."""
    examined, counters, infected = state_at(graph, trace, pred.t1)
    witness = designated_witness(infected, examined, params, alpha)
    bhat = qualified_set(counters, examined, witness, params.r)
    b_comp = giant_in_qualified(graph, bhat)
    expansion = bridge_and_expand(
        graph,
        witness,
        b_comp,
        params.r,
        examined=examined,
        bhat=bhat,
        predictions=pred,
    )
    return dict(
        size_Bhat=len(bhat),
        size_B=len(b_comp),
        bridge_AB=expansion.bridge_AB,
        size_C=len(expansion.C),
        size_D=len(expansion.D),
        truncated=expansion.truncated,
    )


def _implicit_stages(
    source: ImplicitSource, trace: PercolationTrace, params: ProcessParams, pred: StagePredictions
) -> dict:
    """Stage sizes drawn from |A(t1)| alone; see the module docstring."""
    n, p, r = params.n, params.p, params.r
    t1, rng = pred.t1, source.rng
    k = int(trace.infected_sizes[t1]) - t1  # infected, not yet examined
    s = max(0, trace.a - t1)  # of which seeds
    w = min(math.ceil(pred.witness_target), k)  # witness_target >= 0
    w_s = min(w, s)
    below_r1 = float(log_binom_lower(t1, p, r - 1))  # log P[Bin(t1,p) < r-1]
    below_r = float(log_binom_lower(t1, p, r))
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
    b1_want = math.ceil(pred.b1_target)
    c = int(rng.binomial(n - t1 - w - bhat, thresholds.binom_tail_geq(min(b1_want, b), p, r)))
    c1 = min(math.ceil(pred.pred_c), c)
    d = int(rng.binomial(n - t1 - w - b - c, thresholds.binom_tail_geq(c1, p, r)))
    return dict(
        size_Bhat=bhat, size_B=b, bridge_AB=bridge, size_C=c, size_D=d, truncated=b < b1_want
    )


def run_stage_pipeline(
    source: EdgeSource,
    trace: PercolationTrace,
    params: ProcessParams,
    alpha: float,
) -> StageReport:
    """Run every stage on one finished (or t1-capped) trace.

    An explicit trace must carry its examination order up to t1 (run with
    ``size_horizon`` or a cap >= t1); an implicit one needs only its size
    record up to t1.  A run that stopped before t1 reports early_ok=False
    with all stage sets empty: the pipeline is only defined conditional on
    early growth.
    """
    pred = thresholds.stage_predictions(params, alpha)
    early = early_growth_check(trace, params, alpha)
    base = dict(
        alpha=alpha,
        t1=pred.t1,
        early_ok=early.ok,
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
    if isinstance(source, ImplicitSource):
        sizes = _implicit_stages(source, trace, params, pred)
    else:
        sizes = _explicit_stages(source, trace, params, alpha, pred)
    return StageReport(**sizes, **base)
