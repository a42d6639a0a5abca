"""Seeded Monte Carlo experiments over independent process runs.

Trials are embarrassingly parallel: each trial's generator is keyed by a
hash of (master seed, trial index), so results are reproducible and
independent of worker count and scheduling.  Aggregation always walks
trials in index order; two runs of the same config are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import stages, thresholds
from .engine import (
    CLASS_ALMOST,
    CLASS_CENSORED,
    CLASS_STOPPED,
    EdgeSource,
    ImplicitSource,
    PercolationTrace,
    SeedSpec,
    TraceOptions,
    run_process,
)
from .graph import sample_gnp_with
from .rng import STREAM_GRAPH, STREAM_RUN, STREAM_STAGES, make_generator
from .thresholds import CriticalValues, ProcessParams, StagePredictions


@dataclass(frozen=True)
class SeedSizeSpec:
    """Initial infection size: either an absolute count ``a`` or the
    offset form a_c + c * sqrt(a_c) with real c."""

    a: int | None = None
    offset_c: float | None = None

    def __post_init__(self):
        if (self.a is None) == (self.offset_c is None):
            raise ValueError("specify exactly one of a or offset_c")
        if self.a is not None and self.a < 0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if self.offset_c is not None and not math.isfinite(self.offset_c):
            raise ValueError(f"offset_c must be finite, got {self.offset_c}")

    def resolve(self, critical: CriticalValues, n: int) -> int:
        if self.a is not None:
            if self.a > n:
                raise ValueError(f"a={self.a} exceeds n={n}")
            return self.a
        raw = critical.ac + self.offset_c * math.sqrt(max(critical.ac, 0.0))
        return round(min(max(raw, 0.0), n))  # clamped first: raw may be +-inf


@dataclass(frozen=True)
class ExperimentConfig:
    params: ProcessParams
    seed_size: SeedSizeSpec
    trials: int
    master_seed: int
    mode: str = "implicit"  # implicit | explicit
    percolation_threshold: float = 0.9
    stage_diagnostics: bool = False
    workers: int = 1  # clamped to min(workers, trials, cpu count)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        TraceOptions(percolation_threshold=self.percolation_threshold)  # checks (0, 1]
        if self.mode not in ("implicit", "explicit"):
            raise ValueError(f"mode must be implicit or explicit, got {self.mode!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    final_size: int
    T: int | None  # None when the run was capped before it stopped
    classification: str


@dataclass(frozen=True)
class ExperimentSummary:
    """Deterministic aggregate of one experiment.

    ``class_counts`` counts the trials by the engine's classification:
    Stopped, AlmostPercolated (final size >= threshold * n) and Censored.
    Trials run uncapped, so Censored stays 0.  The subcritical event of
    the paper, a run that stops before t_c, is ``final_size < critical.tc``.

    With ``stage_diagnostics`` every seed count's stages follow one plan,
    at alpha = 4 ceil(sqrt(max(a_c, 1))) (the ``alpha`` field), whatever
    a is; ``bootperc stages`` plans at alpha = a - a_c instead.
    """

    params: ProcessParams
    a: int
    alpha: float
    trials: int
    master_seed: int
    mode: str
    percolation_threshold: float
    critical: CriticalValues
    outcomes: tuple[TrialOutcome, ...]
    class_counts: dict[str, int]
    empirical_percolation_probability: float
    wilson_low: float
    wilson_high: float
    theorem_bound: float
    theorem_used: str  # "subcritical" | "supercritical"
    stage_quantiles: dict[str, float] | None = None


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Behaves sensibly at 0 and full counts, which plain normal intervals
    do not: those occur routinely in the deep sub/supercritical tails.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes={successes} outside 0..{trials}")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.975)  # 0.5 + 0.95 / 2, exactly
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


def trial_sources(
    params: ProcessParams, mode: str, seed: int, trial: int
) -> tuple[EdgeSource, EdgeSource]:
    """(run source, stage source) of one trial: the seed-stream layout.

    An implicit trial walks on the STREAM_RUN generator of (seed, trial)
    and draws its stages on the STREAM_STAGES one.  An explicit trial
    samples its graph from the STREAM_GRAPH generator, and both the run
    and its stages read that graph.
    """
    if mode == "implicit":
        return (
            ImplicitSource(params, rng=make_generator(seed, trial, STREAM_RUN)),
            ImplicitSource(params, rng=make_generator(seed, trial, STREAM_STAGES)),
        )
    graph = sample_gnp_with(params.n, params.p, make_generator(seed, trial, STREAM_GRAPH))
    return graph, graph


def run_trial(
    params: ProcessParams,
    mode: str,
    seed: int,
    trial: int,
    a_values: list[int],
    horizon: int | None,
    threshold: float,
    plan: StagePredictions | None = None,
) -> list[tuple[PercolationTrace, stages.StageReport | None]]:
    """Trial ``trial`` of master seed ``seed`` at each seed count of
    ``a_values``: its trace, and its stage report when the stage plan
    ``plan`` is given.

    An explicit trial samples its graph once and runs every count on it.
    A walk consumes its streams, so an implicit trial draws its sources
    afresh for each count.  Either way a count draws exactly what it
    would draw alone.

    The trace records |A(t)| up to ``horizon`` (None: all of it), raised
    to t1 for the stages.  The horizon decides only what is recorded, so
    ``bootperc run --seed s`` is trial 0 of an experiment with master
    seed s in both modes.
    """
    if plan is not None and horizon is not None:
        horizon = max(horizon, plan.t1)
    opts = TraceOptions(size_horizon=horizon, percolation_threshold=threshold)
    runs = []
    for a in a_values:
        if mode == "implicit" or not runs:
            source, stage_source = trial_sources(params, mode, seed, trial)
        trace = run_process(source, SeedSpec.prefix(a), params.r, opts)
        report = None
        if plan is not None:
            report = stages.run_stage_pipeline(stage_source, trace, params, plan)
        runs.append((trace, report))
    return runs


def _run_trial(args) -> list[tuple[TrialOutcome, stages.StageReport | None]]:
    config, a_values, trial, plan = args
    # no trajectory is kept, so a run records sizes only as far as its stages read
    runs = run_trial(
        config.params, config.mode, config.master_seed, trial, a_values, 0,
        config.percolation_threshold, plan,
    )
    return [(TrialOutcome(trial, tr.final_size, tr.T, tr.classification), rep) for tr, rep in runs]


def _experiments(config: ExperimentConfig, seed_sizes) -> list[ExperimentSummary]:
    """One summary per seed size, from one pass over ``config.trials``
    trials: one critical scan, one pool, and one row of results per trial.

    Per-trial seeds derive from hash(master_seed, trial), and the pool's
    map keeps trial order, so the summaries do not depend on worker count
    or completion order.
    """
    params = config.params
    critical = thresholds.critical_pair(params)
    a_values = [spec.resolve(critical, params.n) for spec in seed_sizes]
    alpha = 4.0 * math.ceil(math.sqrt(max(critical.ac, 1.0)))
    plan = thresholds.stage_predictions(params, alpha) if config.stage_diagnostics else None

    tasks = [(config, a_values, trial, plan) for trial in range(config.trials)]
    workers = min(config.workers, config.trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.trials // (workers * 4))
            rows = list(pool.map(_run_trial, tasks, chunksize=chunk))
    else:
        rows = [_run_trial(t) for t in tasks]
    return [_summary(config, critical, a, alpha, [row[k] for row in rows]) for k, a in enumerate(a_values)]


def _summary(config, critical, a, alpha, results) -> ExperimentSummary:
    """The summary of one seed count's (outcome, stage report) pairs, in trial order."""
    params = config.params
    outcomes = tuple(outcome for outcome, _ in results)
    counts: dict[str, int] = {CLASS_STOPPED: 0, CLASS_ALMOST: 0, CLASS_CENSORED: 0}
    for o in outcomes:
        counts[o.classification] += 1
    successes = counts[CLASS_ALMOST]
    phat = successes / config.trials
    lo, hi = wilson_interval(successes, config.trials)

    alpha_eff = abs(a - critical.ac)
    if a <= critical.ac:
        used = "subcritical"
        bound = (
            thresholds.theorem_subcritical_bound(params, alpha_eff) if alpha_eff > 0 else 1.0
        )
    else:
        used = "supercritical"
        bound = (
            thresholds.theorem_supercritical_bound(params, alpha_eff) if alpha_eff > 0 else 1.0
        )

    quantiles = None
    if config.stage_diagnostics:
        reports = [report for _, report in results]
        quantiles = {
            "early_ok_fraction": float(np.mean([rep.early_ok for rep in reports])),
            "bridge_fraction": float(np.mean([rep.bridge_AB for rep in reports])),
            "median_size_Bhat": float(np.median([rep.size_Bhat for rep in reports])),
            "median_size_B": float(np.median([rep.size_B for rep in reports])),
            "median_size_C": float(np.median([rep.size_C for rep in reports])),
            "median_size_D": float(np.median([rep.size_D for rep in reports])),
            "median_D_fraction": float(
                np.median([rep.size_D / params.n for rep in reports])
            ),
        }

    return ExperimentSummary(
        params=params,
        a=a,
        alpha=alpha,
        trials=config.trials,
        master_seed=config.master_seed,
        mode=config.mode,
        percolation_threshold=config.percolation_threshold,
        critical=critical,
        outcomes=outcomes,
        class_counts=counts,
        empirical_percolation_probability=phat,
        wilson_low=lo,
        wilson_high=hi,
        theorem_bound=bound,
        theorem_used=used,
        stage_quantiles=quantiles,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Execute ``config.trials`` independent runs at ``config.seed_size``
    and aggregate: the one-point case of :func:`sweep`."""
    return _experiments(config, [config.seed_size])[0]


@dataclass(frozen=True)
class SweepPoint:
    a: int
    alpha_offset: float
    p_hat: float
    wilson_lo: float
    wilson_hi: float
    mean_final_size: float
    mean_T: float
    theorem_bound: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]

    def to_csv(self) -> str:
        """One row per point, columns in field order; floats to 12
        significant digits."""
        lines = [",".join(f.name for f in fields(SweepPoint))]
        for pt in self.points:
            row = asdict(pt).values()
            lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"


def sweep(config: ExperimentConfig, seed_sizes) -> SweepResult:
    """One experiment per ``SeedSizeSpec`` (``config.seed_size`` is not
    read), all from one pass over the trials; raw estimates, no smoothing."""
    seed_sizes = list(seed_sizes)
    if not seed_sizes:
        raise ValueError("seed_sizes must be nonempty")
    points = [
        SweepPoint(
            a=s.a,
            alpha_offset=s.a - s.critical.ac,
            p_hat=s.empirical_percolation_probability,
            wilson_lo=s.wilson_low,
            wilson_hi=s.wilson_high,
            mean_final_size=float(np.mean([o.final_size for o in s.outcomes])),
            mean_T=float(np.mean([o.T for o in s.outcomes])),
            theorem_bound=s.theorem_bound,
        )
        for s in _experiments(config, seed_sizes)
    ]
    return SweepResult(points=tuple(points))
