"""Seeded Monte Carlo experiments over independent process runs.

Trials are embarrassingly parallel: each trial's generator is keyed by a
hash of (master seed, trial index), so results are reproducible and
independent of worker count and scheduling.  Aggregation always walks
trials in index order; two runs of the same config are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace

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
from .thresholds import CriticalValues, ProcessParams


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
        return min(n, max(0, round(raw)))


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


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    final_size: int
    T: int | None  # None when the run was capped before it stopped
    classification: str


@dataclass(frozen=True)
class ExperimentSummary:
    """Deterministic aggregate of one experiment.

    ``mean_trajectory`` covers t = 0..min(horizon, min over trials of T);
    on that prefix every trial contributes, so the empirical mean of
    |A(t)| is an unbiased estimate of a + (n-a) pi_hat(t).

    ``class_counts`` counts the trials by the engine's classification:
    Stopped, AlmostPercolated (final size >= threshold * n) and Censored.
    Trials run uncapped, so Censored stays 0.  The subcritical event of
    the paper, a run that stops before t_c, is ``final_size < critical.tc``.
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
    mean_trajectory: np.ndarray  # rows (t, mean, standard error)
    stage_quantiles: dict[str, float] | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "p": self.params.p,
            "r": self.params.r,
            "regime_ok": self.params.regime_ok,
            "a": self.a,
            "alpha": self.alpha,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "mode": self.mode,
            "percolation_threshold": self.percolation_threshold,
            "critical": asdict(self.critical),
            "class_counts": dict(sorted(self.class_counts.items())),
            "empirical_percolation_probability": self.empirical_percolation_probability,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "theorem_bound": self.theorem_bound,
            "theorem_used": self.theorem_used,
            "outcomes": [asdict(o) for o in self.outcomes],
            "mean_trajectory": [
                {"t": int(t), "mean": float(m), "se": float(se)}
                for t, m, se in self.mean_trajectory
            ],
            "stage_quantiles": self.stage_quantiles,
        }


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Behaves sensibly at 0 and full counts, which plain normal intervals
    do not: those occur routinely in the deep sub/supercritical tails.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes={successes} outside 0..{trials}")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0,1), got {confidence}")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return lo, hi


@dataclass(frozen=True)
class _TrialResult:
    outcome: TrialOutcome
    sizes_prefix: np.ndarray
    stage_report: stages.StageReport | None


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
    a: int,
    horizon: int | None,
    threshold: float,
    alpha: float | None = None,
) -> tuple[PercolationTrace, stages.StageReport | None]:
    """Trial ``trial`` of master seed ``seed``: its trace, and its stage
    report when ``alpha`` is given.

    The trace records |A(t)| up to ``horizon`` (None: all of it), raised
    to t1 for the stages.  The horizon decides only what is recorded, so
    ``bootperc run --seed s`` is trial 0 of an experiment with master
    seed s in both modes.
    """
    if alpha is not None and horizon is not None:
        horizon = max(horizon, thresholds.stage_predictions(params, alpha).t1)
    opts = TraceOptions(size_horizon=horizon, percolation_threshold=threshold)
    source, stage_source = trial_sources(params, mode, seed, trial)
    trace = run_process(source, SeedSpec.prefix(a), params.r, opts)
    report = None
    if alpha is not None:
        report = stages.run_stage_pipeline(stage_source, trace, params, alpha)
    return trace, report


def _run_trial(args) -> _TrialResult:
    config, a, trial, horizon, alpha = args
    trace, report = run_trial(
        config.params, config.mode, config.master_seed, trial, a, horizon,
        config.percolation_threshold, alpha if config.stage_diagnostics else None,
    )
    return _TrialResult(
        outcome=TrialOutcome(trial, trace.final_size, trace.T, trace.classification),
        sizes_prefix=trace.infected_sizes[: horizon + 1].copy(),
        stage_report=report,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Execute ``config.trials`` independent runs and aggregate.

    Per-trial seeds derive from hash(master_seed, trial); aggregation is
    sequential over sorted trial indices, so the summary does not depend
    on worker count or completion order.
    """
    params = config.params
    critical = thresholds.critical_pair(params)
    a = config.seed_size.resolve(critical, params.n)
    alpha = 4.0 * math.ceil(math.sqrt(max(critical.ac, 1.0)))
    horizon = critical.t0_int  # the mean trajectory covers the critical window

    tasks = [(config, a, trial, horizon, alpha) for trial in range(config.trials)]
    workers = min(config.workers, config.trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, config.trials // (workers * 4))
            results = list(pool.map(_run_trial, tasks, chunksize=chunk))
    else:
        results = [_run_trial(t) for t in tasks]
    results.sort(key=lambda res: res.outcome.trial)

    outcomes = tuple(res.outcome for res in results)
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

    prefix = min(len(res.sizes_prefix) for res in results)
    stacked = np.stack([res.sizes_prefix[:prefix] for res in results]).astype(np.float64)
    means = stacked.mean(axis=0)
    ses = stacked.std(axis=0, ddof=1) / math.sqrt(config.trials) if config.trials > 1 else np.zeros(prefix)
    trajectory = np.column_stack([np.arange(prefix, dtype=np.float64), means, ses])

    quantiles = None
    if config.stage_diagnostics:
        reports = [res.stage_report for res in results]
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
        mean_trajectory=trajectory,
        stage_quantiles=quantiles,
    )


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


def sweep(config: ExperimentConfig, a_values) -> SweepResult:
    """One experiment per seed size; raw estimates, no smoothing."""
    a_values = [int(a) for a in a_values]
    if not a_values:
        raise ValueError("a_values must be nonempty")
    points = []
    for a in a_values:
        summary = run_experiment(replace(config, seed_size=SeedSizeSpec(a=a)))
        points.append(
            SweepPoint(
                a=a,
                alpha_offset=a - summary.critical.ac,
                p_hat=summary.empirical_percolation_probability,
                wilson_lo=summary.wilson_low,
                wilson_hi=summary.wilson_high,
                mean_final_size=float(np.mean([o.final_size for o in summary.outcomes])),
                mean_T=float(np.mean([o.T for o in summary.outcomes])),
                theorem_bound=summary.theorem_bound,
            )
        )
    return SweepResult(points=tuple(points))
