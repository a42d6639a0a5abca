"""Bootstrap percolation on the binomial random graph G(n,p).

Simulation of the r-neighbour infection process, numerically stable
computation of its critical quantities, supercritical stage diagnostics,
and a reproducible Monte Carlo experiment harness.
"""

from .engine import (
    ImplicitSource,
    PercolationTrace,
    SeedSpec,
    TraceOptions,
    martingale_series,
    run_direct,
    run_process,
)
from .graph import (
    ComponentSummary,
    ExplicitGraph,
    count_neighbors_in,
    largest_component,
    sample_gnp,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentSummary,
    SeedSizeSpec,
    run_experiment,
    sweep,
    wilson_interval,
)
from .stages import StageReport, run_stage_pipeline
from .thresholds import (
    BoundInputs,
    CriticalValues,
    DegenerateRegime,
    NoConvergence,
    ProcessParams,
    binom_tail_geq,
    chernoff_lower,
    chernoff_upper,
    critical_pair,
    delta,
    g_function,
    martingale_tail_bound,
    rho_fixed_point,
    t_zero,
    theorem_subcritical_bound,
    theorem_supercritical_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "ComponentSummary",
    "CriticalValues",
    "DegenerateRegime",
    "ExperimentConfig",
    "ExperimentSummary",
    "ExplicitGraph",
    "ImplicitSource",
    "NoConvergence",
    "PercolationTrace",
    "ProcessParams",
    "SeedSizeSpec",
    "SeedSpec",
    "StageReport",
    "TraceOptions",
    "binom_tail_geq",
    "chernoff_lower",
    "chernoff_upper",
    "count_neighbors_in",
    "critical_pair",
    "delta",
    "g_function",
    "largest_component",
    "martingale_series",
    "martingale_tail_bound",
    "rho_fixed_point",
    "run_direct",
    "run_experiment",
    "run_process",
    "run_stage_pipeline",
    "sample_gnp",
    "sweep",
    "t_zero",
    "theorem_subcritical_bound",
    "theorem_supercritical_bound",
    "wilson_interval",
]
