"""Bootstrap percolation on the binomial random graph G(n,p).

Simulation of the r-neighbour infection process, numerically stable
computation of its critical quantities, supercritical stage diagnostics,
and a reproducible Monte Carlo experiment harness.

The public names load on first access (PEP 562), so ``import bootperc``
and the CLI's argument parsing import neither numpy nor the engine.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "engine": (
        "ImplicitSource",
        "PercolationTrace",
        "SeedSpec",
        "TraceOptions",
        "martingale_series",
        "run_direct",
        "run_process",
    ),
    "graph": (
        "ComponentSummary",
        "ExplicitGraph",
        "count_neighbors_in",
        "largest_component",
        "sample_gnp",
    ),
    "montecarlo": (
        "ExperimentConfig",
        "ExperimentSummary",
        "SeedSizeSpec",
        "run_experiment",
        "sweep",
        "wilson_interval",
    ),
    "stages": ("StageReport", "run_stage_pipeline"),
    "thresholds": (
        "BoundInputs",
        "CriticalValues",
        "DegenerateRegime",
        "NoConvergence",
        "ProcessParams",
        "binom_tail_geq",
        "chernoff_lower",
        "chernoff_upper",
        "critical_pair",
        "delta",
        "g_function",
        "martingale_tail_bound",
        "rho_fixed_point",
        "t_zero",
        "theorem_subcritical_bound",
        "theorem_supercritical_bound",
    ),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}
_SUBMODULES = ("engine", "graph", "montecarlo", "rng", "stages", "thresholds")

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # read through to the submodule on every access, so a name always
    # matches the submodule's current attribute
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
