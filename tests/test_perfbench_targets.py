"""The benchmark reads bootperc by module, name and attribute.

A layer, constant or field that is deleted or renamed in ``src/`` would
only show up when a benchmark run fails; these tests make it a tier-1
failure instead.  The perfbench files are read, never modified.
"""

import importlib
import runpy
from pathlib import Path

from bootperc import engine, montecarlo, thresholds
from bootperc.graph import sample_gnp
from bootperc.thresholds import ProcessParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = [
        f"bootperc.{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"bootperc.{mod}"), name, None))
    ]
    assert targets and not missing, f"tracer targets not found: {missing}"


def test_workloads_imports_resolve():
    names = runpy.run_path(str(PERFBENCH / "workloads.py"))
    assert {"WindowImplicit", "ExplicitStages", "CliSession"} <= set(names)


def test_class_almost_is_the_traced_literal():
    # workloads.py counts class_counts[CLASS_ALMOST]; the tracer compares a
    # trace's classification with the literal
    assert montecarlo.CLASS_ALMOST == engine.CLASS_ALMOST == "AlmostPercolated"


def test_tracer_count_attributes_exist():
    # the attributes tracer._counts reads off results
    params = ProcessParams(n=2000, p=3e-3, r=2)
    trace = engine.run_process(engine.ImplicitSource(params, seed=1), engine.SeedSpec.prefix(40), 2)
    for name in ("classification", "bernoulli_draws", "T"):
        assert hasattr(trace, name), name
    assert hasattr(sample_gnp(100, 0.05, seed=1), "edge_count")
    assert hasattr(thresholds.critical_pair(params), "t0_int")


def test_cli_session_commands_parse(tmp_path):
    # every argv the cli_session workload runs parses with the real parser,
    # and its config-overlay command keeps the command line's n = 2000
    from bootperc import cli

    session = runpy.run_path(str(PERFBENCH / "workloads.py"))["CliSession"](0, PERFBENCH.parent, tmp_path)
    commands = session.commands(0)
    for _, argv in commands:
        assert cli.build_parser().parse_args(argv).command == argv[0]
    overlay = [argv for _, argv in commands if "--config" in argv]
    assert len(overlay) == 1
    assert cli._parse(overlay[0]).n == 2000


def test_explicit_stages_summary_attributes():
    # the ExperimentSummary attributes ExplicitStages.round reads
    from bootperc.montecarlo import ExperimentConfig, SeedSizeSpec

    summary = montecarlo.run_experiment(
        ExperimentConfig(
            params=ProcessParams(n=2000, p=3e-3, r=2),
            seed_size=SeedSizeSpec(a=60),
            trials=2,
            master_seed=1,
            mode="explicit",
            stage_diagnostics=True,
        )
    )
    for key in ("median_size_B", "median_size_Bhat"):
        assert isinstance(summary.stage_quantiles[key], float), key
    assert isinstance(summary.class_counts[montecarlo.CLASS_ALMOST], int)
    for name in ("empirical_percolation_probability", "wilson_low", "wilson_high"):
        assert isinstance(getattr(summary, name), float), name
    assert len(summary.outcomes) == 2
    for outcome in summary.outcomes:
        assert isinstance(outcome.T, int) and isinstance(outcome.final_size, int)


def test_explicit_stage_report_calls_each_traced_stage_once(monkeypatch):
    # the tracer times stages.* by wrapping these module attributes, so a
    # stage inlined into its caller would read 0 there instead of failing;
    # graph.count_neighbors_in.s reads only the stage layer's calls, through
    # the name stages imported: 1 from state_at and 3 from bridge_and_expand
    from bootperc import stages

    calls = {}
    for name in ("giant_in_qualified", "bridge_and_expand", "count_neighbors_in"):
        real = getattr(stages, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stages, name, counted)
    params = ProcessParams(n=2000, p=3e-3, r=2)
    plan = thresholds.stage_predictions(params, 8.0)
    a = plan.t1 + 40  # alive past t1
    [(_, report)] = montecarlo.run_trial(params, "explicit", 1, 0, [a], 0, 0.9, plan)
    assert report.early_ok
    assert calls == {"giant_in_qualified": 1, "bridge_and_expand": 1, "count_neighbors_in": 4}
