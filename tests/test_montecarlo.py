import concurrent.futures
import json
import math
from dataclasses import asdict, replace

import pytest

from bootperc import montecarlo, thresholds
from bootperc.montecarlo import (
    ExperimentConfig,
    SeedSizeSpec,
    run_experiment,
    sweep,
    wilson_interval,
)
from bootperc.engine import CLASS_ALMOST, CLASS_CENSORED, CLASS_STOPPED
from bootperc.thresholds import ProcessParams

PARAMS = ProcessParams(n=3000, p=3e-3, r=2)


def summary_json(summary) -> str:
    # every field, as plain JSON types: no default= fallback
    return json.dumps(asdict(summary), sort_keys=True)


class TestWilson:
    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert 0.0 < hi < 1.0

    def test_all_successes(self):
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    def test_worked_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.404, abs=1e-3)
        assert hi == pytest.approx(0.596, abs=1e-3)

    def test_contains_point_estimate(self):
        for s, t in [(1, 7), (3, 9), (250, 300), (299, 300)]:
            lo, hi = wilson_interval(s, t)
            assert lo <= s / t <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)


class TestSeedSizeSpec:
    def test_exactly_one_form(self):
        with pytest.raises(ValueError):
            SeedSizeSpec()
        with pytest.raises(ValueError):
            SeedSizeSpec(a=3, offset_c=1.0)

    def test_offset_resolution(self):
        crit = thresholds.critical_pair(PARAMS)
        a = SeedSizeSpec(offset_c=4.0).resolve(crit, PARAMS.n)
        assert a == min(PARAMS.n, max(0, round(crit.ac + 4.0 * math.sqrt(crit.ac))))
        assert SeedSizeSpec(offset_c=-1e9).resolve(crit, PARAMS.n) == 0

    def test_absolute(self):
        crit = thresholds.critical_pair(PARAMS)
        assert SeedSizeSpec(a=17).resolve(crit, PARAMS.n) == 17


class TestRunExperiment:
    def test_trivial_zero_seed(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=0), trials=1, master_seed=1
        )
        summary = run_experiment(cfg)
        assert summary.empirical_percolation_probability == 0.0
        assert summary.outcomes[0].final_size == 0 < summary.critical.tc
        assert summary.outcomes[0].classification == CLASS_STOPPED

    def test_trivial_full_seed(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=PARAMS.n), trials=1, master_seed=1
        )
        summary = run_experiment(cfg)
        assert summary.empirical_percolation_probability == 1.0
        assert summary.outcomes[0].classification == CLASS_ALMOST

    def test_determinism_repeat(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(offset_c=2.0), trials=25, master_seed=9
        )
        assert summary_json(run_experiment(cfg)) == summary_json(run_experiment(cfg))

    def test_determinism_across_workers(self):
        base = dict(params=PARAMS, seed_size=SeedSizeSpec(offset_c=2.0), trials=24, master_seed=9)
        s1 = run_experiment(ExperimentConfig(workers=1, **base))
        s2 = run_experiment(ExperimentConfig(workers=4, **base))
        assert summary_json(s1) == summary_json(s2)

    def test_workers_clamped(self, monkeypatch):
        # the pool gets min(workers, trials, cpu count) workers; a fake
        # executor records what it was asked for and maps serially, so the
        # test starts no process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                asked.append(chunksize)
                return map(fn, tasks)

        # run_experiment imports the pool class from its package when a
        # pool is needed, so the fake takes its place there
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        base = dict(params=PARAMS, seed_size=SeedSizeSpec(a=20), master_seed=9)
        wide = run_experiment(ExperimentConfig(trials=40, workers=10_000, **base))
        assert asked == [4, 40 // (4 * 4)]
        asked.clear()
        run_experiment(ExperimentConfig(trials=3, workers=10_000, **base))
        assert asked == [3, 1]
        asked.clear()
        run_experiment(ExperimentConfig(trials=1, workers=10_000, **base))
        assert asked == []  # one trial runs in this process
        serial = run_experiment(ExperimentConfig(trials=40, workers=1, **base))
        assert summary_json(wide) == summary_json(serial)

    def test_classification_partition(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(offset_c=0.0), trials=60, master_seed=3
        )
        summary = run_experiment(cfg)
        assert set(summary.class_counts) == {CLASS_STOPPED, CLASS_ALMOST, CLASS_CENSORED}
        assert sum(summary.class_counts.values()) == 60
        assert summary.class_counts[CLASS_CENSORED] == 0  # trials run uncapped
        for o in summary.outcomes:
            almost = o.final_size >= cfg.percolation_threshold * PARAMS.n
            assert o.classification == (CLASS_ALMOST if almost else CLASS_STOPPED)

    def test_interval_contains_estimate(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(offset_c=0.0), trials=40, master_seed=5
        )
        s = run_experiment(cfg)
        assert s.wilson_low <= s.empirical_percolation_probability <= s.wilson_high

    def test_theorem_bound_matches_thresholds(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=5), trials=5, master_seed=2
        )
        s = run_experiment(cfg)
        alpha_eff = abs(s.a - s.critical.ac)
        assert s.theorem_used == "subcritical"
        assert s.theorem_bound == thresholds.theorem_subcritical_bound(PARAMS, alpha_eff)
        cfg2 = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=200), trials=5, master_seed=2
        )
        s2 = run_experiment(cfg2)
        alpha_eff2 = abs(s2.a - s2.critical.ac)
        assert s2.theorem_used == "supercritical"
        assert s2.theorem_bound == thresholds.theorem_supercritical_bound(PARAMS, alpha_eff2)

    def test_explicit_mode(self):
        cfg = ExperimentConfig(
            params=ProcessParams(n=500, p=8e-3, r=2),
            seed_size=SeedSizeSpec(offset_c=3.0),
            trials=10,
            master_seed=13,
            mode="explicit",
        )
        s = run_experiment(cfg)
        assert sum(s.class_counts.values()) == 10

    def test_stage_diagnostics_aggregation(self):
        cfg = ExperimentConfig(
            params=ProcessParams(n=4000, p=1.5e-3, r=2),
            seed_size=SeedSizeSpec(offset_c=4.0),
            trials=8,
            master_seed=31,
            stage_diagnostics=True,
        )
        s = run_experiment(cfg)
        assert s.stage_quantiles is not None
        assert 0.0 <= s.stage_quantiles["early_ok_fraction"] <= 1.0
        assert s.stage_quantiles["median_size_B"] <= s.stage_quantiles["median_size_Bhat"]

    def test_stage_plan_derived_once_per_experiment(self, monkeypatch):
        # one plan serves every trial: the horizon and the pipeline read it
        calls = []
        real = thresholds.stage_predictions

        def counted(params, alpha):
            calls.append(alpha)
            return real(params, alpha)

        monkeypatch.setattr(thresholds, "stage_predictions", counted)
        cfg = ExperimentConfig(
            params=ProcessParams(n=50_000, p=4e-4, r=2),
            seed_size=SeedSizeSpec(offset_c=4.0),
            trials=4,
            master_seed=2,
            mode="explicit",
            stage_diagnostics=True,
        )
        s = run_experiment(cfg)
        assert calls == [s.alpha]
        assert s.stage_quantiles["early_ok_fraction"] > 0  # the stages ran

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=0, master_seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(
                params=PARAMS,
                seed_size=SeedSizeSpec(a=1),
                trials=1,
                master_seed=0,
                percolation_threshold=0.0,
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=1, master_seed=0, mode="magic"
            )
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            ExperimentConfig(params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=1, master_seed=-1)

    def test_master_seed_below_2_64(self):
        # refused when the config is built, not when the first stream is keyed
        with pytest.raises(ValueError, match=r"master_seed must be below 2\*\*64, got 18446744073709551616"):
            ExperimentConfig(params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=1, master_seed=2**64)
        ExperimentConfig(params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=1, master_seed=2**64 - 1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            ExperimentConfig(
                params=PARAMS, seed_size=SeedSizeSpec(a=1), trials=2, master_seed=0, workers=workers
            )

    def test_run_trial_refuses_unknown_mode(self, monkeypatch):
        # a misspelt mode once ran an explicit trial: only "implicit" was checked
        monkeypatch.setattr(montecarlo, "sample_gnp_with", lambda *a: pytest.fail("sampled a graph"))
        with pytest.raises(ValueError, match="mode must be implicit or explicit, got 'implict'"):
            montecarlo.run_trial(PARAMS, "implict", 0, 0, [40], 0, 0.9)


def specs(*a_values):
    return [SeedSizeSpec(a=a) for a in a_values]


class TestSweep:
    def test_endpoints(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=0), trials=12, master_seed=7
        )
        low, high = sweep(cfg, specs(0, PARAMS.n))
        assert low.empirical_percolation_probability == 0.0
        assert high.empirical_percolation_probability == 1.0

    @pytest.mark.parametrize("mode", ["implicit", "explicit"])
    def test_determinism_across_workers(self, mode):
        base = dict(params=PARAMS, seed_size=SeedSizeSpec(a=0), trials=16, master_seed=7, mode=mode)
        cfg1 = ExperimentConfig(workers=1, **base)
        cfg2 = ExperimentConfig(workers=3, **base)
        a_values = specs(10, 40, 70)
        assert list(map(summary_json, sweep(cfg1, a_values))) == list(
            map(summary_json, sweep(cfg2, a_values))
        )

    @pytest.mark.parametrize("mode", ["implicit", "explicit"])
    def test_points_match_single_experiments(self, mode):
        # one pass over the trials draws, for each seed size, what an
        # experiment at that size alone draws
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=0), trials=10, master_seed=11, mode=mode
        )
        seed_sizes = [SeedSizeSpec(a=20), SeedSizeSpec(offset_c=0.0), SeedSizeSpec(offset_c=4.0)]
        summaries = sweep(cfg, seed_sizes)
        assert len(summaries) == len(seed_sizes)
        for spec, summary in zip(seed_sizes, summaries):
            assert asdict(summary) == asdict(run_experiment(replace(cfg, seed_size=spec)))

    @pytest.mark.parametrize("mode", ["implicit", "explicit"])
    def test_run_experiment_is_one_point_sweep(self, mode):
        cfg = ExperimentConfig(
            params=PARAMS,
            seed_size=SeedSizeSpec(offset_c=4.0),
            trials=6,
            master_seed=3,
            mode=mode,
            stage_diagnostics=True,
        )
        [point] = sweep(cfg, [cfg.seed_size])
        assert asdict(run_experiment(cfg)) == asdict(point)
        assert point.stage_quantiles is not None

    def test_requires_values(self):
        cfg = ExperimentConfig(
            params=PARAMS, seed_size=SeedSizeSpec(a=0), trials=5, master_seed=7
        )
        with pytest.raises(ValueError):
            sweep(cfg, [])
