import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")
from referencing import Registry, Resource

from bootperc import cli, thresholds

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def _load(name):
    return json.loads((SCHEMA_DIR / name).read_text())


_REGISTRY = Registry().with_resources(
    (name, Resource.from_contents(_load(name)))
    for name in os.listdir(SCHEMA_DIR)
)


def validate(payload, schema_name):
    jsonschema.Draft7Validator(_load(schema_name), registry=_REGISTRY).validate(payload)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "bootperc.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main_json(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestThresholdsCommand:
    def test_success_and_schema(self, capsys):
        code, payload = main_json(
            capsys, "thresholds", "--n", "1000000", "--p", "0.0001", "--r", "2"
        )
        assert code == 0
        validate(payload, "thresholds.schema.json")
        assert abs(payload["tc"] - 100) <= 15

    def test_validation_error_names_invariant(self, capsys):
        code = cli.main(["thresholds", "--n", "1000", "--p", "1.5", "--r", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "p must lie in (0,1)" in err

    def test_degenerate_regime_exit_code(self, capsys, monkeypatch):
        def boom(params):
            raise thresholds.DegenerateRegime("pi_hat reached 1")

        # the command reads thresholds.critical_pair when it runs
        monkeypatch.setattr(thresholds, "critical_pair", boom)
        code = cli.main(["thresholds", "--n", "1000", "--p", "0.5", "--r", "2"])
        assert code == 3

    def test_round_trip_t0_into_bounds(self, capsys):
        code, thr = main_json(capsys, "thresholds", "--n", "1000000", "--p", "0.0001", "--r", "2")
        assert code == 0
        code, bnd = main_json(
            capsys,
            "bounds", "--theorem1",
            "--n", "1000000", "--p", "0.0001", "--r", "2", "--alpha", "30",
        )
        assert code == 0
        assert bnd["t0"] == thr["t0"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--n", "10", "--p", "1e-300", "--r", "2"],  # n p^r underflows to 0
            ["thresholds", "--n", "1000", "--p", "0.01", "--r", "500"],  # (r-1)! is past the float range
            ["thresholds", "--n", "100000", "--p", "0.5", "--r", "200"],
            ["bounds", "--theorem1", "--n", "10", "--p", "1e-300", "--r", "2", "--alpha", "1"],
        ],
    )
    def test_float_range_is_a_degenerate_regime(self, capsys, argv):
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(r-1)!/(n p^r) is not a finite float" in captured.err and "internal error" not in captured.err


class TestRunCommand:
    def test_zero_seed(self, capsys):
        code, payload = main_json(
            capsys, "run", "--n", "500", "--p", "0.005", "--r", "2", "--a", "0"
        )
        assert code == 0
        validate(payload, "run.schema.json")
        assert payload["final_size"] == 0

    def test_trace_out(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, payload = main_json(
            capsys,
            "run", "--n", "500", "--p", "0.005", "--r", "2", "--a", "20",
            "--seed", "5", "--trace-out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,infected_size,martingale_value"
        assert len(lines) == payload["T"] + 2

    def test_stages_alias_and_schema(self, capsys):
        code, payload = main_json(
            capsys,
            "stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--seed", "3",
        )
        assert code == 0
        validate(payload, "run.schema.json")
        validate(payload["stages"], "stage_report.schema.json")

    def test_stages_below_critical_rejected(self, capsys):
        code = cli.main(
            ["stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "1"]
        )
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_explicit_mode(self, capsys):
        code, payload = main_json(
            capsys,
            "run", "--n", "400", "--p", "0.01", "--r", "2", "--a", "30",
            "--mode", "explicit", "--seed", "11",
        )
        assert code == 0
        validate(payload, "run.schema.json")

    def test_explicit_closure_matches_traced_run(self, capsys, tmp_path):
        # without --trace-out an explicit run finishes by closure; with it
        # the run steps to the end to record every |A(t)|
        args = ["run", "--n", "3000", "--p", "0.0022", "--r", "2", "--mode", "explicit"]
        almost = 0
        for a, seed in ((30, 1), (46, 2), (60, 3)):
            run = [*args, "--a", str(a), "--seed", str(seed)]
            _, closed = main_json(capsys, *run)
            _, traced = main_json(capsys, *run, "--trace-out", str(tmp_path / "t.csv"))
            traced.pop("trace_csv")
            assert closed == traced
            almost += closed["classification"] == "AlmostPercolated"
        assert 0 < almost < 3


    @pytest.mark.parametrize("command", ["run", "stages"])
    @pytest.mark.parametrize("threshold", ["5", "-1", "0"])
    def test_threshold_outside_unit_interval_rejected(self, capsys, command, threshold):
        argv = [command, "--n", "500", "--p", "0.005", "--r", "2", "--a", "400"]
        assert cli.main([*argv, "--threshold", threshold]) == 2
        assert f"percolation_threshold must lie in (0,1], got {float(threshold)}" in capsys.readouterr().err

    def test_threshold_one_accepted(self, capsys):
        code, payload = main_json(
            capsys, "run", "--n", "500", "--p", "0.005", "--r", "2", "--a", "400", "--threshold", "1.0"
        )
        assert code == 0
        assert payload["percolation_threshold"] == 1.0
        assert payload["classification"] == ("AlmostPercolated" if payload["final_size"] == 500 else "Stopped")

    @pytest.mark.parametrize("flag", [["--alpha", "7"], ["--stages"]])
    def test_run_takes_no_stage_flags(self, capsys, flag):
        argv = ["run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40", *flag]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    def test_stages_alpha(self, capsys):
        argv = ["stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--seed", "3"]
        code, payload = main_json(capsys, *argv, "--alpha", "12")
        assert code == 0
        assert payload["stages"]["alpha"] == 12.0

    def test_stages_derive_the_plan_once(self, capsys, monkeypatch, tmp_path):
        from bootperc import thresholds

        calls = []
        real = thresholds.stage_predictions

        def counted(params, alpha):
            calls.append(alpha)
            return real(params, alpha)

        monkeypatch.setattr(thresholds, "stage_predictions", counted)
        argv = ["stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--alpha", "12"]
        for extra in ([], ["--trace-out", str(tmp_path / "t.csv")]):
            calls.clear()
            code, payload = main_json(capsys, *argv, *extra)
            assert code == 0 and payload["stages"]["alpha"] == 12.0
            assert calls == [12.0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "2000", "--p", "0.003", "--r", "2", "--trials", "2", "--alpha-list", "inf"],
            ["sweep", "--n", "2000", "--p", "0.003", "--r", "2", "--trials", "2", "--alpha-list=-inf"],
            ["stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--alpha", "inf"],
        ],
    )
    def test_non_finite_alpha_rejected(self, capsys, argv):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err and "internal error" not in err

    def test_implicit_run_is_trial_zero_of_an_experiment(self, capsys):
        # the walk's horizon decides only what is recorded, so an implicit
        # run --seed s ends as trial 0 of master seed s; a = 80, seed 12
        # once ended at 49999 against trial 0's 50000
        from bootperc.montecarlo import ExperimentConfig, SeedSizeSpec, run_experiment

        params = thresholds.ProcessParams(n=50_000, p=4e-4, r=2)
        for a in (55, 62, 70, 80):
            for seed in (*range(6), 12):
                argv = ["run", "--n", "50000", "--p", "0.0004", "--r", "2", "--a", str(a), "--seed", str(seed)]
                code, payload = main_json(capsys, *argv)
                trial = run_experiment(
                    ExperimentConfig(params=params, seed_size=SeedSizeSpec(a=a), trials=1, master_seed=seed)
                ).outcomes[0]
                assert code == 0
                assert (payload["T"], payload["final_size"]) == (trial.T, trial.final_size), (a, seed)

    def test_explicit_graph_is_trial_zero_of_an_experiment(self, capsys):
        # one stream layout: run --seed s samples the graph trial 0 of an
        # experiment with master seed s samples
        from bootperc.montecarlo import ExperimentConfig, SeedSizeSpec, run_experiment

        code, payload = main_json(
            capsys,
            "run", "--mode", "explicit", "--n", "2000", "--p", "0.003", "--r", "2",
            "--a", "40", "--seed", "5",
        )
        summary = run_experiment(
            ExperimentConfig(
                params=thresholds.ProcessParams(n=2000, p=0.003, r=2),
                seed_size=SeedSizeSpec(a=40),
                trials=1,
                master_seed=5,
                mode="explicit",
            )
        )
        assert code == 0
        assert payload["final_size"] == summary.outcomes[0].final_size == 1974


NOT_SWEEP = [
    ["thresholds", "--n", "1000", "--p", "0.01", "--r", "2"],
    ["run", "--n", "500", "--p", "0.005", "--r", "2", "--a", "3"],
    ["stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80"],
    ["giant", "--m", "1000", "--eps", "0.2"],
    ["bounds", "--chernoff", "lower", "--mean", "50", "--lam", "10"],
]


@pytest.mark.parametrize("argv", NOT_SWEEP, ids=lambda argv: argv[0])
def test_csv_format_rejected(capsys, argv):
    # only sweep writes CSV; the others must not print JSON for it
    assert cli.main([*argv, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --format csv" in captured.err


@pytest.mark.parametrize("argv", NOT_SWEEP, ids=lambda argv: argv[0])
def test_workers_rejected(capsys, argv):
    # only sweep runs trials in parallel; a flag a command never reads
    # must not pass silently
    assert cli.main([*argv, "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --workers 2" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["thresholds", "--n", "1000", "--p", "0.01", "--r", "2", "--out"],
        ["run", "--n", "500", "--p", "0.005", "--r", "2", "--a", "3", "--trace-out"],
        ["thresholds", "--n", "1000", "--p", "0.01", "--r", "2", "--config"],
    ],
    ids=lambda argv: argv[-1],
)
def test_directory_path_is_a_usage_error(capsys, tmp_path, argv):
    # a directory where a file belongs is a bad path like a missing one
    assert cli.main([*argv, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("thresholds", "--n", "2000", "--p", "0.003", "--r", "2"),
        ("run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40"),
        ("stages", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40"),
        ("sweep", "--n", "2000", "--p", "0.003", "--r", "2", "--trials", "2", "--a-list", "40"),
        ("giant", "--m", "2000", "--eps", "0.2"),
        ("bounds", "--chernoff", "lower", "--mean", "10", "--lam", "3"),
    ],
)
def test_negative_seed_rejected(argv):
    # a child process under a timeout, since a negative seed once hung;
    # thresholds and bounds draw nothing, so they take no --seed at all
    draws = argv[0] not in ("thresholds", "bounds")
    for seed in ("--seed=-5", "--seed=x"):
        proc = subprocess.run(
            [sys.executable, "-m", "bootperc.cli", *argv, seed],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        if draws:
            assert "argument --seed:" in proc.stderr and "non-negative integer" in proc.stderr
        else:
            assert f"unrecognized arguments: {seed}" in proc.stderr


class TestGiantCommand:
    def test_schema_and_prediction(self, capsys):
        code, payload = main_json(capsys, "giant", "--m", "20000", "--eps", "0.2", "--seed", "3")
        assert code == 0
        validate(payload, "giant.schema.json")
        assert abs(payload["largest_size"] - payload["predicted_size"]) < 0.05 * payload["m"]

    def test_eps_zero_rejected(self, capsys):
        assert cli.main(["giant", "--m", "100", "--eps", "0"]) == 2


class TestBoundsCommand:
    def test_chernoff_schema(self, capsys):
        code, payload = main_json(
            capsys, "bounds", "--chernoff", "lower", "--mean", "50", "--lam", "10"
        )
        assert code == 0
        validate(payload, "bounds.schema.json")
        assert payload["bound"] == pytest.approx(0.3678794, rel=1e-6)

    def test_lambda_zero_gives_one(self, capsys):
        code, payload = main_json(
            capsys, "bounds", "--martingale", "--lam", "0", "--max-step", "1", "--var-sum", "5"
        )
        assert code == 0
        assert payload["bound"] == 1.0

    def test_monotone_in_lambda(self, capsys):
        values = []
        for lam in ["1", "5", "10", "20"]:
            _, payload = main_json(
                capsys, "bounds", "--chernoff", "upper", "--mean", "50", "--lam", lam
            )
            values.append(payload["bound"])
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_requires_exactly_one_kind(self, capsys):
        assert cli.main(["bounds", "--mean", "5", "--lam", "1"]) == 2
        assert (
            cli.main(
                ["bounds", "--chernoff", "lower", "--martingale", "--mean", "5", "--lam", "1"]
            )
            == 2
        )

    def test_missing_value_flags(self, capsys):
        assert cli.main(["bounds", "--martingale", "--lam", "3"]) == 2

    THEOREM = ["--n", "1000000", "--p", "0.0001", "--r", "2", "--alpha", "30"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--theorem1", *THEOREM, "--lam", "5"], "--theorem1 does not read --lam"),
            (["--theorem2", *THEOREM, "--mean", "1", "--var-sum", "2"], "--theorem2 does not read --mean, --var-sum"),
            (["--chernoff", "lower", "--mean", "50", "--lam", "10", "--n", "7"], "--chernoff does not read --n"),
            (["--martingale", "--lam", "1", "--max-step", "1", "--var-sum", "1", "--alpha", "3"],
             "--martingale does not read --alpha"),
        ],
    )
    def test_flags_of_another_kind_rejected(self, capsys, argv, message):
        # each kind reads only its own flags; another kind's flag once passed unread
        assert cli.main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_config_key_of_another_kind_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("lam=5\n")
        assert cli.main(["bounds", "--theorem1", *self.THEOREM, "--config", str(cfg)]) == 2
        assert "--theorem1 does not read --lam" in capsys.readouterr().err

    def test_missing_flags_named_from_the_table(self, capsys):
        assert cli.main(["bounds", "--martingale", "--lam", "3"]) == 2
        assert "--martingale needs --lam, --max-step and --var-sum" in capsys.readouterr().err
        assert cli.main(["bounds", "--theorem2", "--n", "1000"]) == 2
        assert "--theorem2 needs --n, --p, --r and --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--theorem1", *THEOREM[:-1], "inf"], "alpha must be finite and > 0, got inf"),
            (["--theorem2", *THEOREM[:-1], "inf"], "alpha must be finite and > 0, got inf"),
            (["--martingale", "--lam", "inf", "--max-step", "1", "--var-sum", "1"], "lambda must be finite"),
            (["--chernoff", "upper", "--mean", "inf", "--lam", "1"], "mean and lambda must be finite"),
        ],
    )
    def test_non_finite_inputs_rejected(self, capsys, argv, message):
        # these once printed "alpha": Infinity, "bound": NaN or "mean": Infinity
        assert cli.main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_no_nan_reaches_stdout(self, capsys, monkeypatch):
        # the backstop: a NaN that gets past the checks is an error, not output
        monkeypatch.setattr(thresholds, "chernoff_lower", lambda mean, lam: math.nan)
        assert cli.main(["bounds", "--chernoff", "lower", "--mean", "50", "--lam", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Out of range float values are not JSON compliant" in captured.err


class TestSweepCommand:
    def test_csv_output(self, capsys):
        code = cli.main(
            [
                "sweep", "--n", "2000", "--p", "0.004", "--r", "2",
                "--trials", "6", "--a-list", "0,2000", "--seed", "9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,alpha_offset,p_hat,wilson_lo,wilson_hi,mean_final_size,mean_T,theorem_bound"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert first[0] == "0" and float(first[2]) == 0.0
        assert last[0] == "2000" and float(last[2]) == 1.0

    def test_json_rows_schema(self, capsys):
        code, rows = main_json(
            capsys,
            "sweep", "--n", "2000", "--p", "0.004", "--r", "2",
            "--trials", "5", "--a-list", "0,50", "--seed", "9", "--format", "json",
        )
        assert code == 0
        validate(rows, "sweep_rows.schema.json")

    def test_workers_must_be_positive(self, capsys):
        base = ["sweep", "--n", "1500", "--p", "0.004", "--r", "2", "--trials", "2", "--a-list", "5"]
        for workers in ("0", "-2", "x"):
            assert cli.main([*base, "--workers", workers]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "argument --workers:" in captured.err and "positive integer" in captured.err

    def test_needs_a_values(self, capsys):
        assert (
            cli.main(["sweep", "--n", "2000", "--p", "0.004", "--r", "2", "--trials", "5"]) == 2
        )

    SWEEP = ["sweep", "--n", "2000", "--p", "0.003", "--r", "2", "--trials", "2"]

    def test_one_list_only(self, capsys):
        # --a-list once won and the offsets were dropped without a word
        assert cli.main([*self.SWEEP, "--a-list", "5", "--alpha-list", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --alpha-list: not allowed with argument --a-list" in captured.err

    @pytest.mark.parametrize(
        "flag, text, kind",
        [("--a-list", ",", "integers"), ("--a-list", "5,,40", "integers"), ("--a-list", "x", "integers"),
         ("--alpha-list", "", "numbers"), ("--alpha-list", "1,", "numbers")],
    )
    def test_malformed_list_rejected(self, capsys, flag, text, kind):
        # `--a-list ,` once ended in "internal error: list index out of range"
        assert cli.main([*self.SWEEP, f"{flag}={text}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected comma-separated {kind}, got {text!r}" in captured.err
        assert "internal error" not in captured.err

    def test_huge_offsets_clamp(self, capsys):
        # a = ac + 1e308 sqrt(ac) once overflowed to "cannot convert float infinity to integer"
        code, rows = main_json(capsys, *self.SWEEP, "--alpha-list=1e308,-1e308", "--format", "json")
        assert code == 0
        assert [row["a"] for row in rows] == [2000, 0]

    @pytest.mark.parametrize("a_list", ["--a-list=10,40,70", "--alpha-list=-2,0,2"])
    def test_one_critical_scan(self, capsys, monkeypatch, a_list):
        calls = []
        scan = thresholds.critical_pair
        monkeypatch.setattr(thresholds, "critical_pair", lambda params: calls.append(params) or scan(params))
        assert cli.main([*self.SWEEP, a_list]) == 0
        assert len(calls) == 1

    def test_explicit_sweep_samples_one_graph_per_trial(self, capsys, monkeypatch):
        from bootperc import montecarlo

        calls = []
        sample = montecarlo.sample_gnp_with
        monkeypatch.setattr(montecarlo, "sample_gnp_with", lambda *a: calls.append(a) or sample(*a))
        assert cli.main([*self.SWEEP, "--a-list=10,40,70", "--mode", "explicit"]) == 0
        assert len(calls) == 2


class TestConfigOverlay:
    def test_file_values_used(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=2000\np=0.004\nr=2\ntrials=4  # comment\n")
        code = cli.main(["sweep", "--config", str(cfg), "--a-list", "0,10", "--seed", "1"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_flags_win_over_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=999999\np=0.5\n")
        code, payload = main_json(
            capsys,
            "thresholds", "--config", str(cfg), "--n", "1000000", "--p", "0.0001", "--r", "2",
        )
        assert code == 0
        assert payload["n"] == 1000000
        assert payload["p"] == 0.0001

    def test_equals_form_wins_over_file(self, capsys, tmp_path):
        cfg = tmp_path / "f"
        cfg.write_text("n=10\n")
        code, payload = main_json(
            capsys, "thresholds", "--n=2000", "--p", "0.003", "--r", "2", "--config", str(cfg)
        )
        assert code == 0
        assert payload["n"] == 2000
        code, payload = main_json(capsys, "thresholds", "--p", "0.003", "--r", "2", f"--config={cfg}")
        assert code == 0
        assert payload["n"] == 10

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        for text in ("bogus=1\n", "seed=1\n", "workers=2\n"):
            # seed and workers are keys, but not flags of thresholds
            cfg.write_text(text)
            assert cli.main(["thresholds", "--config", str(cfg), "--n", "10", "--p", "0.1", "--r", "2"]) == 2

    def test_negative_seed_in_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=-3\n")
        code = cli.main(["run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40", "--config", str(cfg)])
        assert code == 2
        assert "must be a non-negative integer, got -3" in capsys.readouterr().err

    def test_bad_value_names_key_and_file(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("trials=x\n")
        code = cli.main(["sweep", "--n", "1500", "--p", "0.004", "--r", "2", "--a-list", "5", "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --trials: invalid int value: 'x'" in err
        assert f"config file {cfg} gave --trials=x" in err

    def test_any_flag_is_a_key(self, capsys, tmp_path):
        # keys are the parser's own flags, so bounds' lam and every
        # command's out work as keys too
        cfg = tmp_path / "b.cfg"
        target = tmp_path / "bound.json"
        cfg.write_text(f"mean=50\nlam=10\nout={target}\n")
        assert cli.main(["bounds", "--chernoff", "lower", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert (payload["mean"], payload["lam"]) == (50.0, 10.0)
        assert payload["bound"] == pytest.approx(0.3678794, rel=1e-6)

    def test_missing_file(self, capsys):
        assert cli.main(["thresholds", "--config", "/nonexistent.cfg", "--n", "10", "--p", "0.1", "--r", "2"]) == 2

    RUN = ["run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40"]

    def test_abbreviated_config_rejected(self, capsys, tmp_path):
        # `--conf` once parsed as --config, but its file was never read
        cfg = tmp_path / "f.cfg"
        cfg.write_text("seed=5\n")
        for argv in ([*self.RUN, "--conf", str(cfg)], [*self.RUN, f"--conf={cfg}"]):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "unrecognized arguments: --conf" in captured.err
        code, payload = main_json(capsys, *self.RUN, "--config", str(cfg))
        assert code == 0 and payload["seed"] == 5

    def test_nested_config_rejected(self, capsys, tmp_path):
        # a `config=` line once went in as --config=... and its file was never read
        (tmp_path / "f.cfg").write_text("seed=5\n")
        nested = tmp_path / "nested.cfg"
        nested.write_text(f"config={tmp_path / 'f.cfg'}\n")
        assert cli.main([*self.RUN, "--config", str(nested)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{nested}:1: a config file cannot load another" in captured.err

    def test_abbreviated_flag_rejected(self, capsys, tmp_path):
        # `--thr 0.5`, or `thr=0.5` in a file, once set --threshold
        cfg = tmp_path / "t.cfg"
        cfg.write_text("thr=0.5\n")
        assert cli.main([*self.RUN, "--thr", "0.5"]) == 2
        assert "unrecognized arguments: --thr 0.5" in capsys.readouterr().err
        assert cli.main([*self.RUN, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --thr=0.5" in err and f"config file {cfg} gave --thr=0.5" in err


class TestDeterminism:
    def test_run_byte_identical(self):
        args = ["run", "--n", "1000", "--p", "0.003", "--r", "2", "--a", "25", "--seed", "42"]
        c1, out1, _ = run_cli(*args)
        c2, out2, _ = run_cli(*args)
        assert c1 == c2 == 0
        assert out1 == out2

    def test_workers_do_not_change_output(self):
        base = [
            "sweep", "--n", "1500", "--p", "0.004", "--r", "2",
            "--trials", "8", "--a-list", "5,40", "--seed", "17",
        ]
        c1, out1, _ = run_cli(*base, "--workers", "1")
        c2, out2, _ = run_cli(*base, "--workers", "8")
        assert c1 == c2 == 0
        assert out1 == out2

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, stdout, _ = run_cli(
            "thresholds", "--n", "1000000", "--p", "0.0001", "--r", "2", "--out", str(target)
        )
        assert code == 0
        assert stdout == ""
        payload = json.loads(target.read_text())
        validate(payload, "thresholds.schema.json")
