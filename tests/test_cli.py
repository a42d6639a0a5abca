import json
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

    def test_missing_file(self, capsys):
        assert cli.main(["thresholds", "--config", "/nonexistent.cfg", "--n", "10", "--p", "0.1", "--r", "2"]) == 2


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
