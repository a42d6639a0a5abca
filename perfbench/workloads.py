"""The benchmark's three workloads.

A workload object is built from the run's seed (that is its input
preparation), runs one fixed round of work per call to `round(i)`, and
checks the rounds it ran with `check(rounds)`.  Round i's inputs depend
only on (seed, i), so a traced replay of rounds 0..k-1 does exactly the
work the untraced rounds did.

Library workloads call bootperc through module attributes
(`engine.run_process`, `montecarlo.run_experiment`), so the tracer's wrappers
see the calls when a traced run installs them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bootperc import engine, montecarlo, thresholds
from bootperc.engine import ImplicitSource, SeedSpec, TraceOptions
from bootperc.montecarlo import CLASS_ALMOST, ExperimentConfig, SeedSizeSpec
from bootperc.thresholds import ProcessParams

SWEEP_POINT = (50_000, 4e-4, 2)
SWEEP_OFFSETS = (-4.0, 4.0)  # the cli_session sweep's c values
WINDOW_POINT = (1_000_000, 1e-4, 2)
WINDOW_RUNS = 16  # run_process calls per round
STAGES_A = 97
STAGES_TRIALS = 3  # explicit trials per round
CLI_A = 98


def sub_seed(seed: int, *parts: int) -> int:
    """A 63-bit seed for one input, a pure function of (seed, parts)."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1, np.uint64)[0] >> 1)


class WindowImplicit:
    """Direct `engine.run_process` calls at n = 10^6 from a = round(a_c),
    each capped at t0_int steps."""

    name = "window_implicit"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = ProcessParams(*WINDOW_POINT)
        crit = thresholds.critical_pair(self.params)
        self.a = round(crit.ac)
        self.opts = TraceOptions(max_steps=crit.t0_int)

    def round(self, i: int) -> dict:
        runs = []
        for k in range(WINDOW_RUNS):
            source = ImplicitSource(self.params, seed=sub_seed(self.seed, 2, i, k))
            trace = engine.run_process(source, SeedSpec.prefix(self.a), self.params.r, self.opts)
            runs.append((trace.T, trace.final_size, trace.infected_sizes[: self.a + 1].copy()))
        return {"ops": WINDOW_RUNS, "failed": 0, "trials": WINDOW_RUNS, "runs": runs}

    def check(self, rounds: list[dict]) -> list[str]:
        import checks
        import reference

        n, p, r = WINDOW_POINT
        ref = reference.critical_scan(n, p, r)
        errs = []
        if self.a != round(ref["ac"]) or self.opts.max_steps != ref["t0_int"]:
            errs.append(f"window a/max_steps {self.a}/{self.opts.max_steps} != {round(ref['ac'])}/{ref['t0_int']}")
        runs = [run for rd in rounds for run in rd["runs"]]
        errs += checks.check_finished_runs([(T, size) for T, size, _ in runs])
        errs += checks.check_capped([size for T, size, _ in runs if T is None], self.opts.max_steps)
        sizes = np.stack([traj for _, _, traj in runs])
        return errs + checks.check_window(sizes, self.a, n, p, r)


class ExplicitStages:
    """`montecarlo.run_experiment` in explicit mode with stage diagnostics."""

    name = "explicit_stages"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = ProcessParams(*SWEEP_POINT)

    def round(self, i: int) -> dict:
        summary = montecarlo.run_experiment(
            ExperimentConfig(
                params=self.params,
                seed_size=SeedSizeSpec(a=STAGES_A),
                trials=STAGES_TRIALS,
                master_seed=sub_seed(self.seed, 3, i),
                mode="explicit",
                stage_diagnostics=True,
                workers=1,
            )
        )
        q = summary.stage_quantiles
        return {
            "ops": 1,
            "failed": 0,
            "trials": STAGES_TRIALS,
            "almost": summary.class_counts[CLASS_ALMOST],
            "p_hat": summary.empirical_percolation_probability,
            "lo": summary.wilson_low,
            "hi": summary.wilson_high,
            "median_b": q["median_size_B"],
            "median_bhat": q["median_size_Bhat"],
            "runs": [(o.T, o.final_size) for o in summary.outcomes],
        }

    def check(self, rounds: list[dict]) -> list[str]:
        import checks

        errs = []
        for rd in rounds:
            errs += checks.check_point(STAGES_A, rd["almost"], STAGES_TRIALS, rd["p_hat"], rd["lo"], rd["hi"])
            errs += checks.check_finished_runs(rd["runs"])
        almost = sum(rd["almost"] for rd in rounds)
        medians = [(rd["median_b"], rd["median_bhat"]) for rd in rounds]
        return errs + checks.check_stages_summary(almost, STAGES_TRIALS * len(rounds), medians)


class CliSession:
    """A fixed list of `bootperc` commands, one subprocess at a time.

    The last command is a known fault: `--n=2000` loses to `n=10` in the
    config file, because the overlay only recognises the bare `--n`
    token.  It is counted as failed while its output says n = 10.
    """

    name = "cli_session"

    def __init__(self, seed: int, root: Path, results: Path, traced: bool = False):
        self.seed = seed
        self.root = root
        self.results = results
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        entry = [str(root / "perfbench" / "traced_cli.py")] if traced else ["-m", "bootperc.cli"]
        self.prefix = [sys.executable, *entry]
        self.overlay = results / "overlay.conf"
        self.overlay.write_text("n=10\n")

    def commands(self, i: int) -> list[tuple[str, list[str]]]:
        n, p, r = (str(x) for x in SWEEP_POINT)
        point = ["--n", n, "--p", p, "--r", r]
        s = [str(sub_seed(self.seed, 4, i, k)) for k in range(5)]
        return [
            ("thresholds", ["thresholds", "--n", "1000000", "--p", "2e-6", "--r", "2"]),
            ("thresholds", ["thresholds", "--n", "1000000", "--p", "1e-5", "--r", "3"]),
            ("thresholds", ["thresholds", "--n", "10000000", "--p", "1e-6", "--r", "2"]),
            ("giant", ["giant", "--m", "100000", "--eps", "0.2", "--seed", s[0]]),
            ("run", ["run", *point, "--a", str(CLI_A), "--seed", s[1], "--trace-out", str(self.trace_path(i))]),
            ("stages", ["stages", *point, "--a", str(CLI_A), "--seed", s[2]]),
            ("run", ["run", *point, "--a", str(CLI_A), "--mode", "explicit", "--seed", s[3]]),
            ("bounds", ["bounds", "--theorem1", "--n", "1000000", "--p", "0.0001", "--r", "2", "--alpha", "30"]),
            ("sweep", ["sweep", *point, "--trials", "2", "--alpha-list=-4,4", "--seed", s[4]]),
            ("thresholds", ["thresholds", "--n=2000", "--p", "0.003", "--r", "2", "--config", str(self.overlay)]),
        ]

    def trace_path(self, i: int) -> Path:
        return self.results / f"cli_trace_r{i}.csv"

    def startup(self) -> float:
        """Wall time of a bootperc process that parses `--help` and exits."""
        t = time.perf_counter()
        subprocess.run([*self.prefix, "--help"], env=self.env, cwd=self.root, capture_output=True, timeout=60, check=True)
        return time.perf_counter() - t

    def round(self, i: int, spans_dir: Path | None = None) -> dict:
        outputs = []
        for k, (kind, argv) in enumerate(self.commands(i)):
            env = self.env
            if spans_dir is not None:
                env = dict(env, PERFBENCH_SPANS=str(spans_dir / f"spans_r{i}_{k}.json"))
            t = time.perf_counter()
            try:
                proc = subprocess.run(
                    [*self.prefix, *argv], env=env, cwd=self.root, capture_output=True, text=True, timeout=120
                )
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = None, ""
            outputs.append({"kind": kind, "argv": argv, "s": time.perf_counter() - t, "code": code, "stdout": stdout})
        failed = sum(1 for o in outputs if self._failed(o))
        # process runs: run, stages, explicit run, and the sweep's 2 x 2
        return {"ops": len(outputs), "failed": failed, "trials": 7, "outputs": outputs}

    @staticmethod
    def _failed(o: dict) -> bool:
        if o["code"] != 0:
            return True
        if "--n=2000" in o["argv"]:
            return json.loads(o["stdout"])["n"] != 2000
        return False

    def check(self, rounds: list[dict]) -> list[str]:
        import checks

        n, p, r = SWEEP_POINT
        errs = []
        sweeps = []
        for i, rd in enumerate(rounds):
            for o in rd["outputs"]:
                if self._failed(o):
                    continue
                if o["kind"] == "sweep":
                    sweeps.append(self._sweep_rows(o["stdout"]))
                    continue
                out = json.loads(o["stdout"])
                if o["kind"] == "thresholds":
                    asked = (int(_flag(o["argv"], "n")), float(_flag(o["argv"], "p")), int(_flag(o["argv"], "r")))
                    errs += checks.check_thresholds_payload(out, *asked)
                elif o["kind"] == "giant":
                    errs += checks.check_giant(out)
                elif o["kind"] == "run":
                    errs += checks.check_run_payload(out, n)
                    if "trace_csv" in out:
                        rows = np.loadtxt(self.trace_path(i), delimiter=",", skiprows=1, ndmin=2)
                        errs += checks.check_trace_rows(rows, out, n, p, r)
                elif o["kind"] == "stages":
                    errs += checks.check_stage_payload(out, n, p, r, self._ac())
                elif o["kind"] == "bounds":
                    errs += checks.check_bound_payload(out)
        if sweeps:
            errs += self._check_sweeps(sweeps)
        return errs

    def _ac(self) -> float:
        import reference

        return reference.critical_scan(*SWEEP_POINT)["ac"]

    @staticmethod
    def _sweep_rows(text: str) -> list[dict]:
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        for row in rows:
            row["a"] = int(row["a"])
        return rows

    def _check_sweeps(self, sweeps: list[list[dict]]) -> list[str]:
        """Each sweep's rows, then p_hat(c=4) - p_hat(c=-4) pooled over the run."""
        import checks

        n, p, r = SWEEP_POINT
        ac = self._ac()
        want_a = [round(ac + c * math.sqrt(ac)) for c in SWEEP_OFFSETS]
        errs = []
        for rows in sweeps:
            if [row["a"] for row in rows] != want_a:
                return [f"sweep rows for a = {[row['a'] for row in rows]}, reference {want_a}"]
            errs += checks.check_sweep_rows(rows, 2, n, p, r, ac)
        lo = sum(round(rows[0]["p_hat"] * 2) for rows in sweeps)
        hi = sum(round(rows[-1]["p_hat"] * 2) for rows in sweeps)
        return errs + checks.check_sweep_gap(lo, hi, 2 * len(sweeps))


def _flag(argv: list[str], name: str) -> str:
    """The value given to --name, as `--name value` or `--name=value`."""
    for k, tok in enumerate(argv):
        if tok == f"--{name}":
            return argv[k + 1]
        if tok.startswith(f"--{name}="):
            return tok.split("=", 1)[1]
    raise KeyError(name)


LIBRARY_WORKLOADS = {w.name: w for w in (WindowImplicit, ExplicitStages)}
