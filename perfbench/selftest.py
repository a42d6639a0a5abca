"""Self-test of the benchmark's checks: each check must pass a correct
output, built here from the reference computations, and fail one
deliberately wrong output.

Usage: python3 perfbench/selftest.py    (exit code 0 when every check
passes its correct output and rejects its wrong one)
"""

from __future__ import annotations

import sys

import numpy as np

import checks
import reference

N, P, R = 50_000, 4e-4, 2
WN, WP, WA = 1_000_000, 1e-4, 51


def critical_cases():
    ref = reference.critical_scan(N, P, R)
    good = {"tc": ref["tc"], "ac": ref["ac"], "t0_int": ref["t0_int"]}
    k = ref["tc"] - R
    yield "critical", checks.check_critical, (good, N, P, R), (
        dict(good, ac=-float(ref["deficit"][k + 1])), N, P, R), "a_c off by one scan step"
    yield "critical", checks.check_critical, (good, N, P, R), (dict(good, tc=ref["tc"] + 1), N, P, R), "t_c + 1"


def sweep_cases():
    lo, hi = reference.wilson(3, 4)
    yield "point", checks.check_point, (65, 3, 4, 0.75, lo, hi), (65, 3, 4, 0.75, hi, lo), "Wilson bounds swapped"
    yield "point", checks.check_point, (65, 3, 4, 0.75, lo, hi), (65, 3, 4, 0.25, lo, hi), "p_hat != successes/trials"
    yield "sweep_gap", checks.check_sweep_gap, (0, 6, 6), (6, 0, 6), "p_hat of c=-4 and c=+4 swapped"
    yield "finished_runs", checks.check_finished_runs, ([(60, 60), (None, 200)],), ([(60, 61)],), "T != final_size"


def window_cases():
    rng = np.random.default_rng(1)
    t = np.arange(WA + 1)

    def trajectories(threshold):
        pi_t = reference.pi(t, WP, threshold)
        return WA + rng.binomial(WN - WA, pi_t, size=(160, len(t)))

    yield "window", checks.check_window, (trajectories(R), WA, WN, WP, R), (
        trajectories(R - 1), WA, WN, WP, R), "infection at r-1 neighbours"
    yield "capped", checks.check_capped, ([133, 150], 132), ([132], 132), "capped run with final_size <= max_steps"


def stages_cases():
    yield "stages_summary", checks.check_stages_summary, (30, 30, [(900, 1400)]), (
        30, 30, [(1400, 900)]), "median |B| and |B-hat| swapped"
    yield "stages_summary", checks.check_stages_summary, (30, 30, [(900, 1400)]), (
        20, 30, [(900, 1400)]), "too few almost-percolated trials"


def cli_cases():
    n, p, r = 1_000_000, 2e-6, 2
    ref = reference.critical_scan(n, p, r)
    thr = {"n": n, "p": p, "r": r, "tc": ref["tc"], "ac": ref["ac"], "t0_int": ref["t0_int"],
           "delta": reference.delta(n, p, r), "t0": reference.t0(n, p, r)}
    yield "thresholds", checks.check_thresholds_payload, (thr, n, p, r), (dict(thr, n=10), n, p, r), "echoed n = 10"
    yield "thresholds", checks.check_thresholds_payload, (thr, n, p, r), (
        dict(thr, delta=thr["delta"] * 1.001), n, p, r), "delta off by 0.1%"

    rho = reference.rho(0.2)
    giant = {"m": 100_000, "eps": 0.2, "rho": rho, "largest_size": round(rho * 100_000)}
    yield "giant", checks.check_giant, (giant,), (dict(giant, rho=rho * 1.01),), "rho off by 1%"
    yield "giant", checks.check_giant, (giant,), (dict(giant, largest_size=50_000),), "giant far from rho m"

    run = {"a": 98, "T": 49_990, "final_size": 49_990, "percolation_threshold": 0.9,
           "classification": "AlmostPercolated"}
    yield "run", checks.check_run_payload, (run, N), (dict(run, classification="Stopped"), N), "wrong class"

    sizes = np.array([98, 98, 98, 99, 101, 104, 104, 105])
    t = np.arange(len(sizes))
    pi_t = reference.pi(t, P, R)
    mart = (sizes - 98 - (N - 98) * pi_t) / (1.0 - pi_t)
    rows = np.column_stack([t, sizes, mart])
    trace = {"a": 98, "T": 7, "final_size": 105}
    shifted = rows.copy()
    pi_prev = reference.pi(np.maximum(t - 1, 0), P, R)
    shifted[:, 2] = (sizes - 98 - (N - 98) * pi_prev) / (1.0 - pi_prev)
    yield "trace_rows", checks.check_trace_rows, (rows, trace, N, P, R), (
        shifted, trace, N, P, R), "martingale with pi(t-1)"
    yield "trace_rows", checks.check_trace_rows, (rows, trace, N, P, R), (
        rows, dict(trace, T=8), N, P, R), "row count != T + 1"

    ac = reference.critical_scan(N, P, R)["ac"]
    pred = reference.stage_predictions(N, P, R, 98 - ac)
    stage = dict(run, stages={"alpha": 98 - ac, "t1": pred["t1"], "pred_Bhat": pred["pred_Bhat"],
                              "pred_B": pred["pred_B"], "pred_C": pred["pred_C"],
                              "size_B": 900, "size_Bhat": 1400})
    bad = dict(stage, stages=dict(stage["stages"], pred_B=pred["pred_Bhat"]))
    yield "stage", checks.check_stage_payload, (stage, N, P, R, ac), (bad, N, P, R, ac), "pred_B = pred_Bhat"

    def row(a, successes):
        lo, hi = reference.wilson(successes, 2)
        off = a - ac
        return {"a": a, "p_hat": successes / 2, "wilson_lo": lo, "wilson_hi": hi, "alpha_offset": off,
                "theorem_bound": reference.theorem_bound(N, P, R, abs(off), off > 0),
                "mean_T": 60.0, "mean_final_size": 60.0}

    rows_ok = [row(33, 0), row(98, 2)]
    rows_bad = [row(33, 0), dict(row(98, 2), theorem_bound=row(33, 0)["theorem_bound"])]
    yield "sweep_rows", checks.check_sweep_rows, (rows_ok, 2, N, P, R, ac), (
        rows_bad, 2, N, P, R, ac), "subcritical bound on a supercritical row"

    bound = {"kind": "theorem1", "n": 1_000_000, "p": 1e-4, "r": 2, "alpha": 30.0,
             "bound": reference.theorem_bound(1_000_000, 1e-4, 2, 30.0, False)}
    yield "bound", checks.check_bound_payload, (bound,), (dict(bound, kind="theorem2"),), "theorem2 label"


def main() -> int:
    bad = 0
    for group in (critical_cases, sweep_cases, window_cases, stages_cases, cli_cases):
        for name, check, good, wrong, what in group():
            passes = not check(*good)
            rejects = bool(check(*wrong))
            ok = passes and rejects
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'} {name}: correct output {'passes' if passes else 'FAILS'}, "
                  f"wrong output ({what}) {'rejected' if rejects else 'ACCEPTED'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
