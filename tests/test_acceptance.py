"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to watch them).

The phase-transition criterion runs at a pilot-calibrated parameter point
(PT_*); the calibration pilot and the recorded constants live here.
"""

import math
import subprocess
import sys

import numpy as np

import bootperc as bp
from bootperc.engine import (
    ImplicitSource,
    SeedSpec,
    TraceOptions,
    martingale_series,
    run_direct,
    run_process,
)
from bootperc.graph import largest_component, sample_gnp
from bootperc.montecarlo import (
    ExperimentConfig,
    SeedSizeSpec,
    run_experiment,
    wilson_interval,
)
from bootperc.rng import make_generator
from bootperc.thresholds import ProcessParams, binom_tail_geq
from test_engine import seeds_first

# --- pilot-calibrated phase-transition point (criterion 7) -----------------
# np = 20, np^2 = 0.008: inside the regime, and a full supercritical cascade
# at n = 5e4 runs in well under a second, keeping 600 trials minutes-scale.
PT_N = 50_000
PT_P = 4e-4
PT_R = 2
PT_TRIALS = 300
PT_MASTER_SEED = 20_260_808


CRITERION_LINES: list[str] = []  # conftest prints these after the run


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} {name}: {detail}"


def test_01_engine_oracle_equivalence():
    rng = np.random.default_rng(1001)
    mismatches = 0
    for case in range(200):
        n = int(rng.integers(20, 501))
        p = float(rng.choice([0.02, 0.05, 0.1]))
        r = int(rng.choice([2, 3]))
        g = sample_gnp(n, p, seed=int(rng.integers(0, 2**60)))
        k = int(rng.integers(0, n // 2 + 1))
        seeds = rng.choice(np.arange(1, n + 1), size=k, replace=False).tolist()
        oracle, _ = run_direct(g, seeds, r)
        # the engine starts from {1..k}: run it on g renumbered to seed those
        relabelled, old = seeds_first(g, seeds)
        trace = run_process(relabelled, SeedSpec.prefix(k), r)
        if frozenset(old[trace.final_infected].tolist()) != oracle:
            mismatches += 1
    _criterion(1, "engine oracle equivalence", mismatches == 0, f"{mismatches}/200 mismatches")


def test_02_seed_monotonicity():
    rng = np.random.default_rng(1002)
    violations = 0
    for case in range(100):
        n = int(rng.integers(30, 400))
        g = sample_gnp(n, float(rng.choice([0.02, 0.05])), seed=int(rng.integers(0, 2**60)))
        small = set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, 9)), replace=False).tolist())
        extra = set(rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, 9)), replace=False).tolist())
        f_small, _ = run_direct(g, small, 2)
        f_big, _ = run_direct(g, small | extra, 2)
        if not f_small <= f_big:
            violations += 1
    _criterion(2, "seed monotonicity", violations == 0, f"{violations}/100 violations")


def test_03_binomial_tail_correctness():
    def enumerate_tail(t, p, r):
        total = 0.0
        for mask in range(2**t):
            k = bin(mask).count("1")
            if k >= r:
                total += p**k * (1.0 - p) ** (t - k)
        return total

    worst = 0.0
    for r in (2, 3):
        for p in (1e-3, 0.05, 0.3, 0.7):
            for t in range(13):
                worst = max(worst, abs(binom_tail_geq(t, p, r) - enumerate_tail(t, p, r)))
    mono_ok = True
    for p in (1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9):
        vals = [binom_tail_geq(t, p, 2) for t in range(0, 10_001, 13)]
        mono_ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    for t in (10, 100, 2000, 10_000):
        vals = [binom_tail_geq(t, p, 3) for p in (1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9)]
        mono_ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    ok = worst < 1e-12 and mono_ok
    _criterion(3, "binomial tail correctness", ok, f"max |err| = {worst:.2e}, monotone = {mono_ok}")


def test_04_critical_value_sanity():
    crit = bp.critical_pair(ProcessParams(n=10**6, p=1e-4, r=2))
    tc_rel = abs(crit.tc - crit.tc_asym) / crit.tc_asym
    ac_rel = abs(crit.ac - crit.ac_asym) / crit.ac_asym
    ok = crit.tc_asym == 100.0 and tc_rel < 0.15 and ac_rel < 0.20
    _criterion(4, "critical values near asymptotics", ok,
               f"tc = {crit.tc} ({tc_rel:.1%} off 100), ac = {crit.ac:.2f} ({ac_rel:.1%} off 50)")


def test_05_martingale_zero_drift():
    params = ProcessParams(n=100_000, p=5e-4, r=2)  # np = 50
    crit = bp.critical_pair(params)
    a = round(crit.ac)
    trials = 2000
    series, size_rows = [], []
    for trial in range(trials):
        src = ImplicitSource(params, rng=make_generator(505, trial, 0))
        tr = run_process(src, SeedSpec.prefix(a), 2, TraceOptions(max_steps=crit.t0_int))
        series.append(martingale_series(tr, params))
        size_rows.append(tr.infected_sizes)
    tmin = min(len(s) for s in series) - 1
    mat = np.stack([s[: tmin + 1] for s in series])
    mean = mat.mean(axis=0)
    se = mat.std(axis=0, ddof=1) / math.sqrt(trials)
    zmax = float(np.max(np.abs(mean[1:]) / np.maximum(se[1:], 1e-12)))
    # equivalent phrasing on the same prefix: mean |A(t)| vs a + (n-a) pi_hat(t)
    sizes = np.stack([s[: tmin + 1] for s in size_rows]).astype(float)
    s_mean = sizes.mean(axis=0)
    s_se = sizes.std(axis=0, ddof=1) / math.sqrt(trials)
    expected = np.array(
        [a + (params.n - a) * binom_tail_geq(t, params.p, 2) for t in range(tmin + 1)]
    )
    z2 = float(np.max(np.abs(s_mean[1:] - expected[1:]) / np.maximum(s_se[1:], 1e-12)))
    ok = zmax <= 4.0 and z2 <= 4.0
    _criterion(5, "martingale zero drift", ok,
               f"max |mean M / SE| = {zmax:.2f}, max |mean A - EA| / SE = {z2:.2f} "
               f"over t <= {tmin}, {trials} trials")


def test_06_giant_component():
    rho = bp.rho_fixed_point(0.2)
    n = 100_000
    target = rho * n
    hits = 0
    for seed in range(100):
        g = sample_gnp(n, 1.2 / n, seed=seed)
        size = largest_component(g).largest_size
        hits += abs(size - target) < 0.05 * n
    _criterion(6, "giant component size", hits >= 95, f"{hits}/100 seeds within 5% of rho*n = {target:.0f}")


def test_07_phase_transition_dichotomy():
    params = ProcessParams(n=PT_N, p=PT_P, r=PT_R)
    crit = bp.critical_pair(params)
    alpha = 4 * math.ceil(math.sqrt(crit.ac))
    a_hi = round(crit.ac) + alpha
    a_lo = round(crit.ac) - alpha
    s_hi = run_experiment(
        ExperimentConfig(params=params, seed_size=SeedSizeSpec(a=a_hi),
                         trials=PT_TRIALS, master_seed=PT_MASTER_SEED, workers=2)
    )
    s_lo = run_experiment(
        ExperimentConfig(params=params, seed_size=SeedSizeSpec(a=a_lo),
                         trials=PT_TRIALS, master_seed=PT_MASTER_SEED, workers=2)
    )
    gap = s_hi.empirical_percolation_probability - s_lo.empirical_percolation_probability
    # the subcritical event of the paper: the run stops before t_c
    sub_frac = sum(o.final_size < s_lo.critical.tc for o in s_lo.outcomes) / PT_TRIALS
    ok = gap >= 0.8 and sub_frac >= 0.9
    _criterion(7, "phase transition dichotomy", ok,
               f"gap = {gap:.3f} (alpha = {alpha}, a = {a_lo}/{a_hi}), "
               f"stopped before t_c = {sub_frac:.3f}")


def test_08_chernoff_tail_domination():
    n_samples, n_bin, p_bin = 100_000, 1000, 0.3
    mean = n_bin * p_bin
    draws = make_generator(808).binomial(n_bin, p_bin, size=n_samples)
    ok = True
    details = []
    for lam in (10, 20, 30):
        successes = int(np.sum(draws - mean <= -lam))
        bound = bp.chernoff_lower(mean, lam)
        lo, _ = wilson_interval(successes, n_samples)
        # domination up to Wilson slack: even the optimistic lower end of
        # the empirical frequency's interval must not beat the bound
        ok &= lo <= bound
        details.append(f"lam={lam}: {successes / n_samples:.4f} <= {bound:.4f}")
    _criterion(8, "Chernoff lower-tail domination", ok, "; ".join(details))


def test_09_g_function_property():
    grid = np.linspace(0.0, 3.0, 1002)[1:-1]  # 1000 interior points
    bound_ok = all(bp.g_function(float(x)) < 1.0 / (1.0 - x / 3.0) for x in grid)
    xs = np.linspace(0.0, 10.0, 1000)
    vals = [bp.g_function(float(x)) for x in xs]
    mono_ok = all(b > a for a, b in zip(vals, vals[1:]))
    _criterion(9, "g-function bound and monotonicity", bound_ok and mono_ok,
               f"bound = {bound_ok}, monotone = {mono_ok}")


def test_10_cli_determinism():
    def run_cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "bootperc.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    commands = [
        ("thresholds", "--n", "1000000", "--p", "0.0001", "--r", "2"),
        ("run", "--n", "2000", "--p", "0.003", "--r", "2", "--a", "40", "--seed", "5"),
        ("stages", "--n", "20000", "--p", "0.001", "--r", "2", "--a", "80", "--seed", "5"),
        ("giant", "--m", "20000", "--eps", "0.2", "--seed", "3"),
        ("bounds", "--chernoff", "lower", "--mean", "50", "--lam", "10"),
        ("sweep", "--n", "1500", "--p", "0.004", "--r", "2",
         "--trials", "8", "--a-list", "5,40", "--seed", "17"),
    ]
    stable = all(run_cli(*cmd) == run_cli(*cmd) for cmd in commands)
    sweep_cmd = commands[-1]
    workers_same = run_cli(*sweep_cmd, "--workers", "1") == run_cli(*sweep_cmd, "--workers", "8")
    _criterion(10, "CLI determinism", stable and workers_same,
               f"repeat-stable = {stable}, workers 1 vs 8 identical = {workers_same}")
