"""Checks of bootperc's outputs against the reference computations and
against properties the method must have.

Each check takes plain values pulled out of the program's output and
returns a list of failure messages; an empty list means the output
passed.  `selftest.py` feeds every check one deliberately wrong output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

import reference

# |z| above this on any checked step fails the trajectory check; with
# about fifty checked steps a correct engine exceeds it with probability
# below 1e-4
Z_BOUND = 5.0
# a sweep's end points c = -4 and +4 lie 4 sqrt(a_c) on either side of
# a_c: at (5e4, 4e-4, 2), 40 of 40 trials percolated at c = +4 and 0 of 40
# at c = -4.  The margin keeps a check pooled over a few trials from
# failing by chance, while a swapped or flat curve still fails it.
MIN_SWEEP_GAP = 0.5
# share of explicit trials at a = 97 that must almost-percolate
MIN_ALMOST_SHARE = 0.9


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def check_critical(got: dict, n: int, p: float, r: int) -> list[str]:
    """`got` holds the program's tc, ac and t0_int for (n, p, r).

    The tolerance follows the error of a log-gamma evaluation of the
    binomial terms: about 1e-15 lgamma(t0_int) per term, times n.
    """
    ref = reference.critical_scan(n, p, r)
    tol = 1e-15 * n * math.lgamma(ref["t0_int"] + 1) + 1e-9 * abs(ref["ac"])
    errs = []
    if got["t0_int"] != ref["t0_int"]:
        errs.append(f"t0_int {got['t0_int']} != reference {ref['t0_int']} at {(n, p, r)}")
    if not _close(got["ac"], ref["ac"], tol):
        errs.append(f"a_c {got['ac']!r} != reference {ref['ac']!r} (tol {tol:.3g}) at {(n, p, r)}")
    k = got["tc"] - r
    if not (0 <= k < len(ref["deficit"])) or not _close(ref["deficit"][k], -ref["ac"], tol):
        errs.append(f"t_c {got['tc']} does not attain the minimum (reference t_c {ref['tc']}) at {(n, p, r)}")
    return errs


def check_finished_runs(runs) -> list[str]:
    """Every run that stopped by itself has T = final_size; a run cut
    short reports T = None and is skipped."""
    bad = [(T, size) for T, size in runs if T is not None and T != size]
    return [f"{len(bad)} finished runs with T != final_size, first {bad[0]}"] if bad else []


def check_point(a: int, successes: int, trials: int, p_hat: float, lo: float, hi: float) -> list[str]:
    """One curve point: p_hat and its Wilson interval from the counts."""
    errs = []
    if not _close(p_hat, successes / trials, 1e-12):
        errs.append(f"p_hat {p_hat} at a={a} != {successes}/{trials}")
    ref_lo, ref_hi = reference.wilson(successes, trials)
    if not (_close(lo, ref_lo, 1e-9) and _close(hi, ref_hi, 1e-9)):
        errs.append(f"Wilson interval ({lo}, {hi}) for {successes}/{trials} != reference ({ref_lo}, {ref_hi})")
    return errs


def check_sweep_gap(successes_lo: int, successes_hi: int, trials: int) -> list[str]:
    """p_hat at c = +4 minus p_hat at c = -4, pooled over a run's sweeps."""
    gap = (successes_hi - successes_lo) / trials
    if gap >= MIN_SWEEP_GAP:
        return []
    return [f"p_hat(c=4) - p_hat(c=-4) = {gap:.3f} < {MIN_SWEEP_GAP} over {trials} trials"]


def check_window(sizes: np.ndarray, a: int, n: int, p: float, r: int) -> list[str]:
    """`sizes` is runs x steps of |A(t)| for t = 0..a.

    While t <= a only seeds are examined, so |A(t)| - a is exactly
    Bin(n - a, pi(t)); the mean over runs must lie within Z_BOUND
    standard errors of a + (n - a) pi(t) at every step with pi(t) > 0.
    """
    t = np.arange(r, a + 1)
    pi_t = reference.pi(t, p, r)
    se = np.sqrt((n - a) * pi_t * (1.0 - pi_t) / sizes.shape[0])
    z = (sizes[:, r : a + 1].mean(axis=0) - (a + (n - a) * pi_t)) / se
    worst = int(np.argmax(np.abs(z)))
    errs = []
    if not np.all(sizes[:, :r] == a):
        errs.append("|A(t)| != a before step r")
    if abs(z[worst]) > Z_BOUND:
        errs.append(f"mean |A({t[worst]})| is {z[worst]:+.2f} standard errors from a + (n-a) pi(t)")
    return errs


def check_capped(final_sizes, max_steps: int) -> list[str]:
    """A run cut by max_steps still had an unexamined infected vertex."""
    bad = [s for s in final_sizes if s <= max_steps]
    return [f"capped runs with final_size <= {max_steps}: {bad[:5]}"] if bad else []


def check_stages_summary(almost: int, trials: int, medians) -> list[str]:
    """`medians` holds each experiment's (median |B|, median |B-hat|)."""
    errs = []
    if almost < MIN_ALMOST_SHARE * trials:
        errs.append(f"only {almost}/{trials} explicit trials almost-percolated")
    bad = [(b, bhat) for b, bhat in medians if b > bhat]
    if bad:
        errs.append(f"median |B| > median |B-hat| in {len(bad)} experiments, first {bad[0]}")
    return errs


def check_thresholds_payload(out: dict, n: int, p: float, r: int) -> list[str]:
    errs = check_critical(out, n, p, r)
    if (out["n"], out["p"], out["r"]) != (n, p, r):
        errs.append(f"thresholds echoed {(out['n'], out['p'], out['r'])}, asked {(n, p, r)}")
    for key, want in (("delta", reference.delta(n, p, r)), ("t0", reference.t0(n, p, r))):
        if not _close(out[key], want, 1e-10 * abs(want)):
            errs.append(f"{key} {out[key]} != reference {want}")
    return errs


def check_giant(out: dict) -> list[str]:
    m, eps = out["m"], out["eps"]
    want = reference.rho(eps)
    errs = []
    if not _close(out["rho"], want, 1e-10):
        errs.append(f"rho {out['rho']} != reference {want}")
    sd = reference.giant_sd(eps, m)
    if abs(out["largest_size"] - want * m) > Z_BOUND * sd:
        errs.append(f"largest component {out['largest_size']} more than {Z_BOUND} sd from rho m = {want * m:.1f}")
    return errs


def check_run_payload(out: dict, n: int) -> list[str]:
    errs = check_finished_runs([(out["T"], out["final_size"])])
    almost = out["final_size"] >= out["percolation_threshold"] * n
    if (out["classification"] == "AlmostPercolated") != almost:
        errs.append(f"classification {out['classification']} with final_size {out['final_size']}")
    return errs


def check_trace_rows(rows: np.ndarray, out: dict, n: int, p: float, r: int) -> list[str]:
    """`rows` are the CSV's (t, infected_size, martingale_value).

    The martingale value inverts |A(t)| = a + M (1 - pi(t)) + (n - a) pi(t);
    an error eps in pi moves it by about eps n / (1 - pi(t)), and a
    log-gamma evaluation of pi(t) carries eps of about 1e-15 lgamma(t + 1).
    """
    a, T = out["a"], out["T"]
    t, size, mart = rows[:, 0], rows[:, 1], rows[:, 2]
    errs = []
    if len(rows) != T + 1 or not np.array_equal(t, np.arange(T + 1)):
        return [f"trace has {len(rows)} rows for T = {T}"]
    if size[0] != a or size[-1] != out["final_size"] or np.any(np.diff(size) < 0):
        errs.append("trace sizes do not run monotonically from a to final_size")
    if np.any(size[:-1] <= t[:-1]):
        errs.append("trace has |A(t)| <= t before T")
    pi_t = reference.pi(t.astype(np.int64), p, r)
    surv = 1.0 - pi_t
    want = (size - a - (n - a) * pi_t) / surv
    tol = 1e-9 * np.abs(want) + 2e-15 * gammaln(t + 1) * n / surv + 1e-9
    worst = int(np.argmax(np.abs(mart - want) - tol))
    if abs(mart[worst] - want[worst]) > tol[worst]:
        errs.append(f"martingale value at t={worst} is {mart[worst]}, reference {want[worst]}")
    return errs


def check_stage_payload(out: dict, n: int, p: float, r: int, ac: float) -> list[str]:
    errs = check_run_payload(out, n)
    st = out["stages"]
    alpha = out["a"] - ac
    ref = reference.stage_predictions(n, p, r, alpha)
    if not _close(st["alpha"], alpha, 1e-9 * alpha) or st["t1"] != ref["t1"]:
        errs.append(f"stage alpha/t1 {st['alpha']}/{st['t1']} != reference {alpha}/{ref['t1']}")
    for key in ("pred_Bhat", "pred_B", "pred_C"):
        if not _close(st[key], ref[key], 1e-9 * abs(ref[key])):
            errs.append(f"{key} {st[key]} != reference {ref[key]}")
    if st["size_B"] > st["size_Bhat"]:
        errs.append(f"|B| {st['size_B']} > |B-hat| {st['size_Bhat']}")
    return errs


def check_sweep_rows(rows: list[dict], trials: int, n: int, p: float, r: int, ac: float) -> list[str]:
    errs = []
    for row in rows:
        successes = round(row["p_hat"] * trials)
        errs += check_point(row["a"], successes, trials, row["p_hat"], row["wilson_lo"], row["wilson_hi"])
        offset = row["a"] - ac
        bound = reference.theorem_bound(n, p, r, abs(offset), offset > 0) if offset else 1.0
        if not _close(row["alpha_offset"], offset, 1e-9 * abs(ac)) or not _close(row["theorem_bound"], bound, 1e-9):
            errs.append(f"sweep row a={row['a']}: offset/bound {row['alpha_offset']}/{row['theorem_bound']} != {offset}/{bound}")
        if row["mean_T"] != row["mean_final_size"]:
            errs.append(f"sweep row a={row['a']}: mean_T {row['mean_T']} != mean_final_size {row['mean_final_size']}")
    return errs


def check_bound_payload(out: dict) -> list[str]:
    want = reference.theorem_bound(out["n"], out["p"], out["r"], out["alpha"], out["kind"] == "theorem2")
    if _close(out["bound"], want, 1e-10 * want + 1e-300):
        return []
    return [f"{out['kind']} bound {out['bound']} != reference {want}"]
