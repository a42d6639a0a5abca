import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bootperc.thresholds import (
    BoundInputs,
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
    stage_predictions,
    t_zero,
    t_zero_int,
    theorem_subcritical_bound,
    theorem_supercritical_bound,
)


def enumerate_tail(t: int, p: float, r: int) -> float:
    """Independent oracle: walk all 2^t outcomes of t potential edges and
    add up the probability of those with at least r present."""
    total = 0.0
    for mask in range(2**t):
        k = bin(mask).count("1")
        if k >= r:
            total += p**k * (1.0 - p) ** (t - k)
    return total


P_GRID = [1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5, 0.9]


class TestBinomTail:
    def test_zero_below_threshold(self):
        assert binom_tail_geq(1, 0.5, 2) == 0.0
        assert binom_tail_geq(0, 0.9, 1) == 0.0
        assert binom_tail_geq(4, 0.99, 5) == 0.0

    def test_worked_value(self):
        # 1 - 0.8^5 - 5*0.2*0.8^4
        expected = 1.0 - 0.8**5 - 5 * 0.2 * 0.8**4
        assert binom_tail_geq(5, 0.2, 2) == pytest.approx(expected, abs=1e-15)
        assert binom_tail_geq(5, 0.2, 2) == pytest.approx(0.26272, abs=1e-12)

    def test_certain_edges(self):
        assert binom_tail_geq(10, 1.0, 3) == 1.0
        assert binom_tail_geq(3, 1.0, 3) == 1.0

    def test_p_zero(self):
        assert binom_tail_geq(10, 0.0, 2) == 0.0

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("p", [1e-3, 0.05, 0.3, 0.7])
    def test_matches_exhaustive_enumeration(self, p, r):
        for t in range(0, 13):
            assert binom_tail_geq(t, p, r) == pytest.approx(
                enumerate_tail(t, p, r), abs=1e-12
            )

    def test_monotone_in_t(self):
        for p in P_GRID:
            last = 0.0
            for t in range(0, 2001, 7):
                cur = binom_tail_geq(t, p, 2)
                assert cur >= last
                last = cur

    def test_monotone_in_p(self):
        for t in [5, 50, 500, 10_000]:
            vals = [binom_tail_geq(t, p, 3) for p in P_GRID]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_no_underflow_large_t_small_p(self):
        v = binom_tail_geq(10_000, 1e-4, 2)
        assert 0.0 < v < 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            binom_tail_geq(-1, 0.5, 2)
        with pytest.raises(ValueError):
            binom_tail_geq(5, 1.5, 2)
        with pytest.raises(ValueError):
            binom_tail_geq(5, 0.5, 0)


class TestParams:
    def test_regime_flags(self):
        good = ProcessParams(n=10**6, p=1e-4, r=2)
        assert good.regime_ok
        assert good.mean_degree == pytest.approx(100.0)
        assert good.npr == pytest.approx(0.01)
        sparse = ProcessParams(n=1000, p=5e-4, r=2)  # np = 0.5 < 1
        assert not sparse.regime_ok

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ProcessParams(n=100, p=0.0, r=2)
        with pytest.raises(ValueError):
            ProcessParams(n=100, p=1.0, r=2)
        with pytest.raises(ValueError):
            ProcessParams(n=100, p=0.1, r=1)
        with pytest.raises(ValueError):
            ProcessParams(n=2, p=0.1, r=2)


class TestDeltaT0:
    def test_delta_r2(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        # np^2 = 0.01 -> sqrt = 0.1;  np = 100 -> 100^(-1/4)
        assert delta(params) == pytest.approx(max(0.1, 100 ** (-0.25)), rel=1e-12)
        assert delta(params) == pytest.approx(0.31622776601683794, rel=1e-12)

    def test_delta_r3(self):
        params = ProcessParams(n=10**6, p=1e-3, r=3)
        # np^3 = 1e-3 -> (1e-3)^(1/4);  np = 1000 -> 1000^(-1/8)
        expected = max((1e-3) ** 0.25, 1000 ** (-0.125))
        assert delta(params) == pytest.approx(expected, rel=1e-12)

    def test_delta_equal_branches(self):
        # max of two equal numbers is either branch
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        b1 = params.npr ** 0.5
        b2 = params.mean_degree ** -0.25
        assert delta(params) == max(b1, b2)

    def test_t0_r2(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        d = delta(params)
        assert t_zero(params) == pytest.approx((1 + d) / 0.01, rel=1e-12)
        assert t_zero(params) == pytest.approx(131.6227766, rel=1e-9)
        assert t_zero_int(params) == 132

    def test_t0_r3(self):
        params = ProcessParams(n=10**6, p=1e-3, r=3)
        d = delta(params)
        assert t_zero(params) == pytest.approx(math.sqrt((1 + d) * 2.0 / 1e-3), rel=1e-12)

    def test_t0_outside_float_range(self):
        # n p^r underflowing to 0, or (r-1)! past the float range, once
        # divided by zero or overflowed into an internal error
        for n, p, r in ((10, 1e-300, 2), (1000, 0.01, 500), (10**5, 0.5, 200), (1000, 0.9, 171)):
            params = ProcessParams(n=n, p=p, r=r)
            with pytest.raises(DegenerateRegime, match="not a finite float"):
                t_zero(params)
            with pytest.raises(DegenerateRegime):
                critical_pair(params)

    def test_t0_formula_kept_at_the_float_edge(self):
        # r = 171 holds 170!, the largest factorial a float holds
        params = ProcessParams(n=10**6, p=0.99, r=171)
        assert t_zero(params) == ((1 + delta(params)) * math.factorial(170) / params.npr) ** (1 / 170)
        with pytest.warns(UserWarning, match="not positive"):  # far outside the regime
            crit = critical_pair(params)
        assert crit.tc_asym == (math.factorial(170) / params.npr) ** (1 / 170)


def scan_oracle(params):
    """Exhaustive scan of the deficit over [r, ceil(t0)] using the plain
    formula, kept deliberately separate from the implementation."""
    hi = math.ceil(t_zero(params))
    best_t, best_val = None, math.inf
    for t in range(params.r, hi + 1):
        pi = binom_tail_geq(t, params.p, params.r)
        val = (params.n * pi - t) / (1.0 - pi)
        if val < best_val:
            best_t, best_val = t, val
    return best_t, -best_val


class TestCriticalPair:
    def test_definition_consistency(self):
        params = ProcessParams(n=200_000, p=1e-4, r=2)
        crit = critical_pair(params)
        pi = binom_tail_geq(crit.tc, params.p, params.r)
        recomputed = (crit.tc - params.n * pi) / (1.0 - pi)
        assert crit.ac == pytest.approx(recomputed, rel=1e-9)
        assert crit.pi_hat_tc == pytest.approx(pi, abs=1e-15)

    def test_matches_scan_oracle(self):
        for params in [
            ProcessParams(n=10**6, p=1e-4, r=2),
            ProcessParams(n=10**5, p=5e-4, r=2),
            ProcessParams(n=10**6, p=1e-3, r=3),
        ]:
            crit = critical_pair(params)
            tc, ac = scan_oracle(params)
            assert crit.tc == tc
            assert crit.ac == pytest.approx(ac, rel=1e-9)

    def test_worked_point(self):
        crit = critical_pair(ProcessParams(n=10**6, p=1e-4, r=2))
        assert crit.tc_asym == pytest.approx(100.0, rel=1e-12)
        assert crit.ac_asym == pytest.approx(50.0, rel=1e-12)
        assert abs(crit.tc - crit.tc_asym) / crit.tc_asym < 0.15
        assert abs(crit.ac - crit.ac_asym) / crit.ac_asym < 0.20

    def test_smallest_argmin(self):
        params = ProcessParams(n=10**5, p=5e-4, r=2)
        crit = critical_pair(params)

        def deficit(t):
            pi = binom_tail_geq(t, params.p, params.r)
            return (params.n * pi - t) / (1.0 - pi)

        at_tc = deficit(crit.tc)
        for t in range(params.r, crit.t0_int + 1):
            assert deficit(t) >= at_tc - 1e-9
            if t < crit.tc:
                assert deficit(t) > at_tc
        assert 0 <= crit.ac <= crit.tc <= crit.t0_int

    def test_tc_at_horizon(self):
        # t_c on the scan's last step, min(t0_int, n): there a_c depends on
        # where the scan stops
        for (n, p, r), flag in (
            ((10**6, 1e-5, 3), True),
            ((10**6, 2e-6, 2), True),
            ((10**6, 1e-4, 2), False),
        ):
            crit = critical_pair(ProcessParams(n=n, p=p, r=r))
            assert crit.tc_at_horizon is flag, (n, p, r)
            assert (crit.tc == min(crit.t0_int, n)) is flag

    def test_negative_ac_warns(self):
        # saturated regime: every scanned step already infects in expectation
        params = ProcessParams(n=5000, p=0.2, r=2)
        with pytest.warns(UserWarning):
            crit = critical_pair(params)
        assert crit.ac <= 0.0


def loop_scan(params):
    """The scalar scan that the vectorised one replaced, capped at n like
    it: each lower-tail sum from log-gamma terms, one step at a time."""
    n, p, r = params.n, params.p, params.r
    log_p, log_q = math.log(p), math.log1p(-p)
    best_t, best_val = r, math.inf
    for t in range(r, min(max(math.ceil(t_zero(params)), r), n) + 1):
        lg = math.lgamma(t + 1)
        s = math.fsum(
            math.exp(lg - math.lgamma(j + 1) - math.lgamma(t - j + 1) + j * log_p + (t - j) * log_q)
            for j in range(min(r, t + 1))
        )
        if s <= 0.0:
            raise DegenerateRegime(f"pi_hat({t}) = 1")
        val = ((n - t) - n * s) / s
        if val < best_val:
            best_t, best_val = t, val
    return best_t, -best_val


# every (n, p, r) whose scan range is at most 2e4 steps; above n = 1e6 the
# loop's own log-gamma rounding (about 1e-16 n lgamma(t)) passes 1e-9 of a_c
SCAN_GRID = [
    (n, p, r)
    for n in (100, 1000, 10**4, 10**5, 10**6)
    for p in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5)
    for r in (2, 3, 4)
    if min(max(math.ceil(t_zero(ProcessParams(n, p, r))), r), n) <= 20_000
]


class TestVectorisedScan:
    def test_matches_loop_scan(self):
        assert len(SCAN_GRID) > 60
        for n, p, r in SCAN_GRID:
            params = ProcessParams(n, p, r)
            try:
                want = loop_scan(params)
            except DegenerateRegime:
                with pytest.raises(DegenerateRegime):
                    critical_pair(params)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                crit = critical_pair(params)
            assert crit.tc == want[0], (n, p, r)
            assert crit.ac == pytest.approx(want[1], rel=1e-9), (n, p, r)

    def test_scan_stops_at_n(self):
        # t0 ~ 6.6e12 lies far beyond the n steps the process can take
        params = ProcessParams(n=10**6, p=1e-9, r=2)
        crit = critical_pair(params)
        assert crit.t0_int == math.ceil(t_zero(params))
        assert crit.tc == params.n
        assert crit.tc_at_horizon

    def test_cli_returns_out_of_regime(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bootperc.cli", "thresholds", "--n", "1000000", "--p", "1e-9", "--r", "2"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


class TestRhoFixedPoint:
    def test_residual_and_range(self):
        for eps in [1e-6, 1e-3, 0.2, 1.0, 10.0]:
            rho = rho_fixed_point(eps)
            assert 0.0 < rho < 1.0
            assert abs(1.0 - rho - math.exp(-(1.0 + eps) * rho)) < 1e-12

    def test_matches_independent_bisection(self):
        def oracle(eps):
            lo, hi = 1e-12, 1.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if 1.0 - mid - math.exp(-(1.0 + eps) * mid) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        assert rho_fixed_point(0.2) == pytest.approx(oracle(0.2), abs=1e-10)
        assert rho_fixed_point(0.2) == pytest.approx(0.313, abs=1e-3)

    def test_limits(self):
        assert rho_fixed_point(1e-8) < 1e-6  # subcritical limit: rho -> 0
        assert rho_fixed_point(10.0) > 0.999

    def test_invalid_eps(self):
        with pytest.raises(NoConvergence):
            rho_fixed_point(0.0)
        with pytest.raises(NoConvergence):
            rho_fixed_point(-1.0)


class TestBounds:
    def test_chernoff_at_zero(self):
        assert chernoff_lower(50.0, 0.0) == 1.0
        assert chernoff_upper(50.0, 0.0) == 1.0

    def test_chernoff_worked(self):
        assert chernoff_lower(50.0, 10.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert chernoff_upper(50.0, 10.0) == pytest.approx(
            math.exp(-100.0 / (2 * (50 + 10 / 3))), rel=1e-12
        )

    def test_chernoff_zero_mean(self):
        assert chernoff_lower(0.0, 5.0) == 0.0

    def test_martingale_bound(self):
        assert martingale_tail_bound(BoundInputs(lam=0.0, max_step=1.0, var_sum=5.0)) == 1.0
        b = BoundInputs(lam=30.0, max_step=1.0, var_sum=131.6)
        assert martingale_tail_bound(b) == pytest.approx(
            math.exp(-900.0 / (2 * (131.6 + 10.0))), rel=1e-12
        )

    def test_martingale_bound_homogeneity(self):
        # scaling (lam, m, var) by (c, c, c^2) leaves the bound unchanged
        base = BoundInputs(lam=7.0, max_step=1.5, var_sum=40.0)
        for c in [0.5, 2.0, 10.0]:
            scaled = BoundInputs(lam=7.0 * c, max_step=1.5 * c, var_sum=40.0 * c * c)
            assert martingale_tail_bound(scaled) == pytest.approx(
                martingale_tail_bound(base), rel=1e-12
            )

    def test_theorem_bounds_worked(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        t0 = t_zero(params)
        expected = math.exp(-2 * 900.0 / (2 * (t0 + 2 * 30 / 3)))
        assert theorem_subcritical_bound(params, 30.0) == pytest.approx(expected, rel=1e-12)
        assert theorem_subcritical_bound(params, 30.0) == pytest.approx(2.6e-3, rel=0.1)

    def test_supercritical_dominates_subcritical(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        for alpha in [5.0, 30.0, 200.0]:
            assert theorem_supercritical_bound(params, alpha) >= theorem_subcritical_bound(
                params, alpha
            )

    def test_bounds_vanish_for_large_alpha(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        assert theorem_subcritical_bound(params, 1e6) < 1e-300
        assert theorem_supercritical_bound(params, 1e6) < 1e-200

    def test_all_bounds_in_unit_interval(self):
        params = ProcessParams(n=10**5, p=5e-4, r=2)
        for lam in [0.0, 0.5, 3.0, 100.0]:
            for mean in [0.0, 1.0, 50.0]:
                assert 0.0 <= chernoff_lower(mean, lam) <= 1.0
                assert 0.0 <= chernoff_upper(mean, lam) <= 1.0
            assert (
                0.0
                <= martingale_tail_bound(BoundInputs(lam=lam, max_step=2.0, var_sum=9.0))
                <= 1.0
            )
            if lam > 0:
                assert 0.0 <= theorem_subcritical_bound(params, lam) <= 1.0
                assert 0.0 <= theorem_supercritical_bound(params, lam) <= 1.0

    def test_bound_inputs_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(lam=-1.0, max_step=1.0, var_sum=0.0)
        with pytest.raises(ValueError):
            BoundInputs(lam=1.0, max_step=0.0, var_sum=0.0)
        with pytest.raises(ValueError):
            BoundInputs(lam=1.0, max_step=1.0, var_sum=-2.0)

    def test_non_finite_inputs_rejected(self):
        params = ProcessParams(n=10**6, p=1e-4, r=2)
        for bad in (math.inf, math.nan):
            for bound in (theorem_subcritical_bound, theorem_supercritical_bound):
                with pytest.raises(ValueError, match="finite"):
                    bound(params, bad)
            for chernoff in (chernoff_lower, chernoff_upper):
                with pytest.raises(ValueError, match="finite"):
                    chernoff(bad, 1.0)
                with pytest.raises(ValueError, match="finite"):
                    chernoff(1.0, bad)
            for fields in ({"lam": bad}, {"max_step": bad}, {"var_sum": bad}):
                with pytest.raises(ValueError, match="finite"):
                    BoundInputs(**{"lam": 1.0, "max_step": 1.0, "var_sum": 1.0, **fields})

    def test_chernoff_dominates_empirical_tails(self):
        # both tails of Bin(1000, 0.3), 1e5 samples, lambda in {10, 20, 30}
        from bootperc.montecarlo import wilson_interval
        from bootperc.rng import make_generator

        mean = 300.0
        draws = make_generator(881).binomial(1000, 0.3, size=100_000)
        for lam in (10.0, 20.0, 30.0):
            low_hits = int(np.sum(draws - mean <= -lam))
            lo, _ = wilson_interval(low_hits, len(draws))
            assert lo <= chernoff_lower(mean, lam)
            up_hits = int(np.sum(draws - mean >= lam))
            lo_u, _ = wilson_interval(up_hits, len(draws))
            assert lo_u <= chernoff_upper(mean, lam)


class TestGFunction:
    def test_limit_at_zero(self):
        assert g_function(0.0) == 1.0

    def test_worked_value(self):
        assert g_function(1.0) == pytest.approx(2.0 * (math.e - 2.0), rel=1e-12)

    def test_series_matches_direct_across_switch(self):
        # the series (x < 1e-3) and direct formula must agree at the seam
        for x in [9e-4, 9.99e-4, 1.001e-3, 1.1e-3]:
            direct = 2.0 * (math.expm1(x) - x) / (x * x)
            assert g_function(x) == pytest.approx(direct, rel=1e-10)

    def test_tiny_x_accuracy(self):
        # compare against the truncated series evaluated with mpmath-free
        # rationals: g(x) ~ 1 + x/3 + x^2/12
        for x in [1e-9, 1e-6, 1e-4]:
            approx = 1.0 + x / 3.0 + x * x / 12.0
            assert g_function(x) == pytest.approx(approx, rel=1e-10)

    def test_upper_bound_property(self):
        for x in np.linspace(1e-6, 3.0 - 1e-9, 1000):
            assert g_function(float(x)) < 1.0 / (1.0 - x / 3.0)

    def test_monotone_increasing(self):
        xs = np.linspace(0.0, 10.0, 2000)
        vals = [g_function(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_paper_check_value(self):
        assert g_function(2.9) < 30.0  # (1 - 2.9/3)^(-1)


class TestStagePredictions:
    def test_fields_recompute(self):
        params = ProcessParams(n=50_000, p=4e-4, r=2)
        alpha = 36.0
        pred = stage_predictions(params, alpha)
        d = delta(params)
        t0 = t_zero(params)
        assert pred.t1 == math.ceil(t0 + alpha / 4.0)
        assert pred.pred_bhat == pytest.approx(
            (1 + 0.75 * d + alpha / (4 * t0)) / params.p, rel=1e-12
        )
        assert pred.pred_b == pytest.approx(
            (d / 4 + alpha / (2 * t0 + alpha)) / params.p, rel=1e-12
        )
        assert pred.pred_c == pytest.approx(20.0**0.25 / params.p, rel=1e-12)
        assert 0.0 <= pred.pred_d_fraction <= 1.0

    def test_requires_positive_alpha(self):
        params = ProcessParams(n=50_000, p=4e-4, r=2)
        with pytest.raises(ValueError):
            stage_predictions(params, 0.0)
