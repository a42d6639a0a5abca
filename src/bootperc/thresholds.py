"""Critical quantities and tail bounds for r-neighbour bootstrap
percolation on G(n,p).

Everything here is a pure function of its inputs: binomial tails, the
regime slack delta, the scan horizon t0, the critical pair (a_c, t_c),
the giant-component fraction rho, and the Chernoff / martingale /
headline failure-probability bounds.  The asymptotic (1+o(1)) factors in
the headline bounds are set to 1; callers should treat them as reference
values to report next to empirical estimates, not as assertions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class DegenerateRegime(Exception):
    """A scanned step has infection probability 1, so the critical-value
    expressions divide by zero."""


class NoConvergence(Exception):
    """An iterative solver failed to reach its tolerance."""


@dataclass(frozen=True)
class ProcessParams:
    """The triple (n, p, r): vertex count, edge probability, infection
    threshold.

    ``regime_ok`` is a finite-n proxy for the interesting parameter range
    (np > 1 and np^r < 1).  No operation refuses to run when it is False,
    but reports carry the flag.
    """

    n: int
    p: float
    r: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"infection threshold r must be >= 2, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"edge probability p must lie in (0,1), got {self.p}")
        if self.n < self.r + 1:
            raise ValueError(f"vertex count n must be >= r+1, got n={self.n}, r={self.r}")
        if not math.isfinite(self.mean_degree):
            raise ValueError("n*p must be finite")

    @property
    def mean_degree(self) -> float:
        """np, the expected degree."""
        return self.n * self.p

    @property
    def npr(self) -> float:
        """n * p^r, the regime diagnostic that must stay below 1."""
        return self.n * self.p**self.r

    @property
    def regime_ok(self) -> bool:
        return self.mean_degree > 1.0 and self.npr < 1.0


@dataclass(frozen=True)
class CriticalValues:
    """Output of the critical-pair scan plus the asymptotic references."""

    delta: float
    t0: float
    t0_int: int
    tc: int
    ac: float
    tc_asym: float
    ac_asym: float
    pi_hat_tc: float
    tc_at_horizon: bool  # tc == min(t0_int, n): the scan's minimum sits on its last step


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the martingale tail bound: deviation lambda, per-step
    difference cap m, and the summed conditional variances."""

    lam: float
    max_step: float
    var_sum: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if not 0 < self.max_step < math.inf:
            raise ValueError(f"max_step must be finite and > 0, got {self.max_step}")
        if not 0 <= self.var_sum < math.inf:
            raise ValueError(f"var_sum must be finite and >= 0, got {self.var_sum}")


def log_binom_lower(t, p: float, k: int) -> np.ndarray:
    """log P[Bin(t, p) < k] for an array of step counts t >= 0, 0 < p < 1.

    Evaluated as t log1p(-p) + log(sum_{j<k} C(t,j) (p/q)^j), the sum
    accumulated in log space.  The tail pi = -expm1(log S) is then not
    limited by the 1e-16 absolute rounding of 1 - S (for k = 2 its
    relative error stays near 1e-8 down to pi = 1e-14), and ratios of
    survivals come out as differences.  Exactly 0 for t < k.

    The terms cancel when t p is small: the absolute error is about
    eps (t p + |log S|), eps = 2^-52 (at most 16 times that against exact
    sums, k <= 8, 1e-15 <= p <= 0.3, t <= 1e12).  A smaller result is
    rounding noise, can be positive and can rise with t: (3, 1e-8, 3)
    gives +6.6e-24 for a true -1e-24.  :func:`log_survival` is the same
    sum for one step, on Python floats.
    """
    # here, not at the top: only the array callers (the engine's walk
    # blocks and the martingale series) load numpy
    import numpy as np

    t = np.asarray(t, dtype=np.float64)
    log_x = math.log(p) - math.log1p(-p)
    acc = term = np.zeros(t.shape)
    for j in range(1, k):
        # log C(t,j) x^j from the j-1 term; the max only touches t < k,
        # whose result is replaced below
        term = term + np.log(np.maximum(t - (j - 1), 1.0)) + (log_x - math.log(j))
        acc = np.logaddexp(acc, term)
    return np.where(t < k, 0.0, t * math.log1p(-p) + acc)


_LOG2 = math.log(2.0)


def log_survival(t: int, p: float, k: int) -> float:
    """log P[Bin(t, p) < k] for one step count t >= 0, 0 < p < 1, with
    stdlib ``math``: the terms of :func:`log_binom_lower` in the same
    order, added by numpy's ``logaddexp`` rule, so it shares that error
    bound.  The two agree but for the last bits of numpy's vectorised
    ``log`` and ``exp``.  t is taken as a float, so steps above 2^53
    round to the nearest float.
    """
    if t < k:
        return 0.0
    t = float(t)
    log_q = math.log1p(-p)
    log_x = math.log(p) - log_q
    acc = term = 0.0
    for j in range(1, k):
        term = term + math.log(t - (j - 1)) + (log_x - math.log(j))
        # numpy's logaddexp: the larger plus log1p(exp(-|difference|))
        if acc == term:
            acc = acc + _LOG2
        elif acc > term:
            acc = acc + math.log1p(math.exp(term - acc))
        else:
            acc = term + math.log1p(math.exp(acc - term))
    return t * log_q + acc


def binom_tail_geq(t: int, p: float, r: int) -> float:
    """P[Bin(t,p) >= r]: the chance that t examined vertices infect a
    fresh vertex with threshold r.

    Exactly 0 when t < r; clamped to [0,1].  Computed from
    :func:`log_survival`, so large t with small p does not underflow.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if t < r or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, max(0.0, -math.expm1(log_survival(t, p, r))))


def delta(params: ProcessParams) -> float:
    """Regime slack: max of (np^r)^(1/(2(r-1))) and (np)^(-1/(4(r-1)))."""
    r = params.r
    return max(
        params.npr ** (1.0 / (2 * (r - 1))),
        params.mean_degree ** (-1.0 / (4 * (r - 1))),
    )


def t_zero(params: ProcessParams) -> float:
    """Scan horizon t0 = ((1+delta) (r-1)! / (n p^r))^(1/(r-1)).

    DegenerateRegime when (r-1)! (r > 171), n p^r (an underflow to 0) or
    their quotient leaves the float range."""
    r = params.r
    base = math.inf
    if r <= 171 and params.npr > 0.0:
        base = (1.0 + delta(params)) * math.factorial(r - 1) / params.npr
    if base == math.inf:
        raise DegenerateRegime(f"(r-1)!/(n p^r) is not a finite float at n={params.n}, p={params.p}, r={r}")
    return base ** (1.0 / (r - 1))


def t_zero_int(params: ProcessParams) -> int:
    """max(ceil(t0), r): the last step of the critical scan, so the
    real-valued minimiser always falls inside the scanned range, which
    starts at r."""
    return max(math.ceil(t_zero(params)), params.r)


# the critical scan narrows its bracket while it is wider than this
_SCAN_BRACKET = 1 << 12


def critical_pair(params: ProcessParams) -> CriticalValues:
    """Minimise the trajectory deficit f(t) = (n pi_hat(t) - t)/(1 - pi_hat(t))
    over integer steps t in [r, min(t0_int, n)], with t0_int =
    :func:`t_zero_int`.

    The process has at most n steps, so the scan stops at n even when t0
    lies beyond it; ``t0_int`` still reports max(ceil(t0), r).  In the
    regime f falls, then rises, so a ternary search, comparing f at the
    two points a third of the way in from each end, narrows the range to
    at most 2^12 steps; then f is evaluated at every step of that bracket
    widened by 2^12 on each side: at most 3 * 2^12 + O(log t0) steps in
    all, each one :func:`log_survival` on Python floats, so the scan
    loads no numpy.  The two points stay far apart while the bracket is
    wide, so the search holds where f(m+1) - f(m) is below its rounding
    error (at (1e15, 1e-14, 2), say).  Steps above 2^53 are evaluated as
    floats.  The critical seed count a_c is minus the minimum and t_c is
    the first step attaining it.  ``tc_at_horizon`` flags a t_c on the
    scan's last step, min(t0_int, n), where a_c depends on where the scan
    stops.  Also fills the first-order asymptotic references
    tc_asym = ((r-1)!/(np^r))^(1/(r-1)) and ac_asym = (1 - 1/r) tc_asym.
    """
    n, p, r = params.n, params.p, params.r
    t0i = t_zero_int(params)
    last = min(t0i, n)

    def deficit(t: int) -> tuple[float, float]:
        """(f(t), log(1 - pi_hat(t))) at step t."""
        log_s = log_survival(t, p, r)
        s = math.exp(log_s)
        if s <= 0.0:
            raise DegenerateRegime(f"pi_hat({t}) = 1 at p={p}; critical-value scan undefined")
        return (n * -math.expm1(log_s) - float(t)) / s, log_s

    deficit(last)  # the survival falls with t: check its end first
    lo, hi = r, last
    while hi - lo > _SCAN_BRACKET:
        third = (hi - lo) // 3
        f1, f2 = deficit(lo + third)[0], deficit(hi - third)[0]
        lo, hi = (lo + third + 1, hi) if f1 > f2 else (lo, hi - third)
    lo, hi = max(r, lo - _SCAN_BRACKET), min(last, hi + _SCAN_BRACKET)
    tc = lo
    best, best_log_s = deficit(lo)
    for t in range(lo + 1, hi + 1):
        val, log_s = deficit(t)
        if val < best:  # strict: t_c is the smallest minimising step
            tc, best, best_log_s = t, val, log_s
    ac = -best
    if ac <= 0.0:
        warnings.warn(
            f"critical seed count a_c = {ac:.6g} is not positive; parameters "
            "lie outside the analysed regime",
            stacklevel=2,
        )
    tc_asym = (math.factorial(r - 1) / params.npr) ** (1.0 / (r - 1))  # finite, as t0 is
    return CriticalValues(
        delta=delta(params),
        t0=t_zero(params),
        t0_int=t0i,
        tc=tc,
        ac=ac,
        tc_asym=tc_asym,
        ac_asym=(1.0 - 1.0 / r) * tc_asym,
        pi_hat_tc=-math.expm1(best_log_s),
        tc_at_horizon=tc == last,
    )


def rho_fixed_point(eps: float) -> float:
    """Unique positive solution of 1 - rho = exp(-(1+eps) rho) for eps > 0.

    Bisection in y = (1+eps) rho on f(y) = (y + expm1(-y)) / y = t, with
    t = eps / (1+eps) and f rising from 0 to 1.  Below y = 1/2, f is its
    series y/2 - y^2/6 + y^3/24 - ..., so nothing cancels however small
    eps is; above, the plain -expm1(-y) > rho decides.  As y/2 - y^2/6
    <= f(y) <= y/2, the root lies in [2t, 3t] if t <= 1/3, else in
    [2t, 1+eps].  The residual must end below 1e-12 relative to rho.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise NoConvergence(f"fixed point requires eps > 0, got {eps}")
    t = eps / (1.0 + eps)

    def below_root(y: float) -> bool:
        if y >= 0.5:
            return -math.expm1(-y) > y / (1.0 + eps)
        s = 1.0
        for j in range(16, 2, -1):  # to y^15/16!; the next term is below 1e-18 f(y)
            s = 1.0 - y / j * s
        return 0.5 * y * s < t

    lo = 2.0 * t
    hi = 3.0 * t if t <= 1.0 / 3.0 else 1.0 + eps
    for _ in range(200):
        mid = lo + 0.5 * (hi - lo)  # lo + hi may overflow
        if below_root(mid):
            lo = mid
        else:
            hi = mid
    rho = (lo + 0.5 * (hi - lo)) / (1.0 + eps)
    if not abs(math.expm1(-(1.0 + eps) * rho) + rho) <= 1e-12 * rho:
        raise NoConvergence(f"residual above 1e-12 of rho after 200 bisections (eps={eps})")
    return rho


def _bernstein_tail(lam: float, var: float, m: float) -> float:
    """exp(-lam^2 / (2 (var + m lam / 3))) for lam > 0, the tail every bound
    here shares, as exp(-0.5 lam / (var/lam + m/3)): no finite input
    overflows, and a denominator that underflows to 0 gives the limit 0."""
    d = var / lam + m / 3.0
    return math.exp(-0.5 * lam / d) if d > 0.0 else 0.0


def chernoff_lower(mean: float, lam: float) -> float:
    """Lower-tail bound P[X - E[X] <= -lambda] <= exp(-lambda^2 / (2 E[X]))."""
    if not (0 <= mean < math.inf and 0 <= lam < math.inf):
        raise ValueError(f"mean and lambda must be finite and >= 0, got mean={mean}, lambda={lam}")
    if lam == 0.0:
        return 1.0
    if mean == 0.0:
        return 0.0  # limit of the bound as the mean vanishes
    return _bernstein_tail(lam, mean, 0.0)


def chernoff_upper(mean: float, lam: float) -> float:
    """Upper-tail bound P[X - E[X] >= lambda] <= exp(-lambda^2 / (2(E[X] + lambda/3)))."""
    if not (0 <= mean < math.inf and 0 <= lam < math.inf):
        raise ValueError(f"mean and lambda must be finite and >= 0, got mean={mean}, lambda={lam}")
    if lam == 0.0:
        return 1.0
    return _bernstein_tail(lam, mean, 1.0)


def martingale_tail_bound(b: BoundInputs) -> float:
    """exp(-lambda^2 / (2 (sum sigma_i^2 + m lambda / 3))) for a martingale
    with difference cap m and summed conditional variances."""
    if b.lam == 0.0:
        return 1.0
    return _bernstein_tail(b.lam, b.var_sum, b.max_step)


def theorem_subcritical_bound(params: ProcessParams, alpha: float) -> float:
    """Failure-probability bound for the subcritical statement:
    exp(-r alpha^2 / (2 (t0 + r alpha / 3))), with (1+o(1)) set to 1."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    return _bernstein_tail(alpha, t_zero(params) / params.r, 1.0)


def theorem_supercritical_bound(params: ProcessParams, alpha: float) -> float:
    """Failure-probability bound for the supercritical statement: the sum
    of exp(-r alpha^2 / (8 (t0 + r alpha/3))) and
    exp(-(r-1) alpha^2 / (8 (t0 + (r-1) alpha/2))), with (1+o(1)) set to 1."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    r = params.r
    t0 = t_zero(params)
    first = _bernstein_tail(alpha / 2.0, t0 / r, 2.0)
    second = _bernstein_tail(alpha / 2.0, t0 / (r - 1), 3.0)
    return min(1.0, first + second)


# g(x) = 2 sum_{l>=2} x^(l-2)/l!; nine series terms reach full double
# precision on [0, 1e-3], where the direct form cancels.
_G_SERIES = [2.0 / math.factorial(k + 2) for k in range(9)]


def g_function(x: float) -> float:
    """2 (e^x - 1 - x)/x^2, extended by its series limit 1 at x = 0.

    Monotone increasing on the nonnegative axis and below (1 - x/3)^(-1)
    for x < 3, which is what makes the martingale bound close."""
    if x < 0:
        raise ValueError(f"g is defined for x >= 0, got {x}")
    if x < 1e-3:
        acc = 0.0
        for c in reversed(_G_SERIES):
            acc = acc * x + c
        return acc
    return 2.0 * (math.expm1(x) - x) / (x * x)


@dataclass(frozen=True)
class StagePredictions:
    """The plan of the supercritical stage pipeline at offset ``alpha``:
    t1 and the predicted sizes (real valued), recomputable from (params,
    alpha) alone.

    ``witness_target`` and ``b1_target`` are the designated subset sizes
    the pipeline carves out of the measured sets, and C1 is carved to
    ``pred_c``; the pred_* fields are the lower bounds the measured sets
    are compared against.
    """

    alpha: float
    t1: int
    witness_target: float
    pred_bhat: float
    pred_b: float
    b1_target: float
    pred_c: float
    pred_d_fraction: float


def stage_predictions(params: ProcessParams, alpha: float) -> StagePredictions:
    """Predicted stage sizes at offset alpha above the critical seed count.

    t1 = ceil(t0 + alpha/4).  pi_hat is evaluated at t0_int, the last
    step of the critical scan.  The predicted D fraction follows the
    closing count n - |C| - |W| - 1/p of the final expansion step,
    expressed as a fraction of n and clamped to [0,1].
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    r = params.r
    p = params.p
    d = delta(params)
    t0 = t_zero(params)
    t1 = math.ceil(t0 + alpha / 4.0)
    pi_t0 = binom_tail_geq(t_zero_int(params), p, r)
    witness = max(0.0, (1.0 - 2.0 * pi_t0) * alpha / 4.0)
    pred_bhat = (1.0 + 0.75 * d + (r - 1) * alpha / (4.0 * t0)) / p
    pred_b = (d / 4.0 + (r - 1) * alpha / (2.0 * t0 + (r - 1) * alpha)) / p
    b1_target = params.mean_degree ** (-1.0 / (4 * (r - 1))) / (4.0 * p)
    pred_c = params.mean_degree ** (1.0 / (4 * (r - 1))) / p
    pred_d = 1.0 - (t1 + witness + pred_bhat + pred_c + 1.0 / p) / params.n
    return StagePredictions(
        alpha=alpha,
        t1=t1,
        witness_target=witness,
        pred_bhat=pred_bhat,
        pred_b=pred_b,
        b1_target=b1_target,
        pred_c=pred_c,
        pred_d_fraction=min(1.0, max(0.0, pred_d)),
    )
