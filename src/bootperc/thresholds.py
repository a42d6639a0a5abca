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
    """
    import numpy as np  # here, not at the top: `bounds` loads no numpy

    t = np.asarray(t, dtype=np.float64)
    log_x = math.log(p) - math.log1p(-p)
    acc = term = np.zeros(t.shape)
    for j in range(1, k):
        # log C(t,j) x^j from the j-1 term; the max only touches t < k,
        # whose result is replaced below
        term = term + np.log(np.maximum(t - (j - 1), 1.0)) + (log_x - math.log(j))
        acc = np.logaddexp(acc, term)
    return np.where(t < k, 0.0, t * math.log1p(-p) + acc)


def binom_tail_geq(t: int, p: float, r: int) -> float:
    """P[Bin(t,p) >= r]: the chance that t examined vertices infect a
    fresh vertex with threshold r.

    Exactly 0 when t < r; clamped to [0,1].  Computed from
    :func:`log_binom_lower`, so large t with small p does not underflow.
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
    return min(1.0, max(0.0, -math.expm1(float(log_binom_lower(t, p, r)))))


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
    """ceil(t0): integer horizon for the critical scan, so the real-valued
    minimiser always falls inside the scanned range."""
    return math.ceil(t_zero(params))


# steps per numpy chunk of the critical scan
_SCAN_CHUNK = 1 << 20


def critical_pair(params: ProcessParams) -> CriticalValues:
    """Scan integer steps t in [r, min(ceil(t0), n)] for the tightest
    trajectory deficit.

    The process has at most n steps, so the scan stops at n even when t0
    lies beyond it; ``t0_int`` still reports ceil(t0).  The scan
    minimises (n pi_hat(t) - t)/(1 - pi_hat(t)) in numpy chunks; the
    critical seed count a_c is minus that minimum and t_c is the smallest
    step attaining it.  ``tc_at_horizon`` flags a t_c on the scan's last
    step, min(t0_int, n), where a_c depends on where the scan stops.  Also
    fills the first-order asymptotic references
    tc_asym = ((r-1)!/(np^r))^(1/(r-1)) and ac_asym = (1 - 1/r) tc_asym.
    """
    import numpy as np

    n, p, r = params.n, params.p, params.r
    d = delta(params)
    t0 = t_zero(params)
    t0i = max(math.ceil(t0), r)
    best_t, best_val, best_log_s = r, math.inf, 0.0
    for lo in range(r, min(t0i, n) + 1, _SCAN_CHUNK):
        t = np.arange(lo, min(lo + _SCAN_CHUNK, t0i + 1, n + 1), dtype=np.float64)
        log_s = log_binom_lower(t, p, r)
        s = np.exp(log_s)
        if np.any(s <= 0.0):
            bad = int(t[np.argmax(s <= 0.0)])
            raise DegenerateRegime(f"pi_hat({bad}) = 1 at p={p}; critical-value scan undefined")
        val = (n * -np.expm1(log_s) - t) / s
        i = int(np.argmin(val))
        if val[i] < best_val:
            best_val, best_t, best_log_s = float(val[i]), int(t[i]), float(log_s[i])
    ac = -best_val
    if ac <= 0.0:
        warnings.warn(
            f"critical seed count a_c = {ac:.6g} is not positive; parameters "
            "lie outside the analysed regime",
            stacklevel=2,
        )
    tc_asym = (math.factorial(r - 1) / params.npr) ** (1.0 / (r - 1))  # finite, as t0 is
    return CriticalValues(
        delta=d,
        t0=t0,
        t0_int=t0i,
        tc=best_t,
        ac=ac,
        tc_asym=tc_asym,
        ac_asym=(1.0 - 1.0 / r) * tc_asym,
        pi_hat_tc=-math.expm1(best_log_s),
        tc_at_horizon=best_t == min(t0i, n),
    )


def rho_fixed_point(eps: float) -> float:
    """Unique positive solution of 1 - rho = exp(-(1+eps) rho) for eps > 0.

    Bisection on the residual -expm1(-(1+eps) x) - x, which is positive
    below the root and negative above it; expm1 keeps the bracket sound
    even for tiny eps, where the root is close to 2 eps.  200 bisections
    must bring the residual below 1e-12.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise NoConvergence(f"fixed point requires eps > 0, got {eps}")

    def resid(x: float) -> float:
        return -math.expm1(-(1.0 + eps) * x) - x

    lo = eps / (1.0 + eps) ** 2  # half the small-eps root 2 eps/(1+eps)^2
    for _ in range(64):
        if resid(lo) > 0.0:
            break
        lo /= 2.0
    else:
        raise NoConvergence(f"could not bracket the root for eps={eps}")
    hi = 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    if abs(1.0 - rho - math.exp(-(1.0 + eps) * rho)) >= 1e-12:
        raise NoConvergence(f"residual above 1e-12 after 200 bisections (eps={eps})")
    return rho


def chernoff_lower(mean: float, lam: float) -> float:
    """Lower-tail bound P[X - E[X] <= -lambda] <= exp(-lambda^2 / (2 E[X]))."""
    if not (0 <= mean < math.inf and 0 <= lam < math.inf):
        raise ValueError(f"mean and lambda must be finite and >= 0, got mean={mean}, lambda={lam}")
    if lam == 0.0:
        return 1.0
    if mean == 0.0:
        return 0.0  # limit of the bound as the mean vanishes
    return math.exp(-(lam * lam) / (2.0 * mean))


def chernoff_upper(mean: float, lam: float) -> float:
    """Upper-tail bound P[X - E[X] >= lambda] <= exp(-lambda^2 / (2(E[X] + lambda/3)))."""
    if not (0 <= mean < math.inf and 0 <= lam < math.inf):
        raise ValueError(f"mean and lambda must be finite and >= 0, got mean={mean}, lambda={lam}")
    if lam == 0.0:
        return 1.0
    return math.exp(-(lam * lam) / (2.0 * (mean + lam / 3.0)))


def martingale_tail_bound(b: BoundInputs) -> float:
    """exp(-lambda^2 / (2 (sum sigma_i^2 + m lambda / 3))) for a martingale
    with difference cap m and summed conditional variances."""
    if b.lam == 0.0:
        return 1.0
    return math.exp(-(b.lam * b.lam) / (2.0 * (b.var_sum + b.max_step * b.lam / 3.0)))


def theorem_subcritical_bound(params: ProcessParams, alpha: float) -> float:
    """Failure-probability bound for the subcritical statement:
    exp(-r alpha^2 / (2 (t0 + r alpha / 3))), with (1+o(1)) set to 1."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    r = params.r
    t0 = t_zero(params)
    return min(1.0, math.exp(-r * alpha * alpha / (2.0 * (t0 + r * alpha / 3.0))))


def theorem_supercritical_bound(params: ProcessParams, alpha: float) -> float:
    """Failure-probability bound for the supercritical statement: the sum
    of exp(-r alpha^2 / (8 (t0 + r alpha/3))) and
    exp(-(r-1) alpha^2 / (8 (t0 + (r-1) alpha/2))), with (1+o(1)) set to 1."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    r = params.r
    t0 = t_zero(params)
    first = math.exp(-r * alpha * alpha / (8.0 * (t0 + r * alpha / 3.0)))
    second = math.exp(-(r - 1) * alpha * alpha / (8.0 * (t0 + (r - 1) * alpha / 2.0)))
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

    t1 = ceil(t0 + alpha/4).  pi_hat is evaluated at ceil(t0) (the scan
    convention for the real-valued horizon).  The predicted D fraction
    follows the closing count n - |C| - |W| - 1/p of the final expansion
    step, expressed as a fraction of n and clamped to [0,1].
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
