"""Reference computations made apart from bootperc.

Nothing here imports the package under test: every value comes from
scipy or from a closed form written out again, so a check that compares
the program against these figures compares two independent derivations.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import optimize, stats


def pi(t, p: float, r: int):
    """pi(t) = P[Bin(t, p) >= r], elementwise over t."""
    return stats.binom.sf(r - 1, t, p)


def delta(n: int, p: float, r: int) -> float:
    return max((n * p**r) ** (1.0 / (2 * (r - 1))), (n * p) ** (-1.0 / (4 * (r - 1))))


def t0(n: int, p: float, r: int) -> float:
    return ((1.0 + delta(n, p, r)) * math.factorial(r - 1) / (n * p**r)) ** (1.0 / (r - 1))


def critical_scan(n: int, p: float, r: int) -> dict:
    """The scan over t in [r, ceil(t0)] of (n pi(t) - t) / (1 - pi(t)).

    Returns the deficit curve as well, so a check can accept any t_c
    whose deficit ties the minimum to rounding.
    """
    t0i = max(math.ceil(t0(n, p, r)), r)
    t = np.arange(r, t0i + 1, dtype=np.int64)
    deficit = (n * stats.binom.sf(r - 1, t, p) - t) / stats.binom.cdf(r - 1, t, p)
    k = int(np.argmin(deficit))
    return {"t0_int": t0i, "tc": int(t[k]), "ac": -float(deficit[k]), "deficit": deficit}


def rho(eps: float) -> float:
    """Positive root of 1 - rho = exp(-(1 + eps) rho)."""
    return optimize.brentq(
        lambda x: 1.0 - x - math.exp(-(1.0 + eps) * x), eps / (1.0 + eps) ** 2, 1.0, xtol=1e-15
    )


def giant_sd(eps: float, m: int) -> float:
    """Standard deviation of the giant-component size of G(m, (1+eps)/m)
    from its central limit theorem: m rho (1 - rho) / (1 - c (1 - rho))^2."""
    c = 1.0 + eps
    g = rho(eps)
    return math.sqrt(m * g * (1.0 - g) / (1.0 - c * (1.0 - g)) ** 2)


def wilson(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval in its closed form."""
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    ph = successes / trials
    z2n = z * z / trials
    centre = (ph + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(ph * (1.0 - ph) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    return max(0.0, centre - half), min(1.0, centre + half)


def theorem_bound(n: int, p: float, r: int, alpha: float, supercritical: bool) -> float:
    """Failure-probability bounds of the two theorems, (1+o(1)) set to 1."""
    t = t0(n, p, r)
    if not supercritical:
        return min(1.0, math.exp(-r * alpha**2 / (2.0 * (t + r * alpha / 3.0))))
    first = math.exp(-r * alpha**2 / (8.0 * (t + r * alpha / 3.0)))
    second = math.exp(-(r - 1) * alpha**2 / (8.0 * (t + (r - 1) * alpha / 2.0)))
    return min(1.0, first + second)


def stage_predictions(n: int, p: float, r: int, alpha: float) -> dict:
    """Predicted stage sizes at offset alpha above the critical seed count."""
    d = delta(n, p, r)
    t = t0(n, p, r)
    return {
        "t1": math.ceil(t + alpha / 4.0),
        "pred_Bhat": (1.0 + 0.75 * d + (r - 1) * alpha / (4.0 * t)) / p,
        "pred_B": (d / 4.0 + (r - 1) * alpha / (2.0 * t + (r - 1) * alpha)) / p,
        "pred_C": (n * p) ** (1.0 / (4 * (r - 1))) / p,
    }
