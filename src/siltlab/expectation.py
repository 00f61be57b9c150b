"""Exact expectations of the mollified derivative estimator, by quadrature.

For B_s - B_r Gaussian with variance (s-r)^2H, Fubini collapses the double
integral over the triangle to one dimension:

    E = -y / sqrt(2 pi) * int_0^t (t-u) (eps + u^2H)^(-3/2)
                                   exp(-y^2 / (2 (eps + u^2H))) du

The epsilon = 0 integrand concentrates near u = y^(1/H), which for small y
is far below any fixed grid, so that case integrates in x = log(t/u).
Small-y asymptotics split into three regimes by 3H - 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .fbm import check_hurst

__all__ = [
    "QuadratureError",
    "ExpectationResult",
    "AsymptoticRegime",
    "mean_alpha_prime_eps",
    "mean_alpha_prime",
    "asymptotic_constant",
    "regime_classify",
    "RegimeTag",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# exp(-750) is below double underflow; integrand treated as exactly zero
_LOG_FLOOR = 750.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the best value obtained and the achieved error estimate.
    """

    def __init__(self, message: str, value: float, achieved_tolerance: float):
        super().__init__(message)
        self.value = value
        self.achieved_tolerance = achieved_tolerance


@dataclass(frozen=True)
class ExpectationResult:
    """A quadrature expectation with its absolute error estimate."""

    value: float
    abs_error_estimate: float
    t: float
    y: float
    epsilon: float
    hurst: float


@dataclass(frozen=True)
class AsymptoticRegime:
    """Small-y regime of the expectation: value ~ constant * scaling."""

    regime: str
    scaling: str
    constant: float
    t: float
    hurst: float


def _quad(f, a, b, points=None, epsabs=1e-10, epsrel=1e-10, limit=400):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(f, a, b, points=points, epsabs=epsabs,
                        epsrel=epsrel, limit=limit)
    if err > max(epsabs, abs(val) * epsrel) * 100.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds requested tolerance",
            value=val, achieved_tolerance=err,
        )
    return val, err


def mean_alpha_prime_eps(t: float, y: float, epsilon: float,
                         hurst: float) -> ExpectationResult:
    """E of the mollified derivative estimator at spatial offset y.

    Exact up to quadrature error; odd in y, and identically 0 at y = 0.
    """
    h = check_hurst(hurst)
    if not t > 0.0:
        raise ValueError("t must be positive")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive; see mean_alpha_prime")
    if y == 0.0:
        return ExpectationResult(0.0, 0.0, t, 0.0, epsilon, h)

    two_h = 2.0 * h
    y2 = y * y
    # integrate in v with u = v^k.  For H < 1/2, k = 1/H turns the cusp of
    # u^2H at 0 into v^2, and the Jacobian v^(1/H - 1) has an exponent > 1;
    # k = 1 leaves the integrand's bits unchanged
    k = 1.0 / h if h < 0.5 else 1.0

    def integrand(v):
        u = v**k
        var = epsilon + u**two_h
        return (t - u) * math.exp(-0.5 * y2 / var) / var**1.5 * k * v ** (k - 1.0)

    # breakpoints: mollifier/increment variance crossover and the y scale
    pts = [p ** (1.0 / k) for p in (epsilon ** (1.0 / two_h), y2 ** (1.0 / two_h))
           if 0.0 < p < t]
    val, err = _quad(integrand, 0.0, t ** (1.0 / k), points=sorted(set(pts)) or None)
    pref = -y / _SQRT_2PI
    return ExpectationResult(pref * val, abs(pref) * err, t, y, epsilon, h)


def mean_alpha_prime(t: float, y: float, hurst: float) -> ExpectationResult:
    """Epsilon = 0 expectation of the derivative estimator.

    Continuous in y away from 0.  The u -> 0 endpoint is an essential zero:
    in x = log(t/u) the integrand becomes
    t^(2-3H) (1 - e^-x) e^((3H-1)x) exp(-(y^2 t^-2H / 2) e^(2Hx)),
    smooth on [0, x_hi] and exactly zero beyond the underflow cut x_hi.
    """
    h = check_hurst(hurst)
    if not t > 0.0:
        raise ValueError("t must be positive")
    if y == 0.0:
        return ExpectationResult(0.0, 0.0, t, 0.0, 0.0, h)

    two_h = 2.0 * h
    a = y * y * t**-two_h / 2.0  # exp(-a e^(2Hx))
    if a >= _LOG_FLOOR:
        return ExpectationResult(0.0, 0.0, t, y, 0.0, h)
    x_hi = math.log(_LOG_FLOOR / a) / two_h
    scale = t ** (2.0 - 3.0 * h)

    def integrand(x):
        arg = a * math.exp(two_h * x)
        if arg >= _LOG_FLOOR:
            return 0.0
        return (1.0 - math.exp(-x)) * math.exp((3.0 * h - 1.0) * x - arg)

    val, err = _quad(integrand, 0.0, x_hi)
    pref = -y * scale / _SQRT_2PI
    return ExpectationResult(pref * val, abs(pref) * err, t, y, 0.0, h)


class RegimeTag(NamedTuple):
    """Regime label plus whether the expectation is continuous at y = 0."""

    regime: str
    continuous_at_zero: bool


def regime_classify(hurst: float) -> RegimeTag:
    """Classify H into the three small-y regimes (requires 0 < H < 2/3).

    The critical regime is the exact float H == 1/3.  Continuity at 0
    holds iff H < 1/2: the supercritical scaling |y|^(1/H - 2) vanishes at
    0 exactly when that exponent is positive.
    """
    h = check_hurst(hurst)
    if h >= 2.0 / 3.0:
        raise ValueError("small-y regimes are classified only for H < 2/3")
    if h == 1.0 / 3.0:
        return RegimeTag("critical", True)
    if h < 1.0 / 3.0:
        return RegimeTag("subcritical", True)
    return RegimeTag("supercritical", h < 0.5)


def _tail_integral(hurst: float) -> float:
    """int_0^inf v^-3H exp(-v^-2H / 2) dv for H > 1/3, by quadrature.

    The substitution w = v^-2H / 2 tames both endpoints, leaving
    (1/H) int_0^inf (2w)^(1/2 - 1/(2H)) e^-w dw; the closed form is then
    (1/H) 2^(1/2 - 1/(2H)) Gamma(3/2 - 1/(2H)), used as the cross-check.
    """
    h = hurst
    a = 0.5 - 0.5 / h  # in (-1, 0) for 1/3 < H < 1

    def integrand(w):
        return (2.0 * w) ** a * math.exp(-w)

    lo, _ = _quad(integrand, 0.0, 1.0)
    hi, _ = _quad(integrand, 1.0, np.inf)
    return (lo + hi) / h


def tail_integral_closed_form(hurst: float) -> float:
    """Gamma-function form of the regime integral, for cross-checks."""
    h = check_hurst(hurst)
    if not h > 1.0 / 3.0:
        raise ValueError("closed form requires H > 1/3")
    return 2.0 ** (0.5 - 0.5 / h) * float(gamma_fn(1.5 - 0.5 / h)) / h


def asymptotic_constant(t: float, hurst: float) -> AsymptoticRegime:
    """Small-y regime constant of the epsilon = 0 expectation.

    supercritical (1/3 < H < 2/3): value ~ C |y|^(1/H-2) sign(y),
        C = -t/sqrt(2 pi) * int v^-3H exp(-v^-2H/2) dv
    critical (H = 1/3): value ~ C y log|y|, C = 3t/sqrt(2 pi)
    subcritical (H < 1/3): value ~ C y,
        C = -t^(2-3H) / ((1-3H)(2-3H) sqrt(2 pi))

    The subcritical constant is the dominated-convergence limit
    -t^(2-3H)/sqrt(2 pi) * int_0^t (t-u) u^-3H du / t^(2-3H); both factors
    of the denominator (1-3H)(2-3H) come from that beta-type integral.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    tag = regime_classify(hurst)
    h = check_hurst(hurst)
    if tag.regime == "supercritical":
        constant = -t * _tail_integral(h) / _SQRT_2PI
        scaling = "|y|^(1/H-2) sign(y)"
    elif tag.regime == "critical":
        constant = 3.0 * t / _SQRT_2PI
        scaling = "y log|y|"
    else:
        constant = -(t ** (2.0 - 3.0 * h)) / ((1.0 - 3.0 * h) * (2.0 - 3.0 * h) * _SQRT_2PI)
        scaling = "y"
    return AsymptoticRegime(regime=tag.regime, scaling=scaling,
                            constant=constant, t=t, hurst=h)
