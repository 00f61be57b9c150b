"""Exact expectations of the mollified derivative estimator, by quadrature.

For B_s - B_r Gaussian with variance (s-r)^2H, Fubini collapses the double
integral over the triangle to one dimension:

    E = -y / sqrt(2 pi) * int_0^t (t-u) (eps + u^2H)^(-3/2)
                                   exp(-y^2 / (2 (eps + u^2H))) du

Its scales u ~ eps^(1/2H) and |y|^(1/H) lie far below any fixed grid, so
one rule, in x = log(t/u), serves eps >= 0 (see _mean for its truncation
bound, 1e-14 of the integral).  Small-y asymptotics split by 3H - 1.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from .fbm import check_hurst

__all__ = [
    "QuadratureError",
    "UnderflowError",
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
_EXP_MAX = math.log(sys.float_info.max)
# bound on the discarded tail over the kept integral, and the span of x
# past the start of the e^-x (or e^((3H-1)x)) decay that reaches it
_TAIL_REL = 1e-14
_TAIL_SPAN = math.log(1.0 + 2.0**1.5 / ((1.0 - math.exp(-1.0)) * _TAIL_REL))


class UnderflowError(ValueError):
    """y or epsilon (named by `parameter`) is too small for double range."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


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


def _quad(f, a, b, epsrel=1e-10, limit=400):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=limit)
    if err > abs(val) * epsrel * 100.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds requested tolerance",
            value=val, achieved_tolerance=err,
        )
    return val, err


def _mean(t: float, y: float, epsilon: float, h: float) -> ExpectationResult:
    """E at epsilon >= 0, integrated in x = log(t/u).

    With g = e^(2Hx), a = y^2 t^-2H / 2, b = epsilon t^-2H, s = 1 + b g,
    E = -y t^(2-3H)/sqrt(2 pi) int_0^inf (1-e^-x) e^((3H-1)x - a g/s) s^-1.5 dx.
    If a > 750 b, exp(-a g/s) underflows past g = 750/(a - 750 b), the upper
    limit.  Otherwise the cut leaves a tail below _TAIL_REL of the kept
    integral: with q = exp(-a g/s) at the cut (a g/s grows in x), the
    integrand on [x0, cut] is at least (1 - 1/e) 2^-1.5 q r(x) and past the
    cut at most q r(x), where r = b^-1.5 e^-x and x0 = max(bend, 1) past
    the bend g = 1/b, or for H < 1/3 r = e^((3H-1)x) and x0 = 1 before it.
    So the cut is x0 + _TAIL_SPAN, or 1 + _TAIL_SPAN/(1-3H) if that is
    before the bend.  Only a = b = 0, or e^(2Hx) overflowing below the cut,
    raises; where a or b alone underflows, it drops < 1e-16 of the value.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if y == 0.0:
        return ExpectationResult(0.0, 0.0, t, 0.0, epsilon, h)
    two_h = 2.0 * h
    a = y * y * t**-two_h / 2.0
    b = epsilon * t**-two_h
    if a == 0.0 and b == 0.0:
        raise UnderflowError("y", f"y = {y:g} is too small: y^2 t^-2H underflows")
    excess = a - _LOG_FLOOR * b
    if excess >= _LOG_FLOOR:
        return ExpectationResult(0.0, 0.0, t, y, epsilon, h)
    if excess > 0.0:
        x_hi, name = math.log(_LOG_FLOOR / excess) / two_h, "y"
    else:
        bend = -math.log(b) / two_h
        x_hi, name = max(bend, 1.0) + _TAIL_SPAN, "epsilon"
        if 3.0 * h < 1.0 and 1.0 + _TAIL_SPAN / (1.0 - 3.0 * h) < bend:
            x_hi = 1.0 + _TAIL_SPAN / (1.0 - 3.0 * h)
    if two_h * x_hi > _EXP_MAX:
        raise UnderflowError(name, f"{name} is too small: e^(2Hx) leaves "
                             "double range below the upper limit")

    def integrand(x):
        g = math.exp(two_h * x)
        s = 1.0 + b * g
        arg = a * g / s
        if arg >= _LOG_FLOOR:
            return 0.0
        return (1.0 - math.exp(-x)) * math.exp((3.0 * h - 1.0) * x - arg) / s**1.5

    val, err = _quad(integrand, 0.0, x_hi)
    pref = -y * t ** (2.0 - 3.0 * h) / _SQRT_2PI
    return ExpectationResult(pref * val, abs(pref) * err, t, y, epsilon, h)


def mean_alpha_prime_eps(t: float, y: float, epsilon: float,
                         hurst: float) -> ExpectationResult:
    """E of the mollified derivative estimator at spatial offset y.

    Exact up to quadrature error; odd in y, and identically 0 at y = 0.
    """
    h = check_hurst(hurst)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive; see mean_alpha_prime")
    return _mean(t, y, epsilon, h)


def mean_alpha_prime(t: float, y: float, hurst: float) -> ExpectationResult:
    """Epsilon = 0 expectation of the derivative estimator.

    Continuous in y away from 0.  The u -> 0 endpoint is an essential
    zero, exactly 0 in doubles beyond the upper limit.
    """
    return _mean(t, y, 0.0, check_hurst(hurst))


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


def tail_integral_closed_form(hurst: float) -> float:
    """int_0^inf v^-3H exp(-v^-2H / 2) dv for H > 1/3: with w = v^-2H / 2,
    (1/H) int_0^inf (2w)^(1/2 - 1/(2H)) e^-w dw = the Gamma form below."""
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
        constant = -t * tail_integral_closed_form(h) / _SQRT_2PI
        scaling = "|y|^(1/H-2) sign(y)"
    elif tag.regime == "critical":
        constant = 3.0 * t / _SQRT_2PI
        scaling = "y log|y|"
    else:
        constant = -(t ** (2.0 - 3.0 * h)) / ((1.0 - 3.0 * h) * (2.0 - 3.0 * h) * _SQRT_2PI)
        scaling = "y"
    return AsymptoticRegime(regime=tag.regime, scaling=scaling,
                            constant=constant, t=t, hurst=h)
