"""Exact expectations of the mollified derivative estimator, by quadrature.

For B_s - B_r Gaussian with variance (s-r)^2H, Fubini collapses the double
integral over the triangle to one dimension:

    E = -y / sqrt(2 pi) * int_0^t (t-u) (eps + u^2H)^(-3/2)
                                   exp(-y^2 / (2 (eps + u^2H))) du

Its scales u ~ eps^(1/2H) and |y|^(1/H) lie far below any fixed grid, so
one rule, in x = log(t/u), serves eps >= 0 (see _integral for its
truncation bound, 1e-14 of the integral).  Small-y asymptotics split by 3H - 1.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
# logs of the normal doubles, less a margin for the rounding of a log
_LOG_MIN = math.log(sys.float_info.min) + 1e-9
_LOG_MAX = _EXP_MAX - 1e-9
# bound on the discarded tail over the kept integral, and the span of x
# past the start of the e^-x (or e^((3H-1)x)) decay that reaches it
_TAIL_REL = 1e-14
_TAIL_SPAN = math.log(1.0 + 2.0**1.5 / ((1.0 - math.exp(-1.0)) * _TAIL_REL))
# the direct integral gives way to the scaled one below about e^-650, where
# its value nears double underflow (the scaled one is about 1 at x = 0)
_LOG_SCALED = 650.0
# log E <= log prefactor (< 2200) - off + log integral (< 710): past this
# offset E is below double range
_OFF_MAX = 4000.0


class UnderflowError(ValueError):
    """y, epsilon or t (named by `parameter`) puts the mean past double range."""

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
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err = quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=limit)
    if err > abs(val) * epsrel * 100.0:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds requested tolerance",
            value=val, achieved_tolerance=err,
        )
    return val, err


def _cut(a: float, b: float, d: float, h: float, off: float = 0.0,
         shift: float = 0.0):
    """Upper limit of _integral, and the field to name if e^(2Hx) overflows there.

    If a > L b with L = 750 + off, the integrand underflows past
    g = L d/(a - L b).  Otherwise the cut leaves a tail below _TAIL_REL of
    the kept integral: with q = exp(-a g/s) at the cut (a g/s grows in x),
    the integrand on [x0, cut] is at least (1 - 1/e) 2^-1.5 q r(x) and past
    the cut at most q r(x), where r = (d/b)^1.5 e^-x and x0 = max(bend, 1)
    past the bend g = d/b, or for H < 1/3 r = e^((3H-1)x) and x0 = 1 before
    it.  So the cut is x0 + _TAIL_SPAN, or 1 + _TAIL_SPAN/(1-3H) if that is
    before the bend.  With a = b = 0 nothing cuts: the limit is inf.
    """
    two_h = 2.0 * h
    floor = _LOG_FLOOR + off
    excess = a - floor * b
    if excess > 0.0:
        return math.log(floor * d / excess) / two_h, "y"
    if b == 0.0:
        return math.inf, "y"
    bend = ((math.log(d) if d > 0.0 else -math.inf) - math.log(b)) / two_h
    start = 1.0 - shift  # x = 1 before the shift
    if 3.0 * h < 1.0 and start + _TAIL_SPAN / (1.0 - 3.0 * h) < bend:
        return start + _TAIL_SPAN / (1.0 - 3.0 * h), "epsilon"
    return max(bend, start) + _TAIL_SPAN, "epsilon"


def _integral(a: float, b: float, d: float, h: float, x_hi: float,
              off: float = 0.0, shift: float = 0.0):
    """e^off int (1-e^-(x+shift)) e^((3H-1)x - a g/s) s^-1.5 dx over
    [-shift, x_hi], with g = e^(2Hx) and s = d + b g: x is log(t/u) less
    the shift.  off <= the least a g/s, at x = -shift, keeps it in range."""
    two_h = 2.0 * h
    floor = _LOG_FLOOR + off

    def integrand(x):
        g = math.exp(two_h * x)
        s = d + b * g
        arg = a * g / s
        if arg >= floor:
            return 0.0
        return ((1.0 - math.exp(-(x + shift)))
                * math.exp((3.0 * h - 1.0) * x - (arg - off)) / s**1.5)

    return _quad(integrand, 0.0 - shift, x_hi)


def _mean(t: float, y: float, epsilon: float, h: float) -> ExpectationResult:
    """E at epsilon >= 0, integrated in x = log(t/u).

    With a = y^2 t^-2H / 2 and b = epsilon t^-2H,
    E = -y t^(2-3H)/sqrt(2 pi) * _integral(a, b, 1).  That integral is
    about exp(-a/(1+b)) (1+b)^-1.5.  It is taken directly, with Python
    powers and no rescaling, where t^-2H, t^(2-3H) and the prefactor are
    normal doubles, the estimate is above e^-_LOG_SCALED, and e^(2Hx) and
    s^1.5 are in range at the cut; there every value keeps the bits of
    this plain rule, except that a y^2 below the normal range is formed
    in logs.  Otherwise E is formed in logs: for b > 1 the factor b^-1.5
    leaves s (_integral(a/b, 1, 1/b) times b^-1.5); for t > 1 x shifts by
    log t, or less where y^2/2 or epsilon exceeds 1, so u is measured in
    its own units and a horizon above 1 never makes a cut overflow; the
    offset a/(d+b) leaves the exponent, and the prefactor is exponentiated
    last.  A result below double range is 0; one above raises
    UnderflowError naming t.  Where a or b alone underflows, it drops
    < 1e-16 of the value.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    if y == 0.0:
        return ExpectationResult(0.0, 0.0, t, 0.0, epsilon, h)
    two_h = 2.0 * h
    log_t, log_y = math.log(t), math.log(abs(y))
    log_pref = log_y + (2.0 - 3.0 * h) * log_t - math.log(_SQRT_2PI)
    if all(_LOG_MIN < v < _LOG_MAX
           for v in (-two_h * log_t, (2.0 - 3.0 * h) * log_t, log_pref,
                     log_pref + math.log(_SQRT_2PI))):
        scale = t**-two_h
        a, b = y * y * scale / 2.0, epsilon * scale
        if y * y < sys.float_info.min:  # y^2 lost bits below the normal range
            a = math.exp(2.0 * log_y - math.log(2.0) - two_h * log_t)
        if a / (1.0 + b) + 1.5 * math.log1p(b) < _LOG_SCALED:
            x_hi, _ = _cut(a, b, 1.0, h)
            if (two_h * x_hi < _EXP_MAX
                    and 1.5 * math.log1p(b * math.exp(two_h * x_hi)) < _EXP_MAX):
                val, err = _integral(a, b, 1.0, h, x_hi)
                pref = -y * t ** (2.0 - 3.0 * h) / _SQRT_2PI
                if not abs(pref * val) < math.inf:
                    raise UnderflowError("t", f"t = {t:g} puts the mean past double range")
                return ExpectationResult(pref * val, abs(pref) * err, t, y, epsilon, h)
    log_a = 2.0 * log_y - math.log(2.0) - two_h * log_t
    log_b = math.log(epsilon) - two_h * log_t if epsilon > 0.0 else -math.inf
    d = 1.0
    if log_b > 0.0:
        log_a, log_pref, log_b, d = (log_a - log_b, log_pref - 1.5 * log_b,
                                     0.0, math.exp(-log_b))
    # an a past double range has an offset past _OFF_MAX
    a, b = math.exp(min(log_a, _EXP_MAX)), math.exp(log_b)
    off = a / (d + b)
    if off > _OFF_MAX:
        return ExpectationResult(0.0, 0.0, t, y, epsilon, h)
    shift = max(0.0, min(log_t, -max(log_a, log_b) / two_h))
    if shift > 0.0:  # then a, b < 1 and d = 1
        a, b = math.exp(log_a + two_h * shift), math.exp(log_b + two_h * shift)
        log_pref += (3.0 * h - 1.0) * shift
    x_hi, name = _cut(a, b, d, h, off, shift)
    if two_h * x_hi > _EXP_MAX:
        raise UnderflowError(name, f"{name} is too small: e^(2Hx) leaves "
                             "double range below the upper limit")
    val, err = _integral(a, b, d, h, x_hi, off, shift)
    log_value = log_pref - off + math.log(val)
    if log_value > _EXP_MAX:
        raise UnderflowError("t", f"t = {t:g} puts the mean past double range")
    value = math.exp(log_value)
    if value == 0.0:
        return ExpectationResult(0.0, 0.0, t, y, epsilon, h)
    return ExpectationResult(-math.copysign(value, y), value * (err / val),
                             t, y, epsilon, h)


def _check_finite(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def mean_alpha_prime_eps(t: float, y: float, epsilon: float,
                         hurst: float) -> ExpectationResult:
    """E of the mollified derivative estimator at spatial offset y.

    Exact up to quadrature error; odd in y, and identically 0 at y = 0.
    """
    _check_finite(t=t, y=y, epsilon=epsilon)
    h = check_hurst(hurst)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive; see mean_alpha_prime")
    return _mean(t, y, epsilon, h)


def mean_alpha_prime(t: float, y: float, hurst: float) -> ExpectationResult:
    """Epsilon = 0 expectation of the derivative estimator.

    Continuous in y away from 0.  The u -> 0 endpoint is an essential
    zero, exactly 0 in doubles beyond the upper limit.
    """
    _check_finite(t=t, y=y)
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
    from scipy.special import gamma as gamma_fn

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
