"""Validation tests for the expectation oracles and regime constants.

Tests cover:
  1. Mollified expectation: independent trapezoid oracle, symmetry, limits.
  2. Sharp (epsilon = 0) expectation: frozen values, continuity in epsilon.
  3. Small-offset regimes: classification, constants, tail integral,
     subcritical slope, critical log factor, supercritical jump.
  4. Both means are odd in y bit for bit: the integrand depends on y^2
     only and the prefactor on -y.
  5. The whole domain: every draw returns a finite, resolved, exactly odd
     value, and the mean is exactly self-similar in the horizon.
  6. Horizons from 1e-300 to 1e300: a finite, resolved, exactly odd value
     or, where the mean leaves double range, an UnderflowError naming t;
     the linear growth past t^2H >> eps; and the closed-form limit
     -y t^2 eps^-1.5 e^(-y^2 / 2 eps) / (2 sqrt(2 pi)) where t^2H << eps.
  7. Non-finite t, y or epsilon raises a ValueError naming it before any
     quadrature.

The literal mpmath references come from tests/mpmath_references.py.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from siltlab import expectation
from siltlab.expectation import (
    AsymptoticRegime,
    ExpectationResult,
    QuadratureError,
    UnderflowError,
    asymptotic_constant,
    mean_alpha_prime,
    mean_alpha_prime_eps,
    regime_classify,
    tail_integral_closed_form,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _trapezoid_mean(t, y, eps, h, n=400_001):
    """Independent dense-trapezoid evaluation of the u-integral."""
    u = np.linspace(0.0, t, n)
    var = eps + u ** (2 * h)
    integrand = (t - u) * np.exp(-0.5 * y * y / var) / var ** 1.5
    return -y / SQRT_2PI * float(np.trapezoid(integrand, u))


# ---------------------------------------------------------------------------
# Mollified expectation
# ---------------------------------------------------------------------------

class TestMollifiedMean:
    """E[alpha-hat'_eps(y)] by adaptive quadrature."""

    @pytest.mark.parametrize("t,y,eps,h", [
        (1.0, 0.5, 0.01, 0.3),
        (1.0, 0.1, 0.05, 0.5),
        (2.0, -0.4, 0.02, 0.45),
        (1.0, 1.5, 0.1, 0.6),
    ])
    def test_against_trapezoid_oracle(self, t, y, eps, h) -> None:
        got = mean_alpha_prime_eps(t, y, eps, h)
        want = _trapezoid_mean(t, y, eps, h)
        assert got.value == pytest.approx(want, rel=1e-7), (
            f"quad {got.value} vs trapezoid {want}"
        )
        assert got.abs_error_estimate < 1e-8 * max(1.0, abs(got.value))

    def test_frozen_value(self) -> None:
        got = mean_alpha_prime_eps(1.0, 0.5, 0.01, 0.3).value
        assert got == pytest.approx(-0.30236616514895087, rel=1e-10)

    # in u, quad raised QuadratureError at the first two points and was
    # 2.7e-3 off at the third; the reference values come from 30-digit
    # mpmath quadrature of the u-integral
    @pytest.mark.parametrize("y,eps,h,want", [
        (0.125, 0.0078125, 0.109375, -0.04296326264421823827),
        (1e-3, 1e-4, 0.15, -4.6777590450460592882e-4),
        (1e-4, 1e-6, 0.25, -1.2734216446413777e-4),
    ])
    def test_small_hurst_against_mpmath(self, y, eps, h, want) -> None:
        got = mean_alpha_prime_eps(1.0, y, eps, h)
        assert got.value == pytest.approx(want, rel=1e-10, abs=0.0)
        assert got.abs_error_estimate < 1e-10 * abs(want)

    # the u rule raised QuadratureError at the first two points and was
    # 71% low at the third, with an error estimate of 1e-12; an absolute
    # tolerance of 1e-10 fails the fourth, whose integral is about 1e-8
    @pytest.mark.parametrize("t,y,eps,h,want", [
        (1.0, 1e-4, 1e-7, 0.5, -0.24801084033326457),
        (1.0, 1e-5, 1e-8, 0.6, -1.2325732607002524),
        (1.0, 2e-5, 1e-8, 0.5, -0.15848750670838496),
        (0.5, 3.72, 0.154, 0.674, -1.7142198782745554e-08),
    ])
    def test_small_epsilon_against_mpmath(self, t, y, eps, h, want) -> None:
        got = mean_alpha_prime_eps(t, y, eps, h)
        assert got.value == pytest.approx(want, rel=1e-10, abs=0.0)
        assert got.abs_error_estimate <= 1e-8 * abs(got.value)

    def test_tiny_horizon_against_mpmath(self) -> None:
        # b = eps t^-2H = 1e180: s^1.5 overflowed a Python float power
        got = mean_alpha_prime_eps(1e-100, 1.0, 1.0, 0.9)
        assert got.value == pytest.approx(-1.2098536225957168e-201, rel=1e-12, abs=0.0)
        assert got.abs_error_estimate <= 1e-10 * abs(got.value)

    def test_huge_horizon_against_mpmath(self) -> None:
        # t^-2H = 1e-315 is subnormal, and e^(2Hx) overflowed at the cut
        got = mean_alpha_prime_eps(1e175, 1.0, 1.0, 0.9)
        assert got.value == pytest.approx(-3.0614164643833954e174, rel=1e-12, abs=0.0)
        assert got.abs_error_estimate <= 1e-10 * abs(got.value)

    @pytest.mark.parametrize("t", [1e150, 1e157, 1e178, 1e300])
    def test_huge_horizon_is_linear_in_t(self, t) -> None:
        # E = -(t F0 - F1) / sqrt(2 pi) with F0 = int_0^inf f and F1 = int_0^inf u f
        # up to tails of order t^-0.7 (3H > 2): the mpmath value above over t.
        # 1e150: the direct rule; 1e157: its cut overflows; 1e178: t^-2H is
        # subnormal; 1e300: it underflows to 0
        got = mean_alpha_prime_eps(t, 1.0, 1.0, 0.9).value / t
        assert got == pytest.approx(-3.0614164643833954e-1, rel=1e-12, abs=0.0)

    def test_tiny_horizon_underflows_to_zero(self) -> None:
        # E ~ -y t^2 eps^-1.5 e^-1/2 / (2 sqrt(2 pi)), about 1e-601
        assert mean_alpha_prime_eps(1e-300, 1.0, 1.0, 0.9).value == 0.0
        # eps t^-2H = 1e327 overflows to inf; s = inf made a g / s nan
        assert mean_alpha_prime_eps(1e-200, 1e90, 1e207, 0.3).value == 0.0

    def test_overflowing_mean_names_t(self) -> None:
        # E ~ y t^(2-3H) = 1e510 at H = 0.1: t^(2-3H) overflows
        with pytest.raises(UnderflowError) as info:
            mean_alpha_prime_eps(1e300, 1.0, 1.0, 0.1)
        assert info.value.parameter == "t"
        # every factor is in range, and their product is not
        with pytest.raises(UnderflowError) as info:
            mean_alpha_prime(1.7e308, 1000.0, 0.45)
        assert info.value.parameter == "t"

    def test_tiny_epsilon_is_the_sharp_mean(self) -> None:
        # in u, eps + u^2H = 1e-300 made var^1.5 underflow to 0
        got = mean_alpha_prime_eps(1.0, 0.1, 1e-300, 0.5).value
        assert got == pytest.approx(mean_alpha_prime(1.0, 0.1, 0.5).value, rel=1e-12)

    def test_one_underflowing_scale_is_harmless(self) -> None:
        # y^2 underflows: the mean is linear in y this far below sqrt(eps)
        tiny = mean_alpha_prime_eps(1.0, 1e-170, 0.01, 0.3).value / 1e-170
        small = mean_alpha_prime_eps(1.0, 1e-100, 0.01, 0.3).value / 1e-100
        assert tiny == pytest.approx(small, rel=1e-14)
        # eps t^-2H underflows: the mean is the sharp one
        got = mean_alpha_prime_eps(4.0, 0.1, 5e-324, 0.98).value
        assert got == mean_alpha_prime(4.0, 0.1, 0.98).value

    def test_overflowing_cut_names_epsilon(self) -> None:
        # the tail cut past the bend at eps = 1e-300 puts e^(2Hx) past range
        with pytest.raises(UnderflowError) as info:
            mean_alpha_prime_eps(1.0, 1e-150, 1e-300, 0.5)
        assert info.value.parameter == "epsilon" and "epsilon" in str(info.value)

    def test_odd_in_y(self) -> None:
        a = mean_alpha_prime_eps(1.0, 0.37, 0.02, 0.4).value
        b = mean_alpha_prime_eps(1.0, -0.37, 0.02, 0.4).value
        assert a == -b, f"mean must be exactly odd: {a} vs {-b}"

    def test_zero_at_origin(self) -> None:
        res = mean_alpha_prime_eps(1.0, 0.0, 0.01, 0.3)
        assert res.value == 0.0 and res.abs_error_estimate == 0.0

    def test_result_record(self) -> None:
        res = mean_alpha_prime_eps(2.0, 0.3, 0.04, 0.35)
        assert isinstance(res, ExpectationResult)
        assert (res.t, res.y, res.epsilon, res.hurst) == (2.0, 0.3, 0.04, 0.35)

    @pytest.mark.parametrize("t,eps", [(0.0, 0.01), (-1.0, 0.01), (1.0, 0.0)])
    def test_domain(self, t, eps) -> None:
        with pytest.raises(ValueError):
            mean_alpha_prime_eps(t, 0.1, eps, 0.4)


class TestSharpMean:
    """The epsilon = 0 expectation via the log substitution."""

    def test_frozen_value(self) -> None:
        got = mean_alpha_prime(1.0, 0.3, 0.4).value
        assert got == pytest.approx(-0.45883418884720101, rel=1e-10)

    def test_epsilon_continuity(self) -> None:
        sharp = mean_alpha_prime(1.0, 0.3, 0.4).value
        near = mean_alpha_prime_eps(1.0, 0.3, 1e-9, 0.4).value
        assert near == pytest.approx(sharp, rel=1e-6), (
            f"eps->0 limit {near} should approach sharp value {sharp}"
        )

    def test_odd_and_zero_at_origin(self) -> None:
        a = mean_alpha_prime(1.0, 0.2, 0.35).value
        b = mean_alpha_prime(1.0, -0.2, 0.35).value
        assert a == -b
        assert mean_alpha_prime(1.0, 0.0, 0.35).value == 0.0

    @pytest.mark.parametrize("y", [1e-170, 1e-154])
    def test_tiny_offset_raises_underflow(self, y) -> None:
        # 1e-170: y^2 underflows; 1e-154: e^(2Hx) overflows at the cut
        with pytest.raises(UnderflowError) as info:
            mean_alpha_prime(1.0, y, 0.5)
        assert info.value.parameter == "y"

    def test_tiny_horizon(self) -> None:
        # t^-2H = 1e540 overflowed a Python float power: a = 5e539 puts
        # exp(-a g) below range, while y = 1e-270 leaves a = 0.5
        assert mean_alpha_prime(1e-300, 1.0, 0.9).value == 0.0
        got = mean_alpha_prime(1e-300, 1e-270, 0.9).value
        assert got == pytest.approx(-9.342668583221763e-62, rel=1e-12, abs=0.0)

    def test_huge_offset_underflows_to_zero(self) -> None:
        assert mean_alpha_prime(1.0, 60.0, 0.3).value == 0.0

    @pytest.mark.parametrize("t,y,c,y1", [
        (1e200, 1e154, 1e40, 1e-26),    # t^-2H = 1e-360 underflowed: a = 0 named y
        (1e300, 1e200, 1e60, 1e-70),    # y^2 overflows; the shift stops at a = 1
        (1e-150, 1e-160, 1e-30, 1e-25),  # y^2 is subnormal, t^-2H y^2 is not
    ])
    def test_extreme_horizon_is_self_similar(self, t, y, c, y1) -> None:
        # E(t, y) = t^(2-2H) E(1, y t^-H), here with t^(2-2H) = c
        got = mean_alpha_prime(t, y, 0.9).value
        want = c * mean_alpha_prime(1.0, y1, 0.9).value
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_finite_above_two_thirds(self) -> None:
        # pointwise expectation exists for every H at y != 0
        res = mean_alpha_prime(1.0, 0.5, 0.8)
        assert math.isfinite(res.value) and res.value < 0.0


class TestNonFiniteInput:
    """nan and +-inf are rejected up front, with the field named."""

    VALID = {"t": 1.0, "y": 0.5, "epsilon": 0.01}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("sharp,field", [
        (False, "t"), (False, "y"), (False, "epsilon"), (True, "t"), (True, "y"),
    ], ids=["eps-t", "eps-y", "eps-epsilon", "sharp-t", "sharp-y"])
    def test_rejected_before_any_work(self, monkeypatch, sharp, field, value) -> None:
        def no_work(*args):
            raise AssertionError("the mean was computed")

        monkeypatch.setattr(expectation, "_mean", no_work)
        args = dict(self.VALID, **{field: value})
        with pytest.raises(ValueError) as info:
            if sharp:
                mean_alpha_prime(args["t"], args["y"], 0.4)
            else:
                mean_alpha_prime_eps(args["t"], args["y"], args["epsilon"], 0.4)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{field} must be finite")


# ---------------------------------------------------------------------------
# Regimes
# ---------------------------------------------------------------------------

class TestRegimes:
    """Classification and the three small-offset scalings."""

    @pytest.mark.parametrize("h,regime,cont", [
        (0.2, "subcritical", True),
        (1.0 / 3.0, "critical", True),
        (0.4, "supercritical", True),
        (0.5, "supercritical", False),
        (0.6, "supercritical", False),
    ])
    def test_classification(self, h, regime, cont) -> None:
        tag = regime_classify(h)
        assert tag.regime == regime
        assert tag.continuous_at_zero is cont, (
            f"H={h}: continuity at 0 holds iff H < 1/2"
        )

    @pytest.mark.parametrize("h", [2.0 / 3.0, 0.8])
    def test_classification_domain(self, h) -> None:
        with pytest.raises(ValueError):
            regime_classify(h)

    @pytest.mark.parametrize("h", [0.35, 0.4, 0.5, 0.6, 0.65])
    def test_tail_integral_closed_form(self, h) -> None:
        # direct quadrature of int_0^inf v^-3H exp(-v^-2H / 2) dv, an
        # independent reference for the Gamma form and the constant
        def f(v):
            return v ** (-3.0 * h) * math.exp(-0.5 * v ** (-2.0 * h))

        tail = sum(quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((0.0, 1.0), (1.0, np.inf)))
        assert tail_integral_closed_form(h) == pytest.approx(tail, rel=1e-12)
        reg = asymptotic_constant(1.0, h)
        assert reg.constant == pytest.approx(-tail / SQRT_2PI, rel=1e-12)

    def test_supercritical_constant_at_half_is_minus_one(self) -> None:
        # 2^(1/2 - 1) Gamma(1/2) / (1/2) = sqrt(2 pi), so C = -t
        assert tail_integral_closed_form(0.5) == pytest.approx(SQRT_2PI, rel=1e-14)
        assert asymptotic_constant(3.0, 0.5).constant == pytest.approx(-3.0, rel=1e-12)

    def test_subcritical_constant_formula(self) -> None:
        t, h = 2.0, 0.25
        want = -(t ** (2 - 3 * h)) / ((1 - 3 * h) * (2 - 3 * h) * SQRT_2PI)
        reg = asymptotic_constant(t, h)
        assert reg.regime == "subcritical" and reg.scaling == "y"
        assert reg.constant == pytest.approx(want, rel=1e-14)

    def test_subcritical_slope_matches_constant(self) -> None:
        # value/y approaches the constant as y -> 0
        reg = asymptotic_constant(1.0, 0.25)
        ratio = mean_alpha_prime(1.0, 1e-4, 0.25).value / 1e-4
        rel = abs(ratio - reg.constant) / abs(reg.constant)
        print(f"  subcritical slope {ratio:.6f} vs constant {reg.constant:.6f} "
              f"({rel:.2e})")
        assert rel < 1e-2

    def test_critical_log_factor(self) -> None:
        y = 1e-7
        reg = asymptotic_constant(1.0, 1.0 / 3.0)
        assert reg.scaling == "y log|y|"
        assert reg.constant == pytest.approx(3.0 / SQRT_2PI, rel=1e-14)
        ratio = mean_alpha_prime(1.0, y, 1.0 / 3.0).value / (y * math.log(y))
        rel = abs(ratio - reg.constant) / reg.constant
        print(f"  critical ratio {ratio:.6f} vs {reg.constant:.6f} ({rel:.2%})")
        assert rel < 0.05

    def test_supercritical_jump_at_half(self) -> None:
        lim_pos = mean_alpha_prime(1.0, 1e-6, 0.5).value
        lim_neg = mean_alpha_prime(1.0, -1e-6, 0.5).value
        assert lim_pos == pytest.approx(-1.0, rel=1e-2)
        assert lim_neg - lim_pos == pytest.approx(2.0, rel=2e-2)

    def test_supercritical_power_law(self) -> None:
        # H = 0.55: value ~ C |y|^(1/H - 2) sign(y), exponent < 0 (blow-up)
        h = 0.55
        reg = asymptotic_constant(1.0, h)
        expo = 1.0 / h - 2.0
        y = 1e-5
        ratio = mean_alpha_prime(1.0, y, h).value / (y ** expo * math.copysign(1, y))
        rel = abs(ratio - reg.constant) / abs(reg.constant)
        print(f"  power-law ratio {ratio:.6f} vs {reg.constant:.6f} ({rel:.2%})")
        assert rel < 0.02

    def test_quadrature_error_record(self) -> None:
        err = QuadratureError("tolerance not reached", value=1.5,
                              achieved_tolerance=1e-3)
        assert err.value == 1.5 and err.achieved_tolerance == 1e-3
        assert "tolerance" in str(err)

    def test_regime_record(self) -> None:
        reg = asymptotic_constant(1.0, 0.2)
        assert isinstance(reg, AsymptoticRegime)
        assert (reg.t, reg.hurst) == (1.0, 0.2)


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def _assert_odd(mean, y) -> None:
    """mean(-y) is -mean(y) bit for bit."""
    assert _bits(mean(-y).value) == _bits(-mean(y).value)


class TestOddInY:
    """f(-y) == -f(y) bit for bit, for both means."""

    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(1e-6, 3.0), eps=st.floats(1e-4, 0.1), h=st.floats(0.1, 0.9))
    @example(y=0.125, eps=0.0078125, h=0.109375)  # raised in u
    def test_mollified_mean(self, y, eps, h) -> None:
        _assert_odd(lambda v: mean_alpha_prime_eps(1.0, v, eps, h), y)

    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(1e-6, 3.0), h=st.floats(0.1, 0.9))
    def test_sharp_mean(self, y, h) -> None:
        _assert_odd(lambda v: mean_alpha_prime(1.0, v, h), y)


def _either_mean(t, y, eps, h):
    if eps == 0.0:
        return mean_alpha_prime(t, y, h)
    return mean_alpha_prime_eps(t, y, eps, h)


_T = st.floats(0.25, 4.0)
_Y = st.builds(lambda e, sign: sign * 10.0**e,
               st.floats(-6.0, math.log10(4.0)), st.sampled_from([-1.0, 1.0]))
_EPS = st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e))
_H = st.floats(0.02, 0.98)


def _plain_rule(t, y, eps, h):
    """The x = log(t/u) rule with Python powers and no rescaling, as the
    means computed it before they reached extreme horizons."""
    two_h = 2.0 * h
    a, b = y * y * t**-two_h / 2.0, eps * t**-two_h
    span = math.log(1.0 + 2.0**1.5 / ((1.0 - math.exp(-1.0)) * 1e-14))
    if a > 750.0 * b:
        x_hi = math.log(750.0 / (a - 750.0 * b)) / two_h
    else:
        bend = -math.log(b) / two_h
        x_hi = max(bend, 1.0) + span
        if 3.0 * h < 1.0 and 1.0 + span / (1.0 - 3.0 * h) < bend:
            x_hi = 1.0 + span / (1.0 - 3.0 * h)

    def integrand(x):
        g = math.exp(two_h * x)
        s = 1.0 + b * g
        arg = a * g / s
        if arg >= 750.0:
            return 0.0
        return (1.0 - math.exp(-x)) * math.exp((3.0 * h - 1.0) * x - arg) / s**1.5

    val = quad(integrand, 0.0, x_hi, epsabs=0.0, epsrel=1e-10, limit=400)[0]
    return -y * t ** (2.0 - 3.0 * h) / SQRT_2PI * val


class TestWholeDomain:
    """H in [0.02, 0.98], |y| in [1e-6, 4], eps in {0} + [1e-8, 1], t in [1/4, 4]."""

    @settings(max_examples=100, deadline=None)
    @given(t=_T, y=_Y, eps=_EPS, h=_H)
    def test_plain_rule_bit_for_bit(self, t, y, eps, h) -> None:
        # the log-scaled route for extreme horizons leaves these bits alone
        got = _either_mean(t, y, eps, h).value
        assert _bits(got) == _bits(_plain_rule(t, y, eps, h))

    @settings(max_examples=300, deadline=None)
    @given(t=_T, y=_Y, eps=_EPS, h=_H)
    @example(t=1.0, y=1e-4, eps=1e-7, h=0.5)   # raised in u
    @example(t=1.0, y=2e-5, eps=1e-8, h=0.5)   # 71% low in u
    @example(t=4.0, y=-1e-6, eps=1e-8, h=0.02)
    @example(t=0.25, y=4.0, eps=1.0, h=0.98)
    def test_finite_resolved_and_odd(self, t, y, eps, h) -> None:
        res = _either_mean(t, y, eps, h)
        assert math.isfinite(res.value) and res.value != 0.0
        assert res.abs_error_estimate <= 1e-8 * abs(res.value)
        assert _bits(_either_mean(t, -y, eps, h).value) == _bits(-res.value)

    @settings(max_examples=200, deadline=None)
    @given(t=_T, y=_Y, eps=_EPS, h=_H, c=st.floats(0.25, 4.0))
    def test_self_similar_in_the_horizon(self, t, y, eps, h, c) -> None:
        # (c t, c^H y, c^2H eps) leaves a = y^2 t^-2H / 2 and b = eps t^-2H
        base = _either_mean(t, y, eps, h).value
        scaled = _either_mean(c * t, c**h * y, c ** (2.0 * h) * eps, h).value
        assert scaled == pytest.approx(c ** (2.0 - 2.0 * h) * base, rel=1e-12)


class TestExtremeHorizons:
    """t = 10^k for k in [-300, 300], the rest of the domain as above."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.floats(-300.0, 300.0), y=_Y, eps=_EPS, h=_H)
    @example(k=175.0, y=1.0, eps=1.0, h=0.9)   # t^-2H is subnormal
    @example(k=157.0, y=1.0, eps=1.0, h=0.9)   # the cut overflowed
    @example(k=200.0, y=1.0, eps=0.0, h=0.9)   # t^-2H underflows to 0
    def test_finite_resolved_and_odd_or_past_range(self, k, y, eps, h) -> None:
        # with |y| >= 1e-6 and eps >= 1e-8 (or 0) neither y nor eps is too
        # small: only a mean past double range may raise, and it names t
        t = 10.0**k
        try:
            res = _either_mean(t, y, eps, h)
        except UnderflowError as exc:
            assert exc.parameter == "t"
            return
        assert math.isfinite(res.value)
        assert res.abs_error_estimate <= 1e-8 * abs(res.value)
        mirrored = _either_mean(t, -y, eps, h).value
        if res.value == 0.0:   # an underflowed mean is 0.0 for either sign
            assert mirrored == 0.0
        else:
            assert _bits(mirrored) == _bits(-res.value)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(-300.0, -10.0), y=_Y, e=st.floats(-8.0, 0.0), h=_H)
    @example(k=-81.0, y=-0.003, e=-7.8, h=0.93)   # the integral in a, b underflowed to 0
    def test_tiny_horizon_limit(self, k, y, e, h) -> None:
        # d = t^2H / eps: the mean is the closed form up to a relative O((1 + c) d)
        t, eps = 10.0**k, 10.0**e
        c = y * y / (2.0 * eps)
        assume(2.0 * h * k - e + math.log10(1.0 + c) < -14.0)
        log_want = (math.log(abs(y)) + 2.0 * math.log(t) - 1.5 * math.log(eps) - c
                    - math.log(2.0 * SQRT_2PI))
        got = mean_alpha_prime_eps(t, y, eps, h).value
        if log_want < -750.0:
            assert got == 0.0
        elif log_want > -700.0:
            want = -math.copysign(math.exp(log_want), y)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)
