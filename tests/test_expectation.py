"""Validation tests for the expectation oracles and regime constants.

Tests cover:
  1. Mollified expectation: independent trapezoid oracle, symmetry, limits.
  2. Sharp (epsilon = 0) expectation: frozen values, continuity in epsilon.
  3. Small-offset regimes: classification, constants, tail integral,
     subcritical slope, critical log factor, supercritical jump.
  4. Both means are odd in y bit for bit: the integrand depends on y^2
     only and the prefactor on -y.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siltlab.expectation import (
    AsymptoticRegime,
    ExpectationResult,
    QuadratureError,
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
        assert got.value == pytest.approx(want, rel=1e-10)
        assert got.abs_error_estimate < 1e-10 * abs(want)

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

    def test_huge_offset_underflows_to_zero(self) -> None:
        assert mean_alpha_prime(1.0, 60.0, 0.3).value == 0.0

    def test_finite_above_two_thirds(self) -> None:
        # pointwise expectation exists for every H at y != 0
        res = mean_alpha_prime(1.0, 0.5, 0.8)
        assert math.isfinite(res.value) and res.value < 0.0


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
        # quadrature inside asymptotic_constant vs the Gamma identity
        reg = asymptotic_constant(1.0, h)
        closed = -tail_integral_closed_form(h) / SQRT_2PI
        assert reg.constant == pytest.approx(closed, rel=1e-10)

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


def _assert_odd(mean, y) -> None:
    """mean(-y) is -mean(y) bit for bit, or both raise QuadratureError."""
    try:
        a = mean(y).value
    except QuadratureError:
        with pytest.raises(QuadratureError):
            mean(-y)
        return
    assert np.float64(mean(-y).value).view(np.int64) == np.float64(-a).view(np.int64)


class TestOddInY:
    """f(-y) == -f(y) bit for bit, for both means."""

    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(1e-6, 3.0), eps=st.floats(1e-4, 0.1), h=st.floats(0.1, 0.9))
    @example(y=0.125, eps=0.0078125, h=0.109375)  # raised before the v = u^2H rule
    def test_mollified_mean(self, y, eps, h) -> None:
        _assert_odd(lambda v: mean_alpha_prime_eps(1.0, v, eps, h), y)

    @settings(max_examples=30, deadline=None)
    @given(y=st.floats(1e-6, 3.0), h=st.floats(0.1, 0.9))
    def test_sharp_mean(self, y, h) -> None:
        _assert_odd(lambda v: mean_alpha_prime(1.0, v, h), y)
