"""Validation tests for the Gaussian mollifier kernel.

Tests cover:
  1. Density normalization, peak value, symmetry, derivative identity.
  2. Overflow safety far in the tails.
  3. The far-field clamp: bitwise agreement with the clamp-to-floor
     formula it replaced, and no subnormal exp on clamped arguments.
     f_eps' returns its limit 0 at +-inf, where that formula gives nan.
  4. The Fourier-inversion cross-check (with and without truncation).
"""

import math
import warnings

import numpy as np
import pytest

from siltlab.mollifier import (
    _EXP_FLOOR,
    Mollifier,
    _safe_exp,
    f_eps,
    f_eps_prime,
    fourier_check,
)


class TestKernel:
    """f_eps is the centered Gaussian density of variance epsilon."""

    @pytest.mark.parametrize("eps", [1e-4, 0.01, 0.5])
    def test_normalization(self, eps: float) -> None:
        m = Mollifier(eps)
        half = 12.0 * math.sqrt(eps)
        x = np.linspace(-half, half, 20001)
        mass = float(np.trapezoid(f_eps(x, m), x))
        assert mass == pytest.approx(1.0, abs=1e-9), (
            f"eps={eps}: mass {mass} should be 1"
        )

    def test_peak_value(self) -> None:
        m = Mollifier(0.04)
        assert f_eps(0.0, m) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.04),
                                              rel=1e-14)

    def test_parity(self) -> None:
        m = Mollifier(0.02)
        x = np.linspace(0.01, 1.0, 37)
        assert np.array_equal(f_eps(x, m), f_eps(-x, m)), "f must be even"
        np.testing.assert_allclose(f_eps_prime(-x, m), -f_eps_prime(x, m),
                                   rtol=1e-13)

    def test_derivative_matches_finite_difference(self) -> None:
        m = Mollifier(0.09)
        h = 1e-6
        for x in (-0.4, -0.05, 0.0, 0.3, 1.1):
            fd = (f_eps(x + h, m) - f_eps(x - h, m)) / (2 * h)
            got = float(f_eps_prime(x, m))
            assert got == pytest.approx(fd, abs=1e-6), (
                f"x={x}: derivative {got} vs finite difference {fd}"
            )

    def test_tails_underflow_cleanly(self) -> None:
        m = Mollifier(1e-4)
        with np.errstate(over="raise", invalid="raise"):
            assert f_eps(1e6, m) == 0.0
            assert f_eps_prime(1e6, m) == 0.0

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_epsilon_validation(self, eps: float) -> None:
        with pytest.raises(ValueError):
            Mollifier(eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_non_finite_epsilon_rejected(self, eps: float) -> None:
        with pytest.raises(ValueError):
            Mollifier(eps)


def _reference_safe_exp(arg):
    # the clamp-to-floor formula: exp(-745) is computed, then discarded
    out = np.exp(np.maximum(arg, _EXP_FLOOR))
    return np.where(arg < _EXP_FLOOR, 0.0, out)


def _reference_f_eps(x, eps):
    return _reference_safe_exp(-0.5 * x * x / eps) / np.sqrt(2.0 * np.pi * eps)


def _reference_f_eps_prime(x, eps):
    # the old formula, nan at +-inf (-inf * 0); its limit there is 0
    with np.errstate(invalid="ignore"):
        out = -x * _reference_safe_exp(-0.5 * x * x / eps) / np.sqrt(2.0 * np.pi * eps**3)
    return np.where(np.isinf(x), 0.0, out)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestFarFieldClamp:
    """Replacing clamped arguments by 0 changes no output bit."""

    EPS = 2e-5

    def _x_for(self, args):
        # offsets whose exponent argument -x^2 / (2 eps) is (about) args
        args = np.asarray(args, dtype=float)
        return np.sqrt(-2.0 * self.EPS * args)

    def _assert_bitwise(self, x, eps=EPS) -> None:
        m = Mollifier(eps)
        x = np.asarray(x, dtype=float)
        got = (f_eps(x, m), f_eps_prime(x, m))
        want = (_reference_f_eps(x, eps), _reference_f_eps_prime(x, eps))
        for g, w in zip(got, want):
            assert np.array_equal(_bits(g), _bits(w))

    def test_safe_exp_matches_reference(self) -> None:
        args = np.concatenate([
            np.linspace(-800.0, 0.0, 40001),
            [_EXP_FLOOR, np.nextafter(_EXP_FLOOR, 0.0),
             np.nextafter(_EXP_FLOOR, -np.inf)],
            np.linspace(-745.0, -708.4, 1001),
            [-np.inf, np.nan],
        ])
        assert np.array_equal(_bits(_safe_exp(args)),
                              _bits(_reference_safe_exp(args)))
        assert _safe_exp(np.float64(_EXP_FLOOR)) == np.exp(_EXP_FLOOR) > 0.0
        assert _safe_exp(np.float64(-745.5)) == 0.0

    def test_arguments_spanning_the_floor(self) -> None:
        self._assert_bitwise(self._x_for(np.linspace(-800.0, 0.0, 40001)))

    def test_subnormal_band(self) -> None:
        # exp is subnormal on (-745, -708.4) and must be computed as before
        x = self._x_for(np.linspace(-745.0, -708.4, 2001)[1:-1])
        self._assert_bitwise(x)
        assert np.all(f_eps(x, Mollifier(self.EPS)) > 0.0)

    def test_argument_exactly_at_floor(self) -> None:
        # -0.5 * 1 * 1 / (1/1490) rounds to exactly -745
        eps = 1.0 / 1490.0
        assert -0.5 * 1.0 * 1.0 / eps == _EXP_FLOOR
        self._assert_bitwise([1.0, -1.0, np.nextafter(1.0, 2.0)], eps)
        assert f_eps(1.0, Mollifier(eps)) > 0.0

    def test_non_finite_inputs(self) -> None:
        self._assert_bitwise(np.array([np.inf, -np.inf, np.nan, -np.nan]))

    def test_derivative_limit_at_infinity(self) -> None:
        m = Mollifier(self.EPS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_eps_prime(np.array([np.inf, -np.inf, np.nan]), m)
            assert f_eps_prime(np.inf, m) == 0.0 == f_eps_prime(-np.inf, m)
        assert got[0] == 0.0 and got[1] == 0.0 and np.isnan(got[2])

    def test_derivative_keeps_finite_bits(self) -> None:
        # signed zeros, tiny, clamped and overflowing offsets keep the old bits
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-300, -1e-300, 0.5, -0.5,
                      1e10, -1e10, 1e200, -1e200, np.finfo(float).max])
        with np.errstate(over="ignore"):
            got = f_eps_prime(x, Mollifier(self.EPS))
            want = -x * _reference_safe_exp(-0.5 * x * x / self.EPS) / np.sqrt(
                2.0 * np.pi * self.EPS**3)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.signbit(got[[0, 2, 4, 8, 10, 12]]).all()
        assert not np.signbit(got[[1, 3, 5, 9, 11]]).any()

    def test_zero_dimensional_inputs(self) -> None:
        m = Mollifier(self.EPS)
        for x in (0.0, 1e-3, 0.1, float(self._x_for(-740.0)), np.inf, np.nan):
            for scalar in (x, np.float64(x), np.array(x)):
                got = (f_eps(scalar, m), f_eps_prime(scalar, m))
                want = (_reference_f_eps(np.float64(x), self.EPS),
                        _reference_f_eps_prime(np.float64(x), self.EPS))
                assert all(isinstance(v, float) for v in got)
                for g, w in zip(got, want):
                    assert _bits(g) == _bits(w)

    def test_clamped_inputs_never_underflow(self) -> None:
        m = Mollifier(self.EPS)
        x = np.linspace(0.5, 3.0, 1001)
        with np.errstate(under="raise"):
            assert np.all(f_eps(x, m) == 0.0)
            assert np.all(f_eps_prime(x, m) == 0.0)
            assert f_eps(1.0, m) == 0.0


class TestFourierCheck:
    """(1/2pi) int e^{-ipx} hat-f(p) dp reconstructs the kernel."""

    @pytest.mark.parametrize("x", [0.0, 0.13, -0.4, 0.9])
    def test_reconstruction(self, x: float) -> None:
        m = Mollifier(0.05)
        direct = float(f_eps(x, m))
        recon = fourier_check(x, m)
        assert recon == pytest.approx(direct, abs=1e-10), (
            f"x={x}: Fourier {recon} vs direct {direct}"
        )

    @pytest.mark.parametrize("x", [0.07, -0.25])
    def test_derivative_reconstruction(self, x: float) -> None:
        m = Mollifier(0.05)
        direct = float(f_eps_prime(x, m))
        recon = fourier_check(x, m, derivative=True)
        assert recon == pytest.approx(direct, abs=1e-9), (
            f"x={x}: Fourier derivative {recon} vs direct {direct}"
        )

    def test_truncation_bias_visible(self) -> None:
        # a cutoff well inside the spectral support must misreconstruct
        m = Mollifier(0.01)
        direct = float(f_eps(0.0, m))
        truncated = fourier_check(0.0, m, cutoff=2.0)
        assert abs(truncated - direct) > 1e-3, (
            "tiny cutoff should visibly truncate the spectral integral"
        )
