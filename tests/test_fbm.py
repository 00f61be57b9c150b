"""Validation tests for the fBm synthesis core.

Tests cover:
  1. Covariance function: closed form, Brownian special case, matrices.
  2. Path generation: determinism, seed separation, scaling, batch statistics.
  3. Method selection, the Cholesky route's size refusal, and circulant
     embedding succeeding at extreme H.
  4. Configuration times, the characteristic functional, and the local
     nondeterminism ratio (exactly 1 at H = 1/2).
"""

import math

import numpy as np
import pytest

from siltlab.fbm import (
    ConfigurationTimes,
    FbmPath,
    SynthesisError,
    characteristic_functional,
    check_hurst,
    covariance,
    covariance_matrix,
    generate_path,
    increment_covariance_matrix,
    lnd_ratio,
)


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

class TestCovariance:
    """E[B_s B_t] = (s^2H + t^2H - |t-s|^2H) / 2."""

    @pytest.mark.parametrize("h", [0.2, 0.5, 0.8])
    def test_variance_on_diagonal(self, h: float) -> None:
        for t in (0.25, 1.0, 3.0):
            assert covariance(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)

    def test_brownian_case_is_min(self) -> None:
        s = np.array([0.1, 0.5, 0.9, 2.0])
        t = np.array([0.3, 0.5, 0.4, 1.5])
        got = covariance(s, t, 0.5)
        assert np.array_equal(got, np.minimum(s, t)), (
            f"H=1/2 covariance must be exactly min(s, t), got {got}"
        )

    def test_symmetry_and_psd(self) -> None:
        times = np.linspace(0.1, 1.0, 8)
        mat = covariance_matrix(times, 0.3)
        assert np.array_equal(mat, mat.T)
        eig = np.linalg.eigvalsh(mat)
        assert eig.min() > 0, f"covariance matrix not PSD: min eig {eig.min()}"

    def test_increment_covariance_brownian_is_diagonal(self) -> None:
        times = np.array([0.0, 0.2, 0.5, 1.0])
        mat = increment_covariance_matrix(times, 0.5)
        assert np.array_equal(mat, np.diag(np.diff(times))), (
            "Brownian increments must be exactly independent"
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_hurst_domain(self, bad: float) -> None:
        with pytest.raises(ValueError):
            check_hurst(bad)


# ---------------------------------------------------------------------------
# Path generation
# ---------------------------------------------------------------------------

class TestGeneratePath:
    """Exact synthesis via circulant embedding, or Cholesky for small n."""

    def test_deterministic_per_seed(self) -> None:
        a = generate_path(0.3, 1.0, 256, 7)
        b = generate_path(0.3, 1.0, 256, 7)
        assert np.array_equal(a.values, b.values), "same seed must be bitwise equal"
        c = generate_path(0.3, 1.0, 256, 8)
        assert not np.array_equal(a.values, c.values), "different seeds must differ"

    def test_starts_at_zero_and_shapes(self) -> None:
        p = generate_path(0.6, 2.0, 128, 0)
        assert p.values[0] == 0.0
        assert p.values.shape == (129,)
        assert p.times[0] == 0.0 and p.times[-1] == pytest.approx(2.0)
        assert p.delta == pytest.approx(2.0 / 128)
        assert p.increments.shape == (128,)

    def test_horizon_scaling_same_seed(self) -> None:
        # same driving noise, horizon doubled: values scale by 2^H
        a = generate_path(0.4, 1.0, 64, 11)
        b = generate_path(0.4, 2.0, 64, 11)
        np.testing.assert_allclose(b.values, 2.0 ** 0.4 * a.values, rtol=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
    def test_terminal_variance(self, h: float) -> None:
        n_paths, t = 4000, 1.0
        finals = np.array([generate_path(h, t, 32, seed).values[-1]
                           for seed in range(n_paths)])
        var = finals.var()
        expected = t ** (2 * h)
        rel = abs(var - expected) / expected
        print(f"  H={h}: terminal var {var:.4f} vs {expected:.4f} ({rel:.2%})")
        assert rel < 0.08, (
            f"terminal variance off for H={h}: {var:.4f} vs {expected:.4f}"
        )

    def test_increment_correlation_sign(self) -> None:
        # consecutive increment correlation: (2^2H - 2)/2, negative for
        # H < 1/2, zero at 1/2, positive for H > 1/2
        for h, expected in ((0.3, (2 ** 0.6 - 2) / 2),
                            (0.5, 0.0),
                            (0.7, (2 ** 1.4 - 2) / 2)):
            incs = np.concatenate([generate_path(h, 1.0, 32, s).increments
                                   for s in range(3000, 4000)])
            incs = incs.reshape(-1, 32)
            prods = (incs[:, :-1] * incs[:, 1:]).mean()
            var = incs.var()
            rho = prods / var
            print(f"  H={h}: lag-1 correlation {rho:.4f} vs {expected:.4f}")
            assert abs(rho - expected) < 0.04, (
                f"H={h}: correlation {rho:.4f}, expected {expected:.4f}"
            )

    def test_cholesky_matches_statistics(self) -> None:
        finals = np.array([
            generate_path(0.3, 1.0, 16, s, method="cholesky").values[-1]
            for s in range(1500)])
        rel = abs(finals.var() - 1.0)
        assert rel < 0.12, f"cholesky terminal variance off by {rel:.2%}"

    def test_cholesky_refuses_large_n(self) -> None:
        with pytest.raises(SynthesisError):
            generate_path(0.3, 1.0, 8192, 0, method="cholesky")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_range(self, seed: int) -> None:
        with pytest.raises(ValueError):
            generate_path(0.5, 1.0, 16, seed)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon: float) -> None:
        with pytest.raises(ValueError):
            generate_path(0.5, horizon, 4, 0)

    def test_bad_method(self) -> None:
        for method in ("magic", "auto"):
            with pytest.raises(ValueError):
                generate_path(0.5, 1.0, 16, 0, method=method)

    @pytest.mark.parametrize("h", [1e-6, 0.1, 0.5, 0.9, 0.999, 0.9999])
    @pytest.mark.parametrize("n", [1, 3, 1000, 4096])
    def test_circulant_accepts_every_cholesky_size(self, h: float, n: int) -> None:
        # The embedding is rejected only for m >= 2^15 (rounding in the
        # autocovariance near H = 1), so no Cholesky-sized path needs a
        # second route.
        p = generate_path(h, 1.0, n, 0)
        assert p.values.shape == (n + 1,) and np.all(np.isfinite(p.values))

    def test_path_record_fields(self) -> None:
        p = generate_path(0.45, 1.5, 64, 9)
        assert (p.hurst, p.horizon, p.n_steps, p.seed) == (0.45, 1.5, 64, 9)


# ---------------------------------------------------------------------------
# Configuration times, characteristic functional, local nondeterminism
# ---------------------------------------------------------------------------

class TestConfigurationTimes:
    """Sorted, even-length, nonnegative time tuples."""

    def test_gaps(self) -> None:
        c = ConfigurationTimes((0.1, 0.3, 0.6, 1.0))
        np.testing.assert_allclose(c.gaps, [0.2, 0.3, 0.4])

    @pytest.mark.parametrize("bad", [
        (0.1, 0.2, 0.3),          # odd length
        (0.3, 0.2),               # unsorted
        (-0.1, 0.2),              # negative
        (),                       # empty
    ])
    def test_validation(self, bad) -> None:
        with pytest.raises(ValueError):
            ConfigurationTimes(bad)


def _random_times(rng, k: int) -> ConfigurationTimes:
    """k sorted times with strictly positive gaps."""
    gaps = rng.uniform(0.01, 0.3, k)
    return ConfigurationTimes(tuple(np.cumsum(gaps)))


class TestCharacteristicFunctional:
    """E[exp(i sum u_j dB_j)] = exp(-var/2) over the gap increments."""

    def test_brownian_hand_value(self) -> None:
        times = ConfigurationTimes((0.2, 0.5))
        # var of 1 * (B_0.5 - B_0.2) is 0.3 for Brownian motion
        got = characteristic_functional(times, [1.0], 0.5)
        assert got == pytest.approx(math.exp(-0.15), rel=1e-14)

    def test_bounded_by_one(self) -> None:
        rng = np.random.default_rng(1)
        for _ in range(50):
            times = _random_times(rng, int(rng.integers(1, 4)) * 2)
            w = rng.normal(size=times.values.size - 1)
            val = characteristic_functional(times, w, float(rng.uniform(0.1, 0.9)))
            assert 0.0 < val <= 1.0

    def test_weight_length_checked(self) -> None:
        times = ConfigurationTimes((0.2, 0.5, 0.7, 1.0))
        with pytest.raises(ValueError):
            characteristic_functional(times, [1.0, 2.0], 0.5)


class TestLocalNondeterminism:
    """Increment-variance ratio against the independent-increment reference."""

    def test_exactly_one_at_half(self) -> None:
        rng = np.random.default_rng(2)
        for _ in range(200):
            times = _random_times(rng, int(rng.integers(1, 5)) * 2)
            w = rng.normal(size=times.values.size - 1)
            r = lnd_ratio(times, w, 0.5)
            assert r == 1.0, f"H=1/2 ratio must be exactly 1.0, got {r!r}"

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_positive_infimum_sample(self, h: float) -> None:
        rng = np.random.default_rng(3)
        worst = math.inf
        for _ in range(500):
            times = _random_times(rng, int(rng.integers(1, 5)) * 2)
            w = rng.normal(size=times.values.size - 1)
            worst = min(worst, lnd_ratio(times, w, h))
        print(f"  H={h}: sample infimum {worst:.5f}")
        assert worst > 0.05, f"H={h}: ratio dipped to {worst}"

    def test_degenerate_inputs(self) -> None:
        times = ConfigurationTimes((0.2, 0.5, 0.7, 1.0))
        with pytest.raises(ValueError):
            lnd_ratio(times, [0.0, 0.0, 0.0], 0.3)
        flat = ConfigurationTimes((0.2, 0.2, 0.7, 1.0))
        with pytest.raises(ValueError):
            lnd_ratio(flat, [1.0, 1.0, 1.0], 0.3)
