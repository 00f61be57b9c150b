"""Validation tests for the pathwise intersection estimators.

Tests cover:
  1. Regions: labels, validation, strict-gap clipping, exact additivity.
  2. alpha / alpha-prime against a direct O(n^2) reimplementation.
  3. Kernel-weighted variant: exact coincidence at H = 1/2, warning above 2/3.
  4. Time profiles, local-time histograms, and the local-time route.
  5. Frozen regression values and the epsilon-ladder extrapolation.
  6. Rejection of a non-finite offset y.
  7. Tile invariance of the pair engine: every output is bitwise the
     per-row loop's at any tile size, and region additivity is bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siltlab import estimators
from siltlab.estimators import (
    _FUZZ,
    _TILE_PAIRS,
    LocalTimeProfile,
    Region,
    SiltEstimate,
    alpha_eps,
    alpha_prime_eps,
    alpha_tilde_prime_eps,
    alpha_time_profile,
    alpha_via_local_time,
    default_epsilon_ladder,
    dyadic_square,
    epsilon_extrapolate,
    full_triangle,
    local_time,
    offset_triangle,
    pair_sum,
    profile_index,
    region_union,
    renormalized_alpha_prime,
)
from siltlab.fbm import FbmPath, generate_path
from siltlab.mollifier import Mollifier, f_eps, f_eps_prime


def _brute_alpha(path, y, m, kappa=0.0):
    """Direct midpoint Riemann sum over sample pairs, O(n^2)."""
    d, v = path.delta, path.values
    total = 0.0
    for i in range(path.n_steps):
        for j in range(i + 1, path.n_steps):
            if (j - i) * d > kappa + 1e-12:
                total += d * d * float(f_eps(v[j] - v[i] - y, m))
    return total


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class TestRegions:
    """Rectangle unions with a strict minimum time gap."""

    def test_labels(self) -> None:
        assert full_triangle(1.0).label == "D[1]"
        assert offset_triangle(1.0, 0.25).label == "D_kappa[0.25,1]"
        assert dyadic_square(2, 1).label == "A[1,2]"

    def test_dyadic_square_geometry(self) -> None:
        r = dyadic_square(2, 2)
        # [(2k-2)2^-j, (2k-1)2^-j] x [(2k-1)2^-j, 2k 2^-j] with j=2, k=2
        assert r.rectangles == ((0.5, 0.75, 0.75, 1.0),)
        assert r.max_time == 1.0

    @pytest.mark.parametrize("j,k", [(0, 1), (1, 0), (1, 2), (2, 3)])
    def test_dyadic_square_domain(self, j: int, k: int) -> None:
        with pytest.raises(ValueError):
            dyadic_square(j, k)

    def test_overlapping_rectangles_rejected(self) -> None:
        with pytest.raises(ValueError):
            Region(((0.0, 0.5, 0.0, 1.0), (0.4, 0.8, 0.0, 1.0)),
                   kappa=0.0, label="bad")

    def test_union_requires_matching_kappa(self) -> None:
        with pytest.raises(ValueError):
            region_union(full_triangle(1.0), offset_triangle(1.0, 0.1))

    def test_offset_triangle_domain(self) -> None:
        with pytest.raises(ValueError):
            offset_triangle(1.0, 1.0)
        with pytest.raises(ValueError):
            offset_triangle(1.0, -0.1)


# ---------------------------------------------------------------------------
# Estimators against the direct sum
# ---------------------------------------------------------------------------

class TestAgainstBruteForce:
    """Gap-streamed sums must match the O(n^2) definition."""

    def test_alpha_full_triangle(self) -> None:
        p = generate_path(0.4, 1.0, 64, 5)
        m = Mollifier(0.02)
        got = alpha_eps(p, 0.15, m).value
        want = _brute_alpha(p, 0.15, m)
        assert got == pytest.approx(want, rel=1e-13), f"{got} vs brute {want}"

    def test_alpha_offset_triangle(self) -> None:
        p = generate_path(0.4, 1.0, 64, 5)
        m = Mollifier(0.02)
        got = alpha_eps(p, 0.15, m, offset_triangle(1.0, 0.25)).value
        want = _brute_alpha(p, 0.15, m, kappa=0.25)
        assert got == pytest.approx(want, rel=1e-13)

    def test_alpha_prime_is_minus_fprime_sum(self) -> None:
        p = generate_path(0.5, 1.0, 48, 2)
        m = Mollifier(0.03)
        d, v = p.delta, p.values
        want = -sum(d * d * float(f_eps_prime(v[j] - v[i] - 0.2, m))
                    for i in range(48) for j in range(i + 1, 48))
        got = alpha_prime_eps(p, 0.2, m).value
        assert got == pytest.approx(want, rel=1e-13)

    def test_additivity_is_exact(self) -> None:
        p = generate_path(0.4, 1.0, 256, 9)
        m = Mollifier(0.02)
        a, b = dyadic_square(2, 1), dyadic_square(2, 2)
        va = alpha_eps(p, 0.1, m, a).value
        vb = alpha_eps(p, 0.1, m, b).value
        vu = alpha_eps(p, 0.1, m, region_union(a, b)).value
        assert va + vb == vu, f"additivity must be exact: {va + vb} vs {vu}"

    def test_shift_invariance(self) -> None:
        # exactly representable shift on a dyadic path: bitwise equal
        vals = np.arange(65) / 64.0
        base = FbmPath(hurst=0.5, horizon=1.0, n_steps=64, seed=0, values=vals)
        shifted = FbmPath(hurst=0.5, horizon=1.0, n_steps=64, seed=0,
                          values=vals + 7.25)
        m = Mollifier(0.05)
        assert alpha_eps(base, 0.1, m).value == alpha_eps(shifted, 0.1, m).value


# ---------------------------------------------------------------------------
# Kernel-weighted variant
# ---------------------------------------------------------------------------

class TestTildeVariant:
    """(s-r)^(2H-1) weight: trivial at H = 1/2, flagged for H >= 2/3."""

    def test_coincides_at_half_bitwise(self) -> None:
        p = generate_path(0.5, 1.0, 512, 3)
        m = Mollifier(0.01)
        a = alpha_prime_eps(p, 0.2, m).value
        b = alpha_tilde_prime_eps(p, 0.2, m).value
        assert a == b, f"H=1/2 weight is identically 1: {a} vs {b}"

    @pytest.mark.parametrize("hurst", [0.3, 0.6])
    def test_matches_weighted_brute_force(self, hurst: float) -> None:
        p = generate_path(hurst, 1.0, 64, 7)
        m = Mollifier(0.02)
        d, v = p.delta, p.values
        want = -sum(d * d * ((j - i) * d) ** (2.0 * hurst - 1.0)
                    * float(f_eps_prime(v[j] - v[i] - 0.3, m))
                    for i in range(64) for j in range(i + 1, 64))
        got = alpha_tilde_prime_eps(p, 0.3, m).value
        assert got == pytest.approx(want, rel=1e-13), f"{got} vs brute {want}"

    def test_warning_above_two_thirds(self) -> None:
        m = Mollifier(0.01)
        hot = alpha_tilde_prime_eps(generate_path(0.7, 1.0, 64, 0), 0.1, m)
        cool = alpha_tilde_prime_eps(generate_path(0.6, 1.0, 64, 0), 0.1, m)
        assert hot.warning is not None and "2/3" in hot.warning
        assert cool.warning is None

    def test_kind_strings(self) -> None:
        p = generate_path(0.5, 1.0, 32, 1)
        m = Mollifier(0.01)
        assert alpha_eps(p, 0.0, m).kind == "alpha"
        assert alpha_prime_eps(p, 0.0, m).kind == "alpha_hat_prime"
        assert alpha_tilde_prime_eps(p, 0.0, m).kind == "alpha_tilde_prime"


# ---------------------------------------------------------------------------
# Profiles and the local-time route
# ---------------------------------------------------------------------------

class TestProfiles:
    """Time profiles and occupation histograms."""

    def test_time_profile_matches_direct_evaluation(self) -> None:
        p = generate_path(0.4, 1.0, 64, 5)
        m = Mollifier(0.02)
        prof = alpha_time_profile(p, 0.15, m)
        assert prof.shape == (65,)
        assert prof[0] == 0.0
        assert prof[-1] == alpha_eps(p, 0.15, m).value
        assert np.all(np.diff(prof) >= 0.0), "alpha grows with the horizon"

    @pytest.mark.parametrize("horizon, n", [(1.0, 64), (0.7, 60)])
    def test_derivative_profile_is_bitwise_alpha_prime(self, horizon: float,
                                                      n: int) -> None:
        p = generate_path(0.4, horizon, n, 5)
        m = Mollifier(0.02)
        prof = alpha_time_profile(p, 0.15, m, derivative=True)
        assert prof.shape == (n + 1,) and prof[0] == 0.0
        for k in range(1, n + 1):
            want = alpha_prime_eps(p, 0.15, m, full_triangle(p.times[k])).value
            assert prof[k] == want, f"entry {k}: {prof[k]!r} vs {want!r}"
        assert np.array_equal(profile_index(p, p.times), np.arange(n + 1))

    def test_local_time_total_mass(self) -> None:
        p = generate_path(0.5, 1.5, 256, 4)
        lt = local_time(p)
        mass = float(np.sum(lt.values) * lt.bin_width)
        assert mass == pytest.approx(1.5, rel=1e-12), (
            f"occupation mass {mass} must equal the horizon"
        )

    def test_local_time_flat_path_needs_explicit_bins(self) -> None:
        p = FbmPath(hurst=0.5, horizon=1.0, n_steps=8, seed=0,
                    values=np.zeros(9))
        with pytest.raises(ValueError):
            local_time(p)
        lt = local_time(p, bin_width=0.1)
        assert isinstance(lt, LocalTimeProfile)

    def test_local_time_route_symmetrized(self) -> None:
        # (1/2) int L^(x+y) L^x dx equals the y-symmetrized alpha average
        p = generate_path(0.5, 1.0, 2 ** 12, 0)
        lt = local_time(p, bin_width=0.02)
        m = Mollifier(2e-4)
        y = 0.1
        route = alpha_via_local_time(lt, y)
        sym = 0.5 * (alpha_eps(p, y, m).value + alpha_eps(p, -y, m).value)
        rel = abs(route - sym) / abs(sym)
        print(f"  local-time route vs symmetrized alpha: rel {rel:.2%}")
        assert rel < 0.05, f"symmetrized identity off by {rel:.2%}"


class TestNonFiniteInput:
    """A non-finite offset is rejected before any pair is evaluated."""

    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimator",
                             [alpha_eps, alpha_prime_eps, alpha_tilde_prime_eps])
    def test_estimators(self, estimator, y: float) -> None:
        with pytest.raises(ValueError):
            estimator(generate_path(0.5, 1.0, 16, 0), y, Mollifier(0.01))

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize("y", [math.nan, math.inf])
    def test_time_profile(self, y: float, derivative: bool) -> None:
        with pytest.raises(ValueError):
            alpha_time_profile(generate_path(0.5, 1.0, 16, 0), y, Mollifier(0.01),
                               derivative=derivative)


# ---------------------------------------------------------------------------
# Frozen values and extrapolation
# ---------------------------------------------------------------------------

class TestFrozenValues:
    """Pinned regression outputs (exact reproducibility)."""

    def test_alpha_pinned(self) -> None:
        p = generate_path(0.5, 1.0, 512, 3)
        got = alpha_eps(p, 0.2, Mollifier(0.01)).value
        assert got == pytest.approx(0.41864631959169574, rel=1e-12)

    def test_ladder_and_extrapolation_pinned(self) -> None:
        p = generate_path(0.3, 1.0, 1024, 42)
        ests = [alpha_prime_eps(p, 0.5, Mollifier(e))
                for e in (0.04, 0.02, 0.01, 0.005)]
        pinned = (-0.4151319269555776, -0.45530579555066003,
                  -0.47546750230603757, -0.48584686036065705)
        for est, want in zip(ests, pinned):
            assert est.value == pytest.approx(want, rel=1e-12)
        ex = epsilon_extrapolate(ests)
        assert ex.epsilon == 0.0
        assert ex.converged is True
        assert ex.value == pytest.approx(-0.49685966279916, rel=1e-10)
        assert ex.kind == ests[0].kind and ex.seed == 42

    def test_extrapolation_validation(self) -> None:
        p = generate_path(0.3, 1.0, 128, 1)
        m1, m2, m3 = (Mollifier(e) for e in (0.04, 0.02, 0.01))
        a, b, c = (alpha_prime_eps(p, 0.5, m) for m in (m1, m2, m3))
        with pytest.raises(ValueError):
            epsilon_extrapolate([a, b])            # too short
        with pytest.raises(ValueError):
            epsilon_extrapolate([c, b, a])         # epsilon increasing
        other = alpha_prime_eps(generate_path(0.3, 1.0, 128, 2), 0.5, m3)
        with pytest.raises(ValueError):
            epsilon_extrapolate([a, b, other])     # mixed seeds

    def test_renormalized_subtracts_exactly(self) -> None:
        p = generate_path(0.55, 1.0, 128, 6)
        m = Mollifier(0.01)
        raw = alpha_prime_eps(p, 0.2, m).value
        out = renormalized_alpha_prime(p, 0.2, m, oracle_mean=-0.125)
        assert out == raw - (-0.125)

    def test_default_ladder_scales_with_horizon(self) -> None:
        base = default_epsilon_ladder(1.0, 0.4)
        scaled = default_epsilon_ladder(2.0, 0.4)
        np.testing.assert_allclose(np.array(scaled) / np.array(base),
                                   2.0 ** 0.8, rtol=1e-12)
        assert all(e > 0 for e in base)
        assert base == sorted(base, reverse=True)

    def test_estimate_record_fields(self) -> None:
        p = generate_path(0.3, 2.0, 64, 17)
        est = alpha_prime_eps(p, 0.25, Mollifier(0.02))
        assert isinstance(est, SiltEstimate)
        assert (est.hurst, est.horizon, est.n_steps, est.seed) == (0.3, 2.0, 64, 17)
        assert (est.y, est.epsilon, est.region_id) == (0.25, 0.02, "D[2]")
        assert est.converged is None


# ---------------------------------------------------------------------------
# Tile invariance
# ---------------------------------------------------------------------------

TILE_SIZES = (1, 7, _TILE_PAIRS, 1 << 30)


def _reference_row_sums(path, region, func, weight=None):
    """The per-row loop: one kernel call and one np.sum per row."""
    delta, n, v = path.delta, path.n_steps, path.values
    g_min = max(1, math.floor(region.kappa / delta + _FUZZ) + 1)
    out = []
    for rect in region.rectangles:
        idx = np.ceil(np.asarray(rect) / delta - _FUZZ).astype(np.intp)
        i0, i1, j0, j1 = np.clip(idx, 0, n + 1).tolist()
        rows = np.zeros(max(0, j1 - j0))
        for j in range(j0, j1):
            hi = min(i1, j - g_min + 1)
            if hi <= i0:
                continue
            terms = func(v[j] - v[i0:hi])
            if weight is not None:
                terms = terms * weight[j - hi : j - i0][::-1]
            rows[j - j0] = np.sum(terms)
        out.append(rows)
    return out


def _reference_pair_sum(path, region, func, weight=None):
    total = 0.0
    for rows in _reference_row_sums(path, region, func, weight):
        if rows.size:
            total += path.delta * path.delta * float(np.cumsum(rows)[-1])
    return total


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _at_tile_sizes(compute):
    """compute() once per tile size, in the order of TILE_SIZES."""
    results = []
    for tile in TILE_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "_TILE_PAIRS", tile)
            results.append(compute())
    return results


_REGIONS = {
    "triangle": lambda: full_triangle(1.0),
    "offset": lambda: offset_triangle(0.9, 0.13),
    "square": lambda: dyadic_square(3, 2),
    "union": lambda: region_union(dyadic_square(2, 1), dyadic_square(2, 2),
                                  dyadic_square(3, 1)),
    # rows with s below the r-range have empty prefixes
    "empty_rows": lambda: Region(((0.5, 0.75, 0.25, 1.0),), kappa=0.05),
}

_paths = st.builds(generate_path, st.floats(0.2, 0.8), st.just(1.0),
                   st.integers(2, 160), st.integers(0, 2 ** 16))
_mollifiers = st.sampled_from((1e-4, 0.01, 0.2)).map(Mollifier)
_offsets = st.floats(-0.5, 0.5)


class TestTileInvariance:
    """The row-tiled engine gives the per-row loop's bits at any tile size."""

    @settings(max_examples=40, deadline=None)
    @given(path=_paths, m=_mollifiers, y=_offsets,
           region=st.sampled_from(sorted(_REGIONS)),
           derivative=st.booleans())
    def test_pair_sum(self, path, m, y, region, derivative) -> None:
        region = _REGIONS[region]()
        func = estimators._kernel(y, m, derivative)
        want = _reference_pair_sum(path, region, func)
        for got in _at_tile_sizes(lambda: pair_sum(path, region, func)):
            assert _bits(got) == _bits(want)

    @settings(max_examples=25, deadline=None)
    @given(path=_paths, m=_mollifiers, y=_offsets)
    def test_weighted_tilde_estimator(self, path, m, y) -> None:
        gaps = path.delta * np.arange(1, path.n_steps + 1)
        weight = gaps ** (2.0 * path.hurst - 1.0)
        want = _reference_pair_sum(path, full_triangle(1.0),
                                   estimators._kernel(y, m, True), weight)
        for got in _at_tile_sizes(lambda: alpha_tilde_prime_eps(path, y, m).value):
            assert _bits(got) == _bits(want)

    @settings(max_examples=25, deadline=None)
    @given(path=_paths, m=_mollifiers, y=_offsets, derivative=st.booleans())
    def test_time_profiles(self, path, m, y, derivative) -> None:
        (rows,) = _reference_row_sums(path, full_triangle(1.0),
                                      estimators._kernel(y, m, derivative))
        want = np.concatenate(([0.0], path.delta * path.delta * np.cumsum(rows)))
        for got in _at_tile_sizes(
                lambda: alpha_time_profile(path, y, m, derivative=derivative)):
            assert np.array_equal(_bits(got), _bits(want))

    @settings(max_examples=25, deadline=None)
    @given(path=_paths, m=_mollifiers, y=_offsets, level=st.integers(1, 4),
           data=st.data())
    def test_region_additivity_is_bitwise(self, path, m, y, level, data) -> None:
        ks = data.draw(st.lists(st.integers(1, 2 ** (level - 1)), min_size=1,
                                unique=True))
        parts = [dyadic_square(level, k) for k in ks]
        union = region_union(*parts)
        for est in (alpha_eps, alpha_prime_eps):
            for whole, pieces in _at_tile_sizes(lambda: (
                    est(path, y, m, union).value,
                    [est(path, y, m, r).value for r in parts])):
                assert _bits(whole) == _bits(sum(pieces))

