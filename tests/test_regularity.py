"""Validation tests for the occupation identities and Holder machinery.

Tests cover:
  1. Test functions: constructors, derivative identities, validation.
  2. Occupation identities for alpha and its derivative, including the
     exact total-mass pin for g = 1 and the naive-quadrature cross-check.
     The uniform-grid table lookup is checked against np.interp.
  3. Central-difference consistency of the derivative estimator.
  4. Structure-function regression on fields of known regularity, and the
     Holder-order threshold table.
  5. The ensemble probe across y = 0.
  6. Batched y-grids: the probe rows and the central-difference check
     equal per-y loops over the scalar estimators bit for bit.
"""

import math

import numpy as np
import pytest

from siltlab.estimators import (
    alpha_eps,
    alpha_prime_eps,
    dyadic_square,
    full_triangle,
    pair_sum,
)
from siltlab.fbm import FbmPath, generate_path
from siltlab.mollifier import Mollifier
from siltlab.regularity import (
    HolderReport,
    TestFunction,
    _convolution_table,
    _trapezoid_weights,
    _uniform_lookup,
    continuity_probe_at_zero,
    derivative_consistency,
    holder_bound,
    holder_exponent_estimate,
    occupation_check_alpha,
    occupation_check_derivative,
)


def _grid_for(path, eps):
    span = float(path.values.max() - path.values.min())
    pad = 6.0 * math.sqrt(eps) + 0.1 * (span + 1.0)
    return np.linspace(-span - pad, span + pad, 401)


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

class TestTestFunctions:
    """Smooth integrands with verified derivatives."""

    @pytest.mark.parametrize("g", [
        TestFunction.gaussian(0.3, 0.8, 2.0),
        TestFunction.polynomial_cutoff(1.5, 0.7),
        TestFunction.cosine(2.0),
        TestFunction.linear(),
    ])
    def test_derivative_identity(self, g: TestFunction) -> None:
        xs = np.linspace(-1.2, 1.2, 25)
        h = 1e-6
        fd = (g.value(xs + h) - g.value(xs - h)) / (2 * h)
        np.testing.assert_allclose(g.derivative(xs), fd, atol=1e-5)

    def test_constant_case(self) -> None:
        g = TestFunction.cosine(0.0)
        xs = np.linspace(-3, 3, 11)
        assert np.array_equal(g.value(xs), np.ones_like(xs))
        assert np.array_equal(g.derivative(xs), np.zeros_like(xs))

    def test_cutoff_vanishes_outside(self) -> None:
        g = TestFunction.polynomial_cutoff(0.5)
        assert g.value(0.6) == 0.0 and g.derivative(0.6) == 0.0
        assert g.value(0.0) == 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_width_validation(self, bad: float) -> None:
        with pytest.raises(ValueError):
            TestFunction.gaussian(0.0, bad)
        with pytest.raises(ValueError):
            TestFunction.polynomial_cutoff(bad)


# ---------------------------------------------------------------------------
# Occupation identities
# ---------------------------------------------------------------------------

class TestOccupationAlpha:
    """Riemann sum of g(B_s - B_r) vs quadrature against the alpha profile."""

    @pytest.mark.parametrize("h", [0.4, 0.5])
    def test_gaussian_g(self, h: float) -> None:
        path = generate_path(h, 1.0, 1024, 0)
        m = Mollifier(0.02)
        lhs, rhs = occupation_check_alpha(path, TestFunction.gaussian(0.0, 1.0),
                                          _grid_for(path, 0.02), m)
        rel = abs(lhs - rhs) / abs(lhs)
        print(f"  H={h}: lhs {lhs:.6f} rhs {rhs:.6f} rel {rel:.2e}")
        assert rel < 2e-2, f"H={h}: occupation residual {rel:.2e}"

    def test_constant_g_pins_total_mass(self) -> None:
        n = 1024
        path = generate_path(0.45, 1.0, n, 3)
        m = Mollifier(0.02)
        lhs, rhs = occupation_check_alpha(path, TestFunction.cosine(0.0),
                                          _grid_for(path, 0.02), m)
        exact = 0.5 * (1.0 - 1.0 / n)
        assert lhs == pytest.approx(exact, rel=1e-12), (
            f"g=1 left side must be the pair count mass {exact}"
        )
        assert rhs == pytest.approx(lhs, rel=1e-2)

    def test_rhs_matches_naive_quadrature(self) -> None:
        # the tabulated pair-first reordering vs literal sum_k w_k g_k alpha(y_k)
        path = generate_path(0.5, 1.0, 256, 1)
        eps = 0.03
        m = Mollifier(eps)
        g = TestFunction.gaussian(0.0, 1.0)
        grid = _grid_for(path, eps)
        _, rhs = occupation_check_alpha(path, g, grid, m)
        alphas = np.array([alpha_eps(path, float(v), m).value for v in grid])
        naive = float(np.trapezoid(g.value(grid) * alphas, grid))
        assert rhs == pytest.approx(naive, rel=1e-8), (
            f"reordered rhs {rhs} vs naive {naive}"
        )

    def test_narrow_grid_rejected(self) -> None:
        path = generate_path(0.5, 1.0, 256, 0)
        with pytest.raises(ValueError):
            occupation_check_alpha(path, TestFunction.gaussian(0.0, 1.0),
                                   np.linspace(-0.05, 0.05, 11), Mollifier(0.01))


class TestUniformLookup:
    """Index arithmetic on the uniform table agrees with np.interp."""

    EPS = 0.01

    def _table(self, derivative: bool):
        path = generate_path(0.5, 1.0, 256, 1)
        grid = _grid_for(path, self.EPS)
        g = TestFunction.gaussian(0.0, 1.0)
        gw = g.value(grid) * _trapezoid_weights(grid)
        return path, g, grid, _convolution_table(path, grid, Mollifier(self.EPS),
                                                 gw, derivative)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_matches_interp(self, derivative: bool) -> None:
        _, _, _, (xs, table) = self._table(derivative)
        rng = np.random.default_rng(11)
        d = np.concatenate([rng.uniform(xs[0], xs[-1], 100_000), xs[::97],
                            xs[[0, 1, -2, -1]]])
        got = _uniform_lookup(xs, table)(d)
        want = np.interp(d, xs, table)
        # the fractional index carries O(ulp(u)) error, times a table step that
        # is small against max|table| once the nodes resolve the kernel
        bound = 16.0 * np.spacing(np.max(np.abs(table)))
        assert np.max(np.abs(got - want)) <= bound
        assert got[-4] == table[0] and got[-1] == table[-1]

    def test_constant_extension_and_nan(self) -> None:
        _, _, _, (xs, table) = self._table(False)
        step = xs[1] - xs[0]
        d = np.array([xs[0] - 10.0 * step, xs[-1], xs[-1] + 10.0 * step,
                      -np.inf, np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            got = _uniform_lookup(xs, table)(d)
        assert got[0] == got[3] == table[0]
        assert got[1] == got[2] == got[4] == table[-1]
        assert np.isnan(got[5])

    @pytest.mark.parametrize("derivative", [False, True])
    def test_rhs_matches_interp_route(self, derivative: bool) -> None:
        path, g, grid, (xs, table) = self._table(derivative)
        check = occupation_check_derivative if derivative else occupation_check_alpha
        _, rhs = check(path, g, grid, Mollifier(self.EPS))
        region = full_triangle(path.horizon)
        ref = pair_sum(path, region, lambda d: np.interp(d, xs, table))
        assert abs(rhs - ref) <= 1e-12 * abs(ref), f"rhs {rhs!r} vs interp {ref!r}"


class TestOccupationDerivative:
    """Riemann sum of g'(B_s - B_r) vs quadrature against the derivative."""

    def test_full_triangle(self) -> None:
        path = generate_path(0.4, 1.0, 1024, 0)
        eps = 0.01
        lhs, rhs = occupation_check_derivative(
            path, TestFunction.gaussian(0.0, 1.0), _grid_for(path, eps),
            Mollifier(eps))
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        print(f"  derivative identity rel {rel:.2e}")
        assert rel < 5e-2

    def test_dyadic_square_region(self) -> None:
        path = generate_path(0.5, 1.0, 1024, 2)
        eps = 0.01
        lhs, rhs = occupation_check_derivative(
            path, TestFunction.gaussian(0.0, 1.0), _grid_for(path, eps),
            Mollifier(eps), dyadic_square(1, 1))
        rel = abs(lhs - rhs) / max(abs(lhs), 1e-12)
        print(f"  A[1,1] derivative identity rel {rel:.2e}")
        assert rel < 5e-2


class TestDerivativeConsistency:
    """alpha-prime equals d/dy alpha to O(h^2)."""

    def test_matches_central_difference(self) -> None:
        path = generate_path(0.45, 1.0, 512, 4)
        m = Mollifier(0.02)
        grid = 0.1 + 1e-3 * np.arange(-3, 4)
        worst = derivative_consistency(path, grid, m)
        scale = abs(max(alpha_eps(path, 0.1, m).value, 1.0))
        print(f"  central-difference worst discrepancy {worst:.2e}")
        assert worst < 1e-3 * scale

    def test_second_order(self) -> None:
        path = generate_path(0.45, 1.0, 512, 4)
        m = Mollifier(0.02)
        coarse = derivative_consistency(path, 0.1 + 4e-3 * np.arange(-3, 4), m)
        fine = derivative_consistency(path, 0.1 + 2e-3 * np.arange(-3, 4), m)
        order = math.log2(coarse / fine)
        print(f"  observed order {order:.2f}")
        assert 1.8 <= order <= 2.2, f"expected O(h^2), observed order {order:.2f}"

    @pytest.mark.parametrize("region", [None, dyadic_square(2, 2)])
    def test_equals_per_y_loop(self, region) -> None:
        path = generate_path(0.45, 1.0, 256, 4)
        m = Mollifier(0.02)
        grid = np.linspace(-0.6, 0.6, 13)
        a = [alpha_eps(path, y, m, region).value for y in grid]
        worst = 0.0
        for i in range(1, grid.size - 1):
            fd = (a[i + 1] - a[i - 1]) / (2.0 * (grid[1] - grid[0]))
            ap = alpha_prime_eps(path, float(grid[i]), m, region).value
            worst = max(worst, abs(fd - ap))
        assert derivative_consistency(path, grid, m, region) == worst

    def test_grid_validation(self) -> None:
        path = generate_path(0.5, 1.0, 64, 0)
        m = Mollifier(0.02)
        with pytest.raises(ValueError):
            derivative_consistency(path, np.array([0.0, 0.1]), m)
        with pytest.raises(ValueError):
            derivative_consistency(path, np.array([0.0, 0.1, 0.15]), m)


# ---------------------------------------------------------------------------
# Holder machinery
# ---------------------------------------------------------------------------

class TestHolderBound:
    """Threshold table for (estimator kind, axis)."""

    @pytest.mark.parametrize("kind,axis,h,want", [
        ("alpha", "time", 0.3, 0.7),
        ("alpha", "joint", 0.5, 0.5),
        ("alpha", "space", 0.6, 1.0 / 0.6 - 1.0),
        ("alpha", "space", 0.4, 1.0),
        ("alpha_hat_prime", "time", 0.3, 0.4),
        ("alpha_hat_prime", "space", 0.4, 0.5),
        ("alpha_hat_prime", "joint", 0.25, 0.5),
    ])
    def test_table(self, kind, axis, h, want) -> None:
        assert holder_bound(kind, axis, h) == pytest.approx(want, rel=1e-12)

    def test_restricted_region_orders(self) -> None:
        assert holder_bound("alpha_hat_prime", "space", 0.5,
                            region_restricted=True) == pytest.approx(0.5)
        assert holder_bound("alpha_hat_prime", "time", 0.4,
                            region_restricted=True) == pytest.approx(0.4)

    def test_unknown_kind_axis(self) -> None:
        with pytest.raises(ValueError):
            holder_bound("alpha", "diagonal", 0.5)
        with pytest.raises(ValueError):
            holder_bound("beta", "time", 0.5)


class TestHolderEstimate:
    """Structure-function regression on fields of known smoothness."""

    def test_recovers_fbm_exponent(self) -> None:
        samples = np.stack([generate_path(0.3, 1.0, 1024, s).values
                            for s in range(16)])
        report = holder_exponent_estimate(samples, "time", 0.3)
        print(f"  fBm H=0.3 estimated {report.estimated_exponent:.3f} "
              f"(r2 {report.r_squared:.4f})")
        assert isinstance(report, HolderReport)
        assert report.reliable
        assert abs(report.estimated_exponent - 0.3) < 0.08

    def test_lipschitz_field_saturates(self) -> None:
        t = np.linspace(0.0, 1.0, 513)
        rng = np.random.default_rng(0)
        samples = np.stack([t + 1e-9 * rng.normal(size=t.size) for _ in range(4)])
        report = holder_exponent_estimate(samples, "time", 0.5)
        assert report.estimated_exponent == pytest.approx(1.0, abs=1e-3)

    def test_joint_needs_three_axes(self) -> None:
        with pytest.raises(ValueError):
            holder_exponent_estimate(np.zeros((4, 32)), "joint", 0.5)
        with pytest.raises(ValueError):
            holder_exponent_estimate(np.zeros((1, 64)), "time", 0.5)

    def test_lag_validation(self) -> None:
        with pytest.raises(ValueError):
            holder_exponent_estimate(np.zeros((4, 64)), "time", 0.5,
                                     lags=[2, 4])

    def test_memory_layout_does_not_move_a_bit(self) -> None:
        rng = np.random.default_rng(3)
        field = np.cumsum(rng.normal(size=(5, 257)), axis=1)
        fortran = np.asfortranarray(field)
        c, f = (holder_exponent_estimate(x, "time", 0.5) for x in (field, fortran))
        assert c.mean_square_increments == f.mean_square_increments
        assert c.estimated_exponent == f.estimated_exponent

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_degenerate_increments_raise(self, bad: float) -> None:
        field = np.full((3, 65), bad)
        with pytest.raises(FloatingPointError):
            holder_exponent_estimate(field, "time", 0.5)


class TestProbeZero:
    """Ensemble statistics of the derivative estimator around the origin."""

    def test_shapes_and_recentering(self) -> None:
        y = np.linspace(-0.4, 0.4, 5)
        res = continuity_probe_at_zero(range(4), 0.55, y, Mollifier(0.02),
                                       n_steps=128)
        assert res["n_seeds"] == 4 and res["epsilon"] == 0.02
        np.testing.assert_allclose(res["renormalized_mean"],
                                   res["mean"] - res["oracle_mean"], rtol=1e-13)
        np.testing.assert_array_equal(res["renormalized_variance"],
                                      res["variance"])
        assert res["oracle_mean"][2] == 0.0  # y = 0 center

    def test_rows_equal_per_y_loop(self) -> None:
        y = np.linspace(-0.4, 0.4, 7)
        m = Mollifier(0.02)
        res = continuity_probe_at_zero(range(3), 0.55, y, m, n_steps=128)
        paths = [generate_path(0.55, 1.0, 128, s) for s in range(3)]
        rows = np.array([[alpha_prime_eps(p, v, m).value for v in y] for p in paths])
        assert np.array_equal(res["mean"], rows.mean(axis=0))
        assert np.array_equal(res["variance"], rows.var(axis=0, ddof=1))

    def test_domain_validation(self) -> None:
        m = Mollifier(0.02)
        sym = np.linspace(-0.4, 0.4, 5)
        with pytest.raises(ValueError):
            continuity_probe_at_zero(range(3), 0.4, sym, m)  # H out of window
        with pytest.raises(ValueError):
            continuity_probe_at_zero(range(3), 0.55,
                                     np.array([-0.4, 0.0, 0.5]), m)
