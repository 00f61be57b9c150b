"""Occupation-formula checks, Holder-exponent regression, continuity probes.

The occupation identities exchange a double time integral of g(B_s - B_r)
over a region for a spatial integral of g against the (derivative)
intersection local time.  Both sides are finite sums here, and the right
side is reordered pair-first: the y-quadrature of g against the mollifier
is tabulated once as G = quadrature(g f_eps(x - .)) and looked up per pair
difference, which is exact up to interpolation on a 2^16-point table.

The table is built in 256-row tiles, so each tile's kernel block stays
cache-sized instead of costing megabytes of temporaries.  Its nodes are a
uniform linspace, so a lookup is index arithmetic: u = (d - x_0) / step,
i = int(u), then linear interpolation between nodes i and i + 1.  This
agrees with np.interp to within rounding of u and avoids its per-pair
binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .estimators import Region, _kernel, alpha_time_profile, full_triangle, pair_sum
from .expectation import mean_alpha_prime_eps
from .fbm import FbmPath, check_hurst, generate_path
from .mollifier import Mollifier, f_eps, f_eps_prime

__all__ = [
    "TestFunction",
    "occupation_check_alpha",
    "occupation_check_derivative",
    "derivative_consistency",
    "HolderReport",
    "holder_bound",
    "holder_exponent_estimate",
    "continuity_probe_at_zero",
]

_LEAK_LIMIT = 1e-6
_TABLE_SIZE = 1 << 16
_TILE_ROWS = 256


@dataclass(frozen=True)
class TestFunction:
    """Closed-form test function g with its derivative, dispatched by tag.

    Construct through gaussian(), polynomial_cutoff(), cosine(), or
    linear(); the constructor cross-checks the derivative against central
    differences so a bad closed form never reaches a test.
    """

    tag: str
    params: tuple

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.tag == "gaussian":
            c, w, a = self.params
            return a * np.exp(-0.5 * ((x - c) / w) ** 2)
        if self.tag == "polynomial_cutoff":
            hw, a = self.params
            u = x / hw
            inside = np.abs(u) < 1.0
            return np.where(inside, a * (1.0 - u * u) ** 2, 0.0)
        if self.tag == "cosine":
            (k,) = self.params
            return np.cos(k * x) if k != 0.0 else np.ones_like(x)
        if self.tag == "linear":
            return x
        raise ValueError(f"unknown tag {self.tag!r}")

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.tag == "gaussian":
            c, w, a = self.params
            return -a * (x - c) / w**2 * np.exp(-0.5 * ((x - c) / w) ** 2)
        if self.tag == "polynomial_cutoff":
            hw, a = self.params
            u = x / hw
            inside = np.abs(u) < 1.0
            return np.where(inside, -4.0 * a * u * (1.0 - u * u) / hw, 0.0)
        if self.tag == "cosine":
            (k,) = self.params
            return -k * np.sin(k * x) if k != 0.0 else np.zeros_like(x)
        if self.tag == "linear":
            return np.ones_like(x)
        raise ValueError(f"unknown tag {self.tag!r}")

    def _validate(self, scale: float):
        probes = scale * np.array([-1.3, -0.41, 0.17, 0.79, 1.21])
        h = 1e-6 * max(scale, 1.0)
        fd = (self.value(probes + h) - self.value(probes - h)) / (2.0 * h)
        exact = self.derivative(probes)
        tol = 1e-6 * max(float(np.max(np.abs(exact))), 1e-6)
        if np.max(np.abs(fd - exact)) > tol:
            raise ValueError(f"closed-form derivative of {self.tag} fails the "
                             "finite-difference check")

    @staticmethod
    def gaussian(center: float = 0.0, width: float = 1.0,
                 amplitude: float = 1.0) -> "TestFunction":
        if not width > 0.0:
            raise ValueError("width must be positive")
        g = TestFunction("gaussian", (float(center), float(width), float(amplitude)))
        g._validate(width)
        return g

    @staticmethod
    def polynomial_cutoff(half_width: float = 1.0,
                          amplitude: float = 1.0) -> "TestFunction":
        if not half_width > 0.0:
            raise ValueError("half_width must be positive")
        g = TestFunction("polynomial_cutoff", (float(half_width), float(amplitude)))
        g._validate(half_width * 0.7)
        return g

    @staticmethod
    def cosine(frequency: float = 0.0) -> "TestFunction":
        g = TestFunction("cosine", (float(frequency),))
        g._validate(1.0 / max(abs(frequency), 1.0))
        return g

    @staticmethod
    def linear() -> "TestFunction":
        g = TestFunction("linear", ())
        g._validate(1.0)
        return g


def _pair_diff_range(path: FbmPath):
    """Extremes of B_j - B_i over i < j, one O(n) running-minimum pass."""
    v = path.values
    run_min = np.minimum.accumulate(v[:-1])
    run_max = np.maximum.accumulate(v[:-1])
    return float(np.min(v[1:] - run_max)), float(np.max(v[1:] - run_min))


def _check_leakage(path: FbmPath, y_grid: np.ndarray, m: Mollifier):
    d_lo, d_hi = _pair_diff_range(path)
    sig = math.sqrt(m.epsilon)
    leak = float(ndtr((y_grid[0] - d_lo) / sig) + ndtr((d_hi - y_grid[-1]) / sig))
    if leak > _LEAK_LIMIT:
        raise ValueError(
            f"y_grid [{y_grid[0]:g}, {y_grid[-1]:g}] too narrow for increments in "
            f"[{d_lo:g}, {d_hi:g}]: estimated mass leakage {leak:.2e} > {_LEAK_LIMIT:g}"
        )


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    return w


def _convolution_table(path, y_grid, m, g_weighted, derivative):
    """Tabulate x -> sum_k w_k g(y_k) f_eps(x - y_k) over the pair-diff range."""
    d_lo, d_hi = _pair_diff_range(path)
    pad = 1e-3 * (d_hi - d_lo + 1.0)
    xs = np.linspace(d_lo - pad, d_hi + pad, _TABLE_SIZE + 1)
    kernel = f_eps_prime if derivative else f_eps
    table = np.empty_like(xs)
    for a in range(0, xs.size, _TILE_ROWS):
        b = min(a + _TILE_ROWS, xs.size)
        table[a:b] = kernel(xs[a:b, None] - y_grid[None, :], m) @ g_weighted
    return xs, table


def _uniform_lookup(xs, table):
    """Piecewise-linear interpolant of table on the uniform grid xs.

    Same values as np.interp(d, xs, table) up to rounding of the fractional
    index, including the constant extension past either end and nan for nan.
    """
    x0 = float(xs[0])
    last = xs.size - 1
    step = (float(xs[-1]) - x0) / last
    slope = np.diff(table)

    def lookup(d):
        u = np.clip((d - x0) / step, 0.0, last)
        i = u.astype(np.intp)
        # mode="clip" maps i = last onto the final slope (times u - i = 0)
        # and keeps the arbitrary integer a nan u casts to in bounds
        return table.take(i, mode="clip") + (u - i) * slope.take(i, mode="clip")

    return lookup


def _occupation_check(path, g, y_grid, m, region, derivative):
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.ndim != 1 or y_grid.size < 2 or np.any(np.diff(y_grid) <= 0.0):
        raise ValueError("y_grid must be a strictly increasing 1-D grid")
    if region is None:
        region = full_triangle(path.horizon)
    _check_leakage(path, y_grid, m)
    lhs = pair_sum(path, region, g.derivative if derivative else g.value)
    gw = g.value(y_grid) * _trapezoid_weights(y_grid)
    xs, table = _convolution_table(path, y_grid, m, gw, derivative)
    # For the derivative, rhs = -sum_k w_k g_k alpha'(y_k); alpha' carries
    # its own minus sign, so the pair-first reordering leaves a plus here.
    rhs = pair_sum(path, region, _uniform_lookup(xs, table))
    return lhs, rhs


def occupation_check_alpha(path: FbmPath, g: TestFunction, y_grid, m: Mollifier,
                           region: Region | None = None):
    """Both sides of the occupation identity for alpha over the region.

    lhs: Riemann sum of g(B_s - B_r).  rhs: quadrature of g(y) against the
    mollified alpha profile on y_grid.  Returns (lhs, rhs).
    """
    return _occupation_check(path, g, y_grid, m, region, derivative=False)


def occupation_check_derivative(path: FbmPath, g: TestFunction, y_grid,
                                m: Mollifier, region: Region | None = None):
    """Both sides of the derivative occupation identity over the region.

    lhs: Riemann sum of g'(B_s - B_r).  rhs: minus the quadrature of g(y)
    against the mollified derivative profile.  Returns (lhs, rhs).
    """
    return _occupation_check(path, g, y_grid, m, region, derivative=True)


def derivative_consistency(path: FbmPath, y_grid, m: Mollifier,
                           region: Region | None = None) -> float:
    """Max discrepancy between d/dy of alpha (central differences) and the
    derivative estimator on the interior of a uniform y_grid."""
    y_grid = np.asarray(y_grid, dtype=float)
    steps = np.diff(y_grid)
    if y_grid.size < 3 or np.any(steps <= 0.0):
        raise ValueError("y_grid must be increasing with at least 3 points")
    if not np.allclose(steps, steps[0], rtol=1e-9):
        raise ValueError("y_grid must be uniform")
    h = float(steps[0])
    if region is None:
        region = full_triangle(path.horizon)
    a = pair_sum(path, region, _kernel(y_grid, m, False))
    ap = pair_sum(path, region, _kernel(y_grid[1:-1], m, True))
    return float(np.max(np.abs((a[2:] - a[:-2]) / (2.0 * h) - ap)))


@dataclass(frozen=True)
class HolderReport:
    """Structure-function regression summary for one axis of a field."""

    axis: str
    estimated_exponent: float
    regression_lags: tuple
    r_squared: float
    theoretical_bound: float
    raw_slope: float
    reliable: bool
    mean_square_increments: tuple


def holder_bound(kind: str, axis: str, hurst: float,
                 region_restricted: bool = False) -> float:
    """Holder order threshold for (estimator kind, axis, H).

    kind "alpha": time and joint 1 - H, space min(1/H - 1, 1).
    kind "alpha_hat_prime": time and joint 1 - 2H, space min(1/H - 2, 1);
    with region_restricted (subsets of D_kappa or A_1^1): space 1/H - 3/2,
    time 1 - 3H/2.
    """
    h = check_hurst(hurst)
    if axis not in ("space", "time", "joint"):
        raise ValueError(f"unknown axis {axis!r}")
    if kind == "alpha":
        if region_restricted:
            raise ValueError("restricted-region bounds apply to the derivative kind")
        return min(1.0 / h - 1.0, 1.0) if axis == "space" else 1.0 - h
    if kind == "alpha_hat_prime":
        if region_restricted:
            if axis == "space":
                return 1.0 / h - 1.5
            if axis == "time":
                return 1.0 - 1.5 * h
            raise ValueError("restricted-region bounds are per-axis")
        return min(1.0 / h - 2.0, 1.0) if axis == "space" else 1.0 - 2.0 * h
    raise ValueError(f"unknown kind {kind!r}")


def _dyadic_lags(n_points: int):
    lags = [lag for lag in (2 << k for k in range(30)) if lag <= n_points // 8]
    if len(lags) < 4:
        lags = [lag for lag in (2 << k for k in range(30)) if lag <= n_points // 4]
    return lags


def holder_exponent_estimate(samples, axis: str, hurst: float,
                             kind: str = "alpha",
                             region_restricted: bool = False,
                             lags=None) -> HolderReport:
    """Estimate a Holder exponent by structure-function regression.

    samples: replicate-major field array, (replicates, n) for a single
    axis or (replicates, n_y, n_t) for axis "joint" (diagonal lags).  Fits
    log E|increment|^2 against log lag over dyadic lags from 2 to n/8 and
    reports slope/2 clipped to [0, 1].  The theoretical bound is the
    strict admissible-order threshold from holder_bound; it is an
    upper-regularity statement, so a smoother field can legitimately
    exceed it.  r^2 < 0.9 flags the report unreliable.
    """
    f = np.ascontiguousarray(samples, dtype=float)  # C order fixes the sum order
    if axis == "joint":
        if f.ndim != 3:
            raise ValueError("joint axis needs a (replicates, n_y, n_t) field")
        n = min(f.shape[1], f.shape[2])
    else:
        if f.ndim != 2:
            raise ValueError("need a (replicates, n_points) field")
        n = f.shape[1]
    if f.shape[0] < 2:
        raise ValueError("need at least 2 replicates")
    if lags is None:
        lags = _dyadic_lags(n)
    lags = sorted(int(L) for L in lags)
    if len(lags) < 4 or lags[0] < 1 or lags[-1] >= n:
        raise ValueError(f"need >= 4 lags inside the grid, got {lags}")

    second = []
    for L in lags:
        if axis == "joint":
            inc = f[:, L:, L:] - f[:, :-L, :-L]
        else:
            inc = f[:, L:] - f[:, :-L]
        second.append(float(np.mean(inc * inc)))
        if not 0.0 < second[-1] < math.inf:
            raise FloatingPointError(f"mean-square increment {second[-1]!r} at lag {L}")
    x = np.log(np.asarray(lags, dtype=float))
    yv = np.log(np.asarray(second))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, residual, *_ = np.linalg.lstsq(design, yv, rcond=None)
    slope = float(coef[0])
    ss_tot = float(np.sum((yv - yv.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        ss_res = float(residual[0]) if residual.size else 0.0
        r2 = 1.0 - ss_res / ss_tot
    exponent = min(max(slope / 2.0, 0.0), 1.0)
    bound = holder_bound(kind, axis, hurst, region_restricted)
    return HolderReport(axis=axis, estimated_exponent=exponent,
                        regression_lags=tuple(lags), r_squared=r2,
                        theoretical_bound=bound, raw_slope=slope,
                        reliable=r2 >= 0.9,
                        mean_square_increments=tuple(second))


def continuity_probe_at_zero(seeds, hurst: float, y_grid, m: Mollifier,
                             t: float = 1.0, n_steps: int = 1024) -> dict:
    """Ensemble statistics of the derivative estimator across y = 0.

    Exploratory only (no pass/fail): for 1/2 < H < 2/3 the mean column
    reproduces the expectation jump at 0 while the renormalized column is
    centered by construction.  y_grid must be symmetric about 0.
    """
    h = check_hurst(hurst)
    if not 0.5 < h < 2.0 / 3.0:
        raise ValueError("the probe targets 1/2 < H < 2/3")
    y_grid = np.asarray(y_grid, dtype=float)
    if y_grid.size < 3 or np.any(np.diff(y_grid) <= 0.0):
        raise ValueError("y_grid must be strictly increasing")
    if np.max(np.abs(y_grid + y_grid[::-1])) > 1e-12 * max(1.0, float(np.max(np.abs(y_grid)))):
        raise ValueError("y_grid must be symmetric about 0")

    # the last profile column is the estimate over the whole triangle
    rows = np.stack([alpha_time_profile(generate_path(h, t, n_steps, int(s)), y_grid, m,
                                        derivative=True)[:, -1] for s in seeds])
    oracle = np.array([mean_alpha_prime_eps(t, float(y), m.epsilon, h).value
                       for y in y_grid])
    mean = rows.mean(axis=0)
    var = rows.var(axis=0, ddof=1)
    return {
        "y": y_grid,
        "mean": mean,
        "variance": var,
        "oracle_mean": oracle,
        "renormalized_mean": mean - oracle,
        # recentering by a deterministic curve leaves the spread unchanged;
        # emitted separately so the table stands alone
        "renormalized_variance": var.copy(),
        "n_seeds": rows.shape[0],
        "epsilon": m.epsilon,
    }
