"""Riemann-sum estimators for self-intersection local times.

All estimators integrate a mollified kernel of the increment B_s - B_r over
a region inside the triangle {0 < r < s < t}, discretized by the midpoint
rule on the path's uniform grid: each sample time owns the cell centered on
it, so cell centers never sit on the diagonal and region membership is a
half-open test on the centers.  A histogram local-time route and an
epsilon-extrapolation utility complete the set.

One pair engine evaluates every kernel on pair differences in a defined
order: rectangle by rectangle, rows in increasing j, i increasing within a
row (np.sum), rows summed sequentially (np.cumsum).  A time profile is the
scaled cumulative row sum, so its entries equal the estimates over growing
triangles bit for bit.  The kernel runs on cache-sized tiles of rows and
each row is summed over exactly its own prefix, so the tile size cannot
change a bit.  The offset y may be a 1-D grid: it becomes a leading axis
of every tile, and each y's row sums, region sums and profile equal the
scalar call at that y bit for bit.  The engine skips only terms that the
exp clamp makes exactly 0.0, and each row still sums its whole prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fbm import FbmPath, check_hurst
from .mollifier import _EXP_FLOOR, Mollifier, f_eps, f_eps_prime

__all__ = [
    "Region",
    "full_triangle",
    "offset_triangle",
    "dyadic_square",
    "region_union",
    "SiltEstimate",
    "alpha_eps",
    "alpha_prime_eps",
    "alpha_tilde_prime_eps",
    "alpha_time_profile",
    "profile_index",
    "pair_sum",
    "LocalTimeProfile",
    "local_time",
    "alpha_via_local_time",
    "epsilon_extrapolate",
    "renormalized_alpha_prime",
    "default_epsilon_ladder",
]

# Index fuzz, in units of the grid step: grid points this close to a region
# boundary are treated as on it, keeping half-open membership consistent
# across touching rectangles when the boundary is not exactly representable.
_FUZZ = 1e-9

# Kernel evaluations per row tile of the pair engine: temporaries of this
# many float64 stay in L2.
_TILE_PAIRS = 1 << 14


@dataclass(frozen=True)
class Region:
    """Union of axis-aligned (r, s) rectangles, clipped to {s - r > kappa}.

    Each rectangle is (r_lo, r_hi, s_lo, s_hi), half-open on the high
    edges.  kappa = 0 clips to the open triangle {r < s}; kappa > 0 keeps
    a safety band off the diagonal.
    """

    rectangles: tuple
    kappa: float = 0.0
    label: str = "region"

    def __post_init__(self):
        rects = tuple(tuple(float(v) for v in r) for r in self.rectangles)
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")
        for r_lo, r_hi, s_lo, s_hi in rects:
            if not (0.0 <= r_lo < r_hi and 0.0 <= s_lo < s_hi):
                raise ValueError(f"degenerate rectangle {(r_lo, r_hi, s_lo, s_hi)}")
        for a in range(len(rects)):
            for b in range(a + 1, len(rects)):
                if _rect_overlap(rects[a], rects[b]):
                    raise ValueError("rectangles must be pairwise disjoint")
        object.__setattr__(self, "rectangles", rects)

    @property
    def max_time(self) -> float:
        return max(max(r[1], r[3]) for r in self.rectangles)


def _rect_overlap(a, b) -> bool:
    r = min(a[1], b[1]) > max(a[0], b[0])
    s = min(a[3], b[3]) > max(a[2], b[2])
    return r and s


def full_triangle(horizon: float) -> Region:
    """The triangle D = {0 < r < s < horizon}."""
    t = float(horizon)
    return Region(((0.0, t, 0.0, t),), kappa=0.0, label=f"D[{t:g}]")


def offset_triangle(horizon: float, kappa: float) -> Region:
    """D_kappa = {0 < r < s < horizon, s - r > kappa}."""
    t = float(horizon)
    if not 0.0 <= kappa < t:
        raise ValueError("need 0 <= kappa < horizon")
    return Region(((0.0, t, 0.0, t),), kappa=float(kappa),
                  label=f"D_kappa[{kappa:g},{t:g}]")


def dyadic_square(j: int, k: int) -> Region:
    """The square A_k^j = [(2k-2)2^-j, (2k-1)2^-j] x [(2k-1)2^-j, 2k 2^-j].

    Requires 1 <= k <= 2^(j-1); the squares at fixed j tile a band under
    the diagonal of the unit triangle.
    """
    if j < 1 or not 1 <= k <= 2 ** (j - 1):
        raise ValueError("need j >= 1 and 1 <= k <= 2^(j-1)")
    h = 2.0**-j
    rect = ((2 * k - 2) * h, (2 * k - 1) * h, (2 * k - 1) * h, 2 * k * h)
    return Region((rect,), kappa=0.0, label=f"A[{k},{j}]")


def region_union(*regions: Region, label: str | None = None) -> Region:
    """Disjoint union of regions sharing the same kappa."""
    if not regions:
        raise ValueError("need at least one region")
    kappas = {r.kappa for r in regions}
    if len(kappas) > 1:
        raise ValueError("cannot union regions with different kappa clips")
    rects = tuple(r for reg in regions for r in reg.rectangles)
    if label is None:
        label = "+".join(r.label for r in regions)
    return Region(rects, kappa=regions[0].kappa, label=label)


@dataclass(frozen=True)
class SiltEstimate:
    """One estimator evaluation with its full parameter record."""

    kind: str
    hurst: float
    horizon: float
    n_steps: int
    seed: int
    y: float
    epsilon: float
    region_id: str
    value: float
    converged: bool | None = None
    warning: str | None = None


def _grid_ceil(t, delta):
    """Smallest grid index i with i*delta >= t, fuzzed; elementwise."""
    return np.ceil(np.asarray(t, dtype=float) / delta - _FUZZ).astype(np.intp)


def profile_index(path: FbmPath, times) -> np.ndarray:
    """Entry of alpha_time_profile that equals the estimate over
    full_triangle(t), for each 0 <= t <= horizon."""
    return np.clip(_grid_ceil(times, path.delta), 0, path.n_steps)


def _row_sums(path: FbmPath, region: Region, func, weight=None) -> list:
    """Unscaled row sums of w(j - i) * func(B_j - B_i), one array per rectangle.

    This is the only pair loop.  Row j sums its admissible prefix i in
    [i0, min(i1, j - g_min + 1)) with np.sum.  The kernel runs on tiles of
    consecutive rows, each as wide as the tile's longest prefix, and each
    row is summed over exactly its own contiguous prefix: the kernels are
    elementwise, so tile size cannot change a bit.  A kernel is exactly 0.0
    outside its ``support`` (d_lo, d_hi), if it has one; where that holds
    for most of a rectangle's pairs, its tiles are zeros with the kernel
    evaluated only on the columns some row reaches inside the support.
    ``weight``, if given, holds w(g) at index g - 1 for gaps g = 1..n_steps.
    Each array starts with a zero (no rows yet) and has the kernel's
    leading axes, if any.
    """
    delta = path.delta
    n = path.n_steps
    if region.max_time > path.horizon * (1.0 + _FUZZ):
        raise ValueError(
            f"region {region.label!r} extends beyond the path horizon {path.horizon:g}"
        )
    values = path.values
    lead = np.shape(func(np.zeros((1, 1))))[:-2]  # the kernel's extra axes
    budget = _TILE_PAIRS // max(1, math.prod(lead))  # pairs per tile and y
    # strict clip s - r > kappa on cell centers: smallest admissible gap index
    g_min = max(1, math.floor(region.kappa / delta + _FUZZ) + 1)
    d_lo, d_hi = getattr(func, "support", (-np.inf, np.inf))
    pad = 4.0 * math.ulp(float(np.abs(values).max()) + max(-d_lo, d_hi))  # rounding
    d_lo, d_hi = d_lo - pad, d_hi + pad
    out = []
    for rect in region.rectangles:
        # half-open index ranges [i0, i1) x [j0, j1) of the grid times inside
        i0, i1, j0, j1 = np.clip(_grid_ceil(rect, delta), 0, n + 1).tolist()
        rows = np.zeros(lead + (max(0, j1 - j0) + 1,))
        j = max(j0, i0 + g_min)  # first row with a nonempty prefix
        sparse = math.isfinite(d_hi - d_lo) and j < j1 and i0 < i1
        if sparse:  # skip the zeros if they are most of the pairs
            c, b = np.sort(values[i0:min(i1, j1 - g_min)]), values[j:j1]
            near = np.searchsorted(c, b - d_lo, "right") - np.searchsorted(c, b - d_hi)
            sparse = 2 * near.sum() < b.size * c.size
        while j < j1 and i0 < i1:
            # a prefix grows by at most one per row, so r * (width + r) bounds
            # the tile, discarded columns included
            width = min(i1, j - g_min + 1) - i0
            jb = min(j1, j + max(1, (math.isqrt(width * width + 4 * budget)
                                     - width) // 2))
            hi = min(i1, jb - g_min)
            b, c = values[j:jb], values[i0:hi]
            if sparse:  # columns that some row of the tile sees in the support
                keep = np.flatnonzero((c >= b.min() - d_hi) & (c <= b.max() - d_lo))
                terms = np.zeros(lead + (jb - j, hi - i0))
                terms[..., keep] = func(b[:, None] - c[keep])
            else:
                terms = func(b[:, None] - c)
            if weight is not None:
                gaps = np.arange(j - 1, jb - 1)[:, None] - np.arange(i0, hi)
                terms = terms * weight.take(gaps, mode="clip")
            for k in range(j, jb):
                rows[..., k - j0 + 1] = np.add.reduce(
                    terms[..., k - j, : min(hi, k - g_min + 1) - i0], axis=-1)
            j = jb
        out.append(rows)
    return out


def pair_sum(path: FbmPath, region: Region, func, weight=None):
    """Sum delta^2 * w(j - i) * func(B_j - B_i) over the region's grid pairs.

    Each rectangle's rows are summed sequentially and scaled on their own,
    so estimates over disjoint unions add up bitwise and equal the
    matching entry of a time profile.  Returns a float, or one value per
    y for a kernel over a y-grid, each equal to the scalar call's bits.
    Raises FloatingPointError if a sum is not finite.
    """
    total = sum(path.delta * path.delta * np.cumsum(rows, axis=-1)[..., -1]
                for rows in _row_sums(path, region, func, weight))
    if not np.all(np.isfinite(total)):
        raise FloatingPointError(f"pair sum over {region.label!r} is not finite")
    return total if np.ndim(total) else float(total)


def _kernel(y, m: Mollifier, derivative: bool):
    """Pair kernel f_eps(d - y), or -f_eps'(d - y); a 1-D y is a leading axis."""
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y must be finite, got {y!r}")
    y = np.asarray(y, dtype=float)[..., None, None]

    def kernel(d):
        return -f_eps_prime(d - y, m) if derivative else f_eps(d - y, m)

    # beyond rho every term is 0.0 (nan for f_eps' if eps^3 underflows)
    if y.size and (not derivative or m.epsilon ** 3 > 0.0):
        rho = math.sqrt(-2.0 * _EXP_FLOOR * m.epsilon) * (1.0 + 1e-6)
        kernel.support = (float(y.min()) - rho, float(y.max()) + rho)
    return kernel


def _estimate(path, y, m, region, kind, derivative, weight=None, warning=None):
    if region is None:
        region = full_triangle(path.horizon)
    value = pair_sum(path, region, _kernel(y, m, derivative), weight)
    return SiltEstimate(
        kind=kind, hurst=path.hurst, horizon=path.horizon, n_steps=path.n_steps,
        seed=path.seed, y=float(y), epsilon=m.epsilon, region_id=region.label,
        value=value, warning=warning,
    )


def alpha_eps(path: FbmPath, y: float, m: Mollifier,
              region: Region | None = None) -> SiltEstimate:
    """Mollified self-intersection local time: sum of f_eps(B_s - B_r - y)."""
    return _estimate(path, y, m, region, "alpha", derivative=False)


def alpha_prime_eps(path: FbmPath, y: float, m: Mollifier,
                    region: Region | None = None) -> SiltEstimate:
    """Mollified derivative estimator: minus the sum of f_eps'(B_s - B_r - y)."""
    return _estimate(path, y, m, region, "alpha_hat_prime", derivative=True)


def alpha_tilde_prime_eps(path: FbmPath, y: float, m: Mollifier) -> SiltEstimate:
    """Kernel-weighted derivative estimator with weight (s - r)^(2H - 1).

    Coincides with alpha_prime_eps at H = 1/2.  For H >= 2/3 the estimate
    carries a warning: the limiting object is not known to exist in L^2.
    """
    warning = ("H >= 2/3: kernel-weighted limit not known to exist in L^2"
               if path.hurst >= 2.0 / 3.0 else None)
    gaps = path.delta * np.arange(1, path.n_steps + 1)
    return _estimate(path, y, m, None, "alpha_tilde_prime", derivative=True,
                     weight=gaps ** (2.0 * path.hurst - 1.0), warning=warning)


def alpha_time_profile(path: FbmPath, y, m: Mollifier,
                       derivative: bool = False) -> np.ndarray:
    """alpha_eps (or alpha_prime_eps) over the growing triangles D_t.

    Returns an array of length n_steps + 1 whose k-th entry equals, bit for
    bit, the estimator over full_triangle(t_k): the cumulative row sums of
    the pair engine.  profile_index maps a time t to its entry.  A 1-D y
    gives shape (len(y), n_steps + 1), each row equal to the scalar call's
    profile at that y bit for bit.  Raises FloatingPointError if an entry
    is not finite.
    """
    (rows,) = _row_sums(path, full_triangle(path.horizon), _kernel(y, m, derivative))
    profile = path.delta * path.delta * np.cumsum(rows, axis=-1)
    if not np.all(np.isfinite(profile)):
        raise FloatingPointError("time profile is not finite")
    return profile


@dataclass(frozen=True)
class LocalTimeProfile:
    """Occupation-measure histogram: values[i] estimates the local time L^x
    at x = bin_centers[i]."""

    bin_width: float
    bin_centers: np.ndarray
    values: np.ndarray
    horizon: float


def local_time(path: FbmPath, bin_width: float | None = None) -> LocalTimeProfile:
    """Histogram estimate of the local time over the path's range.

    Each of the first n_steps samples contributes delta of occupation to
    its bin, so bin_width * sum(values) recovers the horizon.  Default
    bin_width is range/256.
    """
    samples = path.values[: path.n_steps]
    lo = float(samples.min())
    hi = float(samples.max())
    if bin_width is None:
        span = hi - lo
        if span == 0.0:
            raise ValueError("degenerate path range; pass an explicit bin_width")
        bin_width = span / 256.0
    if not bin_width > 0.0:
        raise ValueError("bin_width must be positive")
    n_bins = max(1, math.ceil((hi - lo) / bin_width + _FUZZ))
    idx = np.clip(((samples - lo) / bin_width).astype(int), 0, n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    centers = lo + (np.arange(n_bins) + 0.5) * bin_width
    values = counts * (path.delta / bin_width)
    return LocalTimeProfile(bin_width=float(bin_width), bin_centers=centers,
                            values=values, horizon=path.horizon)


def alpha_via_local_time(profile: LocalTimeProfile, y: float) -> float:
    """alpha_t(y) via (1/2) * integral of L(x + y) L(x) dx on the histogram.

    y is snapped to the nearest bin multiple (so the shifted profile needs
    no interpolation); the snap is at most bin_width / 2.
    """
    w = profile.bin_width
    y_used = round(y / w) * w
    shifted = np.interp(profile.bin_centers + y_used,
                        profile.bin_centers, profile.values,
                        left=0.0, right=0.0)
    return 0.5 * w * float(np.sum(shifted * profile.values))


def epsilon_extrapolate(estimates) -> SiltEstimate:
    """Extrapolate a geometric epsilon ladder to epsilon = 0.

    Takes estimates of one quantity at epsilons decreasing roughly
    geometrically, applies Aitken's delta-squared step to the final three
    values, and flags the record converged when the successive differences
    shrink monotonically.
    """
    ests = list(estimates)
    if len(ests) < 3:
        raise ValueError("need at least 3 estimates on the epsilon ladder")
    keys = {(e.kind, e.hurst, e.horizon, e.n_steps, e.seed, e.y, e.region_id)
            for e in ests}
    if len(keys) > 1:
        raise ValueError("estimates mix kinds, paths, y, or regions")
    eps = np.array([e.epsilon for e in ests])
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilons must be positive and strictly decreasing")
    v = np.array([e.value for e in ests])
    d = np.diff(v)
    denom = d[-1] - d[-2]
    if denom == 0.0:
        limit = v[-1]
    else:
        limit = v[-1] - d[-1] ** 2 / denom
    mags = np.abs(d)
    converged = bool(np.all(np.diff(mags) <= 1e-15 + 1e-9 * mags[:-1]))
    return replace(ests[-1], epsilon=0.0, value=float(limit), converged=converged)


def renormalized_alpha_prime(path: FbmPath, y: float, m: Mollifier,
                             oracle_mean: float,
                             region: Region | None = None) -> float:
    """alpha_prime_eps minus a caller-supplied expected value.

    The subtraction recenters the derivative estimator; the matching mean
    comes from the expectation module at the same (t, y, epsilon, H).
    """
    return alpha_prime_eps(path, y, m, region).value - float(oracle_mean)


def default_epsilon_ladder(horizon: float, hurst: float) -> list:
    """Geometric epsilon ladder scaled to the increment variance t^2H."""
    scale = float(horizon) ** (2.0 * check_hurst(hurst))
    return [c * scale for c in (0.04, 0.02, 0.01, 0.005)]
