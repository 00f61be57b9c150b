"""Fractional Brownian motion synthesis and exact Gaussian functionals.

Paths are generated by circulant embedding of the stationary increment
covariance (FFT, exact in distribution) or, for small n, by Cholesky.  The
module also evaluates covariances, characteristic functionals of weighted
increment sums, and the local-nondeterminism ratio used by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SynthesisError",
    "check_hurst",
    "covariance",
    "covariance_matrix",
    "increment_covariance_matrix",
    "FbmPath",
    "generate_path",
    "ConfigurationTimes",
    "characteristic_functional",
    "lnd_ratio",
]

# Circulant eigenvalues below -PSD_TOLERANCE times the largest reject the
# embedding; smaller negatives are rounding and are clamped to zero.  The
# exact fGn embedding is nonnegative for every H (Dietrich & Newsam 1997;
# Craigmile 2003): rejections come from cancellation of the k^2H terms in
# _fgn_autocovariance (~7e10 at m = 2^18, ~7.5e-6 absolute error per lag),
# and occur only at m >= 2^15 with H near 1, never at m <= 4096.
PSD_TOLERANCE = 1e-10

_MAX_SEED = 2**64


class SynthesisError(RuntimeError):
    """Raised when the requested synthesis route cannot factor the covariance."""


def check_hurst(hurst: float) -> float:
    """Validate a Hurst parameter, returning it as a float.

    Raises
    ------
    ValueError
        If ``hurst`` is not strictly between 0 and 1.
    """
    h = float(hurst)
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must lie in (0, 1), got {hurst!r}")
    return h


def covariance(s, t, hurst: float):
    """Covariance of fractional Brownian motion, (s^2H + t^2H - |t-s|^2H)/2.

    Accepts scalars or arrays (broadcast).  For hurst = 1/2 the Brownian
    form min(s, t) is used, which is exact where the general formula would
    round.

    Raises
    ------
    ValueError
        If any time is negative or the Hurst parameter is out of range.
    """
    h = check_hurst(hurst)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    if h == 0.5:
        out = np.minimum(s, t)
    else:
        out = 0.5 * (s ** (2 * h) + t ** (2 * h) - np.abs(t - s) ** (2 * h))
    if out.ndim == 0:
        return float(out)
    return out


def covariance_matrix(times, hurst: float) -> np.ndarray:
    """Covariance matrix of fBm sampled at the given times."""
    t = np.asarray(times, dtype=float)
    return covariance(t[:, None], t[None, :], hurst)


def increment_covariance_matrix(times, hurst: float) -> np.ndarray:
    """Covariance matrix of consecutive increments B(t[i+1]) - B(t[i]).

    ``times`` must be sorted.  For hurst = 1/2 the increments are
    independent, so the exact diagonal matrix of gaps is returned.
    """
    h = check_hurst(hurst)
    t = np.asarray(times, dtype=float)
    gaps = np.diff(t)
    if np.any(gaps < 0.0):
        raise ValueError("times must be sorted")
    if h == 0.5:
        return np.diag(gaps)
    c = covariance_matrix(t, h)
    return c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]


@dataclass(frozen=True, eq=False)
class FbmPath:
    """A sampled fBm trajectory on a uniform closed grid.

    ``values`` has length ``n_steps + 1`` with ``values[0] == 0``.
    Regeneration with the same (hurst, horizon, n_steps, seed) reproduces
    ``values`` bit for bit.
    """

    hurst: float
    horizon: float
    n_steps: int
    seed: int
    values: np.ndarray = field(repr=False)

    @property
    def delta(self) -> float:
        """Grid spacing horizon / n_steps."""
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values)


def _fgn_autocovariance(lags: np.ndarray, hurst: float) -> np.ndarray:
    """Autocovariance of unit-step fractional Gaussian noise at integer lags."""
    k = np.asarray(lags, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)


def _circulant_increments(hurst: float, n_steps: int, rng) -> np.ndarray:
    """Draw n_steps unit-step fGn samples by circulant embedding.

    Raises SynthesisError if the embedding has a significantly negative
    eigenvalue.
    """
    m = 1 << max(0, (n_steps - 1).bit_length())
    gamma = _fgn_autocovariance(np.arange(m + 1), hurst)
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2m, symmetric
    eigs = np.fft.fft(row).real
    if eigs.min() < -PSD_TOLERANCE * eigs.max():
        raise SynthesisError(
            "circulant embedding has negative eigenvalues beyond tolerance"
        )
    eigs = np.clip(eigs, 0.0, None)

    # Hermitian spectrum: real weights at frequencies 0 and m, complex in
    # between; ifft * sqrt(2m) then has the fGn autocovariance exactly.
    z = rng.standard_normal(2 * m)
    half = np.empty(m + 1, dtype=complex)
    half[0] = np.sqrt(eigs[0]) * z[0]
    half[m] = np.sqrt(eigs[m]) * z[1]
    half[1:m] = np.sqrt(eigs[1:m] / 2.0) * (z[2 : m + 1] + 1j * z[m + 1 : 2 * m])
    x = np.fft.irfft(half, n=2 * m) * np.sqrt(2 * m)
    return x[:n_steps]


def _cholesky_increments(hurst: float, n_steps: int, rng) -> np.ndarray:
    if n_steps > 4096:
        raise SynthesisError(
            "Cholesky synthesis is quadratic in memory; refusing n_steps > 4096"
        )
    cov = increment_covariance_matrix(np.arange(n_steps + 1, dtype=float), hurst)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(
            "Cholesky factorization of the increment covariance failed "
            "(numerically non-PSD)"
        ) from exc
    return chol @ rng.standard_normal(n_steps)


def generate_path(
    hurst: float,
    horizon: float,
    n_steps: int,
    seed: int,
    method: str = "circulant",
) -> FbmPath:
    """Generate an exact-in-distribution fBm sample path.

    Parameters
    ----------
    hurst : float in (0, 1)
    horizon : positive, finite final time.
    n_steps : number of uniform grid steps (path has n_steps + 1 samples).
    seed : integer in [0, 2^64); identical seeds reproduce identical paths.
    method : "circulant" (FFT circulant embedding) or "cholesky" (dense
        factorization, n_steps <= 4096; an independent reference route).

    Raises
    ------
    SynthesisError
        If the requested factorization fails.
    """
    h = check_hurst(hurst)
    if not 0.0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must fit in an unsigned 64-bit integer")

    # Counter-based generator: disjoint seeds give independent streams, so a
    # sweep can assign seed = base + k up front.
    rng = np.random.Generator(np.random.Philox(key=seed))

    if method == "circulant":
        unit = _circulant_increments(h, n_steps, rng)
    elif method == "cholesky":
        unit = _cholesky_increments(h, n_steps, rng)
    else:
        raise ValueError(f"unknown method {method!r}")

    delta = horizon / n_steps
    values = np.empty(n_steps + 1)
    values[0] = 0.0
    np.cumsum(unit * delta**h, out=values[1:])
    return FbmPath(hurst=h, horizon=float(horizon), n_steps=int(n_steps),
                   seed=seed, values=values)


@dataclass(frozen=True, eq=False)
class ConfigurationTimes:
    """Sorted times l_1 <= ... <= l_2n in [0, horizon] with gaps a_j.

    These are the relabeled endpoint times of a pair configuration; the
    weighted increment sums below are taken over consecutive gaps.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2 or v.size % 2 != 0:
            raise ValueError("need an even number (>= 2) of times")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("times must be sorted")
        if v[0] < 0.0:
            raise ValueError("times must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def gaps(self) -> np.ndarray:
        """Consecutive differences a_j = l_{j+1} - l_j (length 2n - 1)."""
        return np.diff(self.values)


def _as_weights(times: ConfigurationTimes, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    expected = times.values.size - 1
    if w.shape != (expected,):
        raise ValueError(f"need {expected} weights, got shape {w.shape}")
    return w


def characteristic_functional(times: ConfigurationTimes, weights, hurst: float) -> float:
    """E[exp(i sum_j u_j (B(l_{j+1}) - B(l_j)))], evaluated exactly.

    Equals exp(-Var/2) for the Gaussian increment sum; always in (0, 1].
    """
    w = _as_weights(times, weights)
    cov = increment_covariance_matrix(times.values, hurst)
    var = float(w @ (cov @ w))
    # Tiny negative variances are rounding noise from the quadratic form.
    var = max(var, 0.0)
    return float(np.exp(-0.5 * var))


def lnd_ratio(times: ConfigurationTimes, weights, hurst: float) -> float:
    """Var(sum_j u_j dB_j) / sum_j u_j^2 a_j^2H, the local-nondeterminism ratio.

    Local nondeterminism of fBm bounds this ratio below by a positive
    constant depending only on the Hurst parameter and the number of gaps;
    the function reports the ratio, assertions live in the tests.

    Raises
    ------
    ValueError
        If all weights vanish or some gap is zero (ratio undefined).
    """
    h = check_hurst(hurst)
    w = _as_weights(times, weights)
    gaps = times.gaps
    if np.all(w == 0.0):
        raise ValueError("at least one weight must be nonzero")
    if np.any(gaps <= 0.0):
        raise ValueError("all gaps must be positive")
    cov = increment_covariance_matrix(times.values, h)
    reference = np.diag(gaps ** (2.0 * h))
    # Same quadratic-form evaluation for both so the H = 1/2 case, where the
    # two matrices coincide, gives exactly 1.
    num = float(w @ (cov @ w))
    den = float(w @ (reference @ w))
    return num / den
