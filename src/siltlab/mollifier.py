"""Gaussian approximate identity f_eps and its derivative.

f_eps(x) = (2 pi eps)^(-1/2) exp(-x^2 / (2 eps)) regularizes the delta
function; f_eps' regularizes its derivative.  A quadrature check of the
Fourier representations is included for the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mollifier", "f_eps", "f_eps_prime", "fourier_check"]

# exp returns subnormals below exp(-708.4) and rounds to zero below about
# exp(-745.13); arguments under the floor are cut to exact zero so Riemann
# sums reproduce across platforms.  They are replaced by 0 rather than
# clamped to the floor: a subnormal result takes libm's slow path (~100x a
# normal one) only for the value to be discarded.  Arguments in
# [-745, -708.4] still take that path.
_EXP_FLOOR = -745.0


@dataclass(frozen=True)
class Mollifier:
    """Gaussian mollifier of variance epsilon > 0."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")


def _safe_exp(arg):
    clamped = arg < _EXP_FLOOR
    return np.where(clamped, 0.0, np.exp(np.where(clamped, 0.0, arg)))


def f_eps(x, m: Mollifier):
    """Evaluate f_eps at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    eps = m.epsilon
    out = _safe_exp(-0.5 * x * x / eps) / np.sqrt(2.0 * np.pi * eps)
    if out.ndim == 0:
        return float(out)
    return out


def f_eps_prime(x, m: Mollifier):
    """Evaluate the derivative f_eps'(x) = -x (2 pi eps^3)^(-1/2) e^(-x^2/2eps).

    At x = +-inf this returns the limit 0.0 (the formula gives -inf * 0).
    """
    x = np.asarray(x, dtype=float)
    eps = m.epsilon
    with np.errstate(invalid="ignore"):
        out = -x * _safe_exp(-0.5 * x * x / eps) / np.sqrt(2.0 * np.pi * eps**3)
    out = np.where(np.isinf(x), 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def fourier_check(
    x: float,
    m: Mollifier,
    cutoff: float | None = None,
    n_nodes: int = 256,
    derivative: bool = False,
) -> float:
    """Evaluate f_eps (or f_eps') at x through its Fourier representation.

    f_eps(x)  = (1/2pi) int e^(ipx) e^(-eps p^2/2) dp
    f_eps'(x) = (i/2pi) int p e^(ipx) e^(-eps p^2/2) dp

    The integral is truncated to [-cutoff, cutoff] (default 12/sqrt(eps),
    tail mass < 1e-30) and evaluated by Gauss-Legendre quadrature.  Meant
    as an independent oracle for the closed forms, not for production use.
    """
    if cutoff is None:
        cutoff = 12.0 / np.sqrt(m.epsilon)
    if not cutoff > 0.0:
        raise ValueError("cutoff must be positive")
    if n_nodes < 16:
        raise ValueError("n_nodes must be >= 16")
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    p = cutoff * nodes
    w = cutoff * weights
    damp = np.exp(-0.5 * m.epsilon * p * p)
    if derivative:
        # i e^(ipx) contributes -sin(px) to the real part; the cos part is odd.
        integrand = -p * np.sin(p * x) * damp
    else:
        integrand = np.cos(p * x) * damp
    return float(np.sum(w * integrand) / (2.0 * np.pi))
