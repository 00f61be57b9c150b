"""siltlab: fractional Brownian motion and self-intersection local times.

Exact-covariance fBm synthesis, pathwise estimators for the
self-intersection local time and its spatial derivative, closed-form
expectation oracles with small-offset regime constants, occupation-time
identity checks, structure-function Holder estimation, and the
arc-diagram combinatorics behind the moment bounds.
"""

__version__ = "0.1.0"

import ctypes
import os

from .estimators import (
    SiltEstimate,
    alpha_eps,
    alpha_prime_eps,
    alpha_tilde_prime_eps,
    alpha_via_local_time,
    dyadic_square,
    epsilon_extrapolate,
    full_triangle,
    local_time,
    offset_triangle,
)
from .expectation import (
    asymptotic_constant,
    mean_alpha_prime,
    mean_alpha_prime_eps,
    regime_classify,
)
from .fbm import FbmPath, SynthesisError, covariance, generate_path, lnd_ratio
from .mollifier import Mollifier

__all__ = [
    "FbmPath",
    "Mollifier",
    "SiltEstimate",
    "SynthesisError",
    "alpha_eps",
    "alpha_prime_eps",
    "alpha_tilde_prime_eps",
    "alpha_via_local_time",
    "asymptotic_constant",
    "covariance",
    "dyadic_square",
    "epsilon_extrapolate",
    "full_triangle",
    "generate_path",
    "lnd_ratio",
    "local_time",
    "mean_alpha_prime",
    "mean_alpha_prime_eps",
    "offset_triangle",
    "regime_classify",
    "__version__",
]

# glibc's mallopt parameters, and the values siltlab fixes.  glibc raises its
# mmap threshold to the largest block freed so far, and the trim threshold
# with it, so without this the pair engine's cost depends on what the process
# ran before: at the thresholds a bare interpreter has, each tile's freed
# 128 KiB temporaries trim the heap and the next tile faults it back in
# (about 8,000 minor faults in an n = 4096 alpha_eps at eps = 2e-5).
# Fixed thresholds also turn off that raising.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 2 << 20


def _fix_malloc_thresholds() -> None:
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        libc = ""
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_malloc_thresholds()
