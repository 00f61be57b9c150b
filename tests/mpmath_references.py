"""Recompute the literal mpmath references pinned in test_expectation.py.

The tests keep these values as literals, so the suite needs no mpmath.
This script derives them independently of siltlab: it integrates the
u-form of the mean,

    E = -y / sqrt(2 pi) * int_0^t (t-u) (eps + u^2H)^(-3/2)
                                   exp(-y^2 / (2 (eps + u^2H))) du,

in v = u/min(t, 1) (so a tiny horizon does not shrink the integral
below mpmath's absolute error floor, nor a huge one crowd it into
pieces far narrower than the horizon), with mpmath tanh-sinh quadrature at 40
working digits, on pieces split at every power of ten from well below
the integrand's scales eps^(1/2H) and |y|^(1/H) up to t.  A value whose
mpmath error estimate exceeds 1e-30 relative raises ArithmeticError
instead of printing: where the mass crowds one piece, tanh-sinh can be
off in the fifth digit.
Run offline with mpmath installed:

    python tests/mpmath_references.py

Each line prints (t, y, epsilon, H), the value to 20 digits and its
nearest double, which is the literal in the tests.
"""

import mpmath as mp

# (t, y, epsilon, H) of every mpmath literal in test_expectation.py
POINTS = [
    (1.0, 0.125, 0.0078125, 0.109375),
    (1.0, 1e-3, 1e-4, 0.15),
    (1.0, 1e-4, 1e-6, 0.25),
    (1.0, 1e-4, 1e-7, 0.5),
    (1.0, 1e-5, 1e-8, 0.6),
    (1.0, 2e-5, 1e-8, 0.5),
    (0.5, 3.72, 0.154, 0.674),
    (1e-100, 1.0, 1.0, 0.9),
    (1e-300, 1e-270, 0.0, 0.9),
    (1e175, 1.0, 1.0, 0.9),
]


def reference_mean(t, y, eps, h, dps=30):
    """E at (t, y, eps, H) to about dps digits, from the u-integral."""
    with mp.workdps(dps + 10):
        t, y, eps, h = (mp.mpf(v) for v in (t, y, eps, h))
        if y == 0:
            return mp.mpf(0)

        c = min(t, mp.mpf(1))

        def integrand(v):
            var = eps + (c * v) ** (2 * h)
            return (t / c - v) * var ** mp.mpf(-1.5) * mp.exp(-y * y / (2 * var))

        scales = [abs(y) ** (1 / h)] + ([eps ** (1 / (2 * h))] if eps > 0 else [])
        u = min(min(scales), t) / 1000
        pieces = [mp.mpf(0)]
        while u < t:
            pieces.append(u / c)
            u *= 10
        pieces.append(t / c)
        value, error = mp.quad(integrand, pieces, error=True)
        value, error = c * c * value, c * c * error
        if error > abs(value) * mp.mpf(10) ** -dps:
            point = ", ".join(mp.nstr(v, 17) for v in (t, y, eps, h))
            raise ArithmeticError(f"mpmath error estimate {mp.nstr(error, 3)} "
                                  f"exceeds 1e-{dps} relative at ({point})")
        return -y / mp.sqrt(2 * mp.pi) * value


def main() -> None:
    for point in POINTS:
        value = reference_mean(*point)
        print(f"{point}: {mp.nstr(value, 20)}  double {float(value)!r}")


if __name__ == "__main__":
    main()
