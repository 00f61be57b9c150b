"""Evaluate the self-intersection estimators over a mollifier ladder.

Runs alpha and its derivative on one path for a decreasing sequence of
mollifier widths, then extrapolates to the sharp limit with Aitken's
delta-squared step.
"""

from siltlab import Mollifier, alpha_eps, alpha_prime_eps, epsilon_extrapolate, generate_path


def main() -> None:
    path = generate_path(0.3, 1.0, 2048, seed=42)
    y = 0.5
    print(f"path: H=0.3, 2048 steps, seed 42; offset y={y}")
    print()
    print(f"{'epsilon':>10} {'alpha':>14} {'alpha_hat_prime':>16}")
    ladder = []
    for eps in (0.04, 0.02, 0.01, 0.005):
        m = Mollifier(eps)
        a = alpha_eps(path, y, m)
        d = alpha_prime_eps(path, y, m)
        ladder.append(d)
        print(f"{eps:>10} {a.value:>14.8f} {d.value:>16.8f}")

    extrapolated = epsilon_extrapolate(ladder)
    print()
    print(f"extrapolated derivative at epsilon=0: {extrapolated.value:.8f} "
          f"(converged={extrapolated.converged})")
    if extrapolated.converged:
        print("the successive differences shrink monotonically; that alone")
        print("does not bound the error of the extrapolated value.")


if __name__ == "__main__":
    main()
