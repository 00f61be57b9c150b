"""The benchmark workloads and the per-layer probes they share.

A workload hands the measuring loop one *pass* at a time: a list of items,
each a (label, run, check) triple.  ``run`` is the timed call into siltlab;
``check`` verifies its output outside the timed region.  Path seeds are
``base + k``.  ``probe`` runs once after the traced loop and calls each
layer directly, on the workload's own inputs where the workload reaches
that layer and on small fixed inputs where it does not, so every per-layer
metric is a measurement on every workload.  ``counts`` are the work of one
pass (plus the probes), computed from the inputs, so they repeat exactly.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import math
import shutil
from pathlib import Path

import numpy as np

from siltlab import cli, io
from siltlab.arcs import (
    build_spanning_sets,
    enumerate_configurations,
    enumerate_m_assignments,
    find_isolated_intervals,
)
from siltlab.estimators import (
    alpha_eps,
    alpha_via_local_time,
    dyadic_square,
    local_time,
)
from siltlab.expectation import mean_alpha_prime_eps
from siltlab.fbm import generate_path
from siltlab.mollifier import Mollifier, f_eps
from siltlab.regularity import (
    TestFunction,
    occupation_check_alpha,
    occupation_check_derivative,
)

# The occupation y-grid of acceptance criteria 5 and 6.
OCC_GRID = np.linspace(-4.2, 4.2, 337)
# mollifier._EXP_FLOOR: arguments at or below it take the clamped exp path.
EXP_FLOOR = -745.0
# Pair differences handed to the f_eps probe (a stride over the gaps).
F_EPS_PROBE_ELEMS = 1 << 20
F_EPS_BLOCK = 4096


def full_pairs(n):
    """Grid pairs i < j of the full triangle D: cells 0..n-1."""
    return n * (n - 1) // 2


def square_pairs(n):
    """Grid pairs of the dyadic square A[1,1] = [0, 1/2) x [1/2, 1), even n."""
    return (n // 2) ** 2


def pair_differences(path):
    """B_j - B_i over a stride of gaps, as the full-triangle pair sum sees them."""
    v = path.values[: path.n_steps]
    n = v.size
    stride = max(1, math.ceil(full_pairs(n) / F_EPS_PROBE_ELEMS))
    return np.concatenate([v[g:] - v[:-g] for g in range(1, n, stride)])


def quiet_cli(argv):
    """Run siltlab's CLI in-process with its console output discarded."""
    sink = _stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


class Workload:
    """Shared plumbing: seeds, perturbation, scratch directory."""

    name = ""
    item_unit = ""

    def __init__(self, base, perturb, workdir, reference):
        self.base = int(base)
        self.perturb = bool(perturb)
        self.workdir = Path(workdir)
        self.reference = reference
        self.counts = {}

    def warm_up(self):
        """First calls on tiny inputs; returns [(check name, ok)]."""
        return []

    # --- idle-layer probes: small fixed inputs for layers the workload skips

    def probe_idle_regularity(self, tr, hurst):
        path = generate_path(hurst, 1.0, 256, self.base)
        g = TestFunction.gaussian(0.0, 1.0)
        with tr.span("regularity.occupation_check_alpha"):
            occupation_check_alpha(path, g, OCC_GRID, Mollifier(0.01))
        with tr.span("regularity.occupation_check_derivative"):
            occupation_check_derivative(path, g, OCC_GRID, Mollifier(0.005))

    def probe_idle_expectation(self, tr, hurst):
        for _ in range(3):
            with tr.span("expectation.mean_alpha_prime_eps"):
                mean_alpha_prime_eps(1.0, 0.5, 0.01, hurst)
        self.counts["expectation.calls"] = 3

    def probe_idle_arcs(self, tr):
        with tr.span("arcs.enumerate_configurations"):
            configs = enumerate_configurations(3)
        self.counts["arcs.words"] = len(configs)
        self.counts["arcs.m_assignments"] = probe_arcs_words(tr, configs[::9])

    def probe_idle_io_cli(self, tr, path):
        out = self.workdir / "probe-io"
        rows = list(zip(path.times, path.values))
        self.counts["io.bytes_written"] = probe_io(tr, out / "path.csv", "path",
                                                   ("time", "value"), rows)
        script = (
            ("arcs-analyze", ["arcs", "analyze", "--word", "r1,r2,s1,s2"]),
            ("arcs-enumerate", ["arcs", "enumerate", "--n", "3", "--write-words", "true"]),
            ("simulate", ["simulate", "--H", "0.3", "--n-steps", "1024",
                          "--seed", str(self.base)]),
        )
        for i, (command, argv) in enumerate(script):
            with tr.span(f"cli.{command}"):
                rc = quiet_cli(argv + ["--output", str(out / f"cli-{i}")])
            if rc != 0:
                raise RuntimeError(f"probe command {argv} exited {rc}")
        shutil.rmtree(out, ignore_errors=True)


# --- probes on given inputs ---------------------------------------------


def probe_pair_sum(tr, path, y, m):
    with tr.span("estimators.pair_sum", work=full_pairs(path.n_steps)):
        alpha_eps(path, y, m)


def probe_f_eps(workload, tr, path, y, m):
    """Time f_eps on the pair differences the pair sum would see.

    The differences go through in cache-sized blocks, as the pair engine
    hands them over gap by gap, so the figure is the kernel's own cost per
    element rather than memory traffic or per-call overhead.
    """
    x = pair_differences(path) - y
    workload.counts["mollifier.zero_frac"] = float(
        np.mean(-0.5 * x * x / m.epsilon <= EXP_FLOOR))
    blocks = np.array_split(x, max(1, x.size // F_EPS_BLOCK))
    for _ in range(3):
        with tr.span("mollifier.f_eps", work=x.size):
            for block in blocks:
                f_eps(block, m)


def probe_local_time(tr, path):
    for _ in range(3):
        with tr.span("estimators.local_time"):
            local_time(path, bin_width=0.02)


def probe_arcs_words(tr, configs):
    """m-assignments and spanning sets per word; returns the m count."""
    total = 0
    for c in configs:
        with tr.span("arcs.enumerate_m_assignments"):
            assignments = enumerate_m_assignments(c)
        total += len(assignments)
        if find_isolated_intervals(c):
            continue
        for a in assignments:
            with tr.span("arcs.build_spanning_sets"):
                build_spanning_sets(c, a)
    return total


def probe_io(tr, target, name, columns, rows):
    """write_csv then sha256 of the result; returns the bytes written."""
    target.parent.mkdir(parents=True, exist_ok=True)
    io.write_csv(target, name, columns, rows)   # untimed: gives the size
    size = target.stat().st_size
    for _ in range(3):
        target.unlink()
        with tr.span("io.write_csv", work=size):
            io.write_csv(target, name, columns, rows)
        with tr.span("io.sha256", work=size):
            io.sha256_file(target)
    return size


# --- occupation --------------------------------------------------------------


class Occupation(Workload):
    """Occupation-identity checks: table build plus two large-n pair passes."""

    name = "occupation"
    item_unit = "checks"
    H_CYCLE = (0.25, 0.4, 0.5)
    RESIDUAL = 1e-2
    MASS_TOL = 1e-3

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 4096   # smaller n breaks the 1e-2 residual of the derivative check
        self.g = TestFunction.gaussian(0.0, 1.0)
        self.one = TestFunction.cosine(0.0)
        self.last_path = None

    def warm_up(self):
        path = generate_path(0.25, 1.0, 64, 0)
        alpha_eps(path, 0.0, Mollifier(0.01))
        return []

    def pass_items(self, k, tr):
        hurst = self.H_CYCLE[(self.base + k) % len(self.H_CYCLE)]
        seed = self.base + k
        state = {}
        mass = 0.5 * (1.0 + 1e-2 if self.perturb else 1.0)   # t^2 / 2 at t = 1
        m_alpha, m_deriv = Mollifier(0.01), Mollifier(0.005)
        half = dyadic_square(1, 1)

        def path():
            if "path" not in state:
                with tr.span("fbm.generate_path"):
                    state["path"] = generate_path(hurst, 1.0, self.n, seed)
                self.last_path = state["path"]
            return state["path"]

        def residual_ok(out):
            lhs, rhs = out
            return abs(lhs - rhs) / max(abs(lhs), 1e-12) < self.RESIDUAL

        def alpha(g):
            def run():
                p = path()
                with tr.span("regularity.occupation_check_alpha"):
                    return occupation_check_alpha(p, g, OCC_GRID, m_alpha)
            return run

        def deriv(region):
            def run():
                p = path()
                with tr.span("regularity.occupation_check_derivative"):
                    return occupation_check_derivative(p, self.g, OCC_GRID, m_deriv,
                                                       region)
            return run

        return [
            (f"H={hurst} seed {seed} alpha g=1", alpha(self.one),
             lambda out: residual_ok(out) and abs(out[0] - mass) < self.MASS_TOL),
            (f"H={hurst} seed {seed} derivative D[1]", deriv(None), residual_ok),
            (f"H={hurst} seed {seed} alpha gaussian", alpha(self.g), residual_ok),
            (f"H={hurst} seed {seed} derivative A[1,1]", deriv(half), residual_ok),
        ]

    def probe(self, tr):
        path = self.last_path
        m = Mollifier(0.01)
        with tr.span("regularity.occupation_check_alpha"):
            occupation_check_alpha(path, self.g, OCC_GRID, m)
        with tr.span("regularity.occupation_check_derivative"):
            occupation_check_derivative(path, self.g, OCC_GRID, Mollifier(0.005))
        probe_pair_sum(tr, path, 0.0, m)
        probe_f_eps(self, tr, path, 0.0, m)
        probe_local_time(tr, path)
        self.probe_idle_expectation(tr, path.hurst)
        self.probe_idle_arcs(tr)
        self.probe_idle_io_cli(tr, path)
        # two pair passes per check: three over D, one over A[1,1]
        self.counts.update({
            "estimators.pairs": 6 * full_pairs(self.n) + 2 * square_pairs(self.n),
            "fbm.paths": 1,
        })


# --- local_time -------------------------------------------------------------


class LocalTime(Workload):
    """Histogram local-time route beside the direct far-field alpha_eps."""

    name = "local_time"
    item_unit = "paths"
    H, EPS, BIN, GAP = 0.5, 2e-5, 0.02, 5e-2

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 4096   # below this the two routes drift apart by up to the 5% gap
        self.m = Mollifier(self.EPS)
        self.last_path = None

    def warm_up(self):
        ref = self.reference["local_time"]
        path = generate_path(self.H, 1.0, ref["n_steps"], ref["seed"])
        got = alpha_eps(path, 0.0, self.m).value
        alpha_via_local_time(local_time(path, bin_width=self.BIN), 0.0)
        want = ref["alpha_eps"] * (1.0 + 1e-6 if self.perturb else 1.0)
        return [("recorded alpha_eps reference",
                 math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want))]

    def pass_items(self, k, tr):
        seed = self.base + k

        def run():
            with tr.span("fbm.generate_path"):
                path = generate_path(self.H, 1.0, self.n, seed)
            self.last_path = path
            with tr.span("estimators.local_time"):
                profile = local_time(path, bin_width=self.BIN)
            via = alpha_via_local_time(profile, 0.0)
            with tr.span("estimators.pair_sum", work=full_pairs(self.n)):
                direct = alpha_eps(path, 0.0, self.m).value
            return via, direct

        def check(out):
            via, direct = out
            return math.isfinite(direct) and abs(via - direct) / direct < self.GAP

        return [(f"path {seed}", run, check)]

    def probe(self, tr):
        path = self.last_path
        probe_f_eps(self, tr, path, 0.0, self.m)
        self.probe_idle_regularity(tr, self.H)
        self.probe_idle_expectation(tr, self.H)
        self.probe_idle_arcs(tr)
        self.probe_idle_io_cli(tr, path)
        self.counts.update({
            "estimators.pairs": full_pairs(self.n),
            "fbm.paths": 1,
        })


WORKLOADS = {w.name: w for w in (Occupation, LocalTime)}
