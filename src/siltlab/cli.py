"""Command-line interface: simulation, estimation, oracles, and checks.

Every subcommand validates its configuration up front (exit 2 with
per-field diagnostics on stderr), writes schema-tagged CSV/JSON outputs
plus a manifest into its output directory, and exits 3 with a
machine-readable error record if the numerics themselves fail.  All
parameters can come from a flat key=value config file (--config), be
overridden with --set KEY=VALUE, or be given as flags; flags win.
Default output root: $SILTLAB_OUTPUT_ROOT, else ./siltlab-out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io
from .arcs import (
    PairConfiguration,
    build_spanning_sets,
    classify_gaps,
    compute_u_vectors,
    connected_components,
    convergence_exponents,
    enumerate_configurations,
    enumerate_m_assignments,
    find_free_variables,
    find_isolated_intervals,
    relabeling_classes,
    verify_span,
)
from .estimators import (
    alpha_eps,
    alpha_prime_eps,
    alpha_tilde_prime_eps,
    alpha_time_profile,
    dyadic_square,
    epsilon_extrapolate,
    full_triangle,
    offset_triangle,
    profile_index,
)
from .expectation import (
    QuadratureError,
    asymptotic_constant,
    mean_alpha_prime,
    mean_alpha_prime_eps,
    regime_classify,
)
from .fbm import _MAX_SEED, SynthesisError, generate_path
from .mollifier import Mollifier
from .regularity import (
    TestFunction,
    continuity_probe_at_zero,
    holder_exponent_estimate,
    occupation_check_alpha,
    occupation_check_derivative,
)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Invalid run configuration, carrying per-field diagnostics."""

    def __init__(self, problems):
        self.problems = [(str(f), str(m)) for f, m in problems]
        super().__init__("; ".join(f"{f}: {m}" for f, m in self.problems))


# ---------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class Field:
    """One typed configuration key: parser, default, validity check."""

    name: str
    parse: object
    default: object = None
    required: bool = False
    check: object = None
    help: str = ""


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {s.strip()!r}")
    return v


def _int(s):
    return int(s, 10)


def _bool(s):
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {s!r}")


def _floats(s):
    s = s.strip()
    if not s:
        return []
    return [_float(tok) for tok in s.split(",")]


def _str(s):
    return s


def _choice(*options):
    def parse(s):
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return s

    return parse


def _positive(v):
    return None if v > 0 else "must be positive"


def _nonnegative(v):
    return None if v >= 0 else "must be nonnegative"


def _open01(v):
    return None if 0.0 < v < 1.0 else "must lie in (0, 1)"


def _seed_ok(v):
    return None if 0 <= v < _MAX_SEED else "must lie in [0, 2^64)"


def _at_least(k):
    return lambda v: None if v >= k else f"must be at least {k}"


def resolve_config(ns, fields) -> dict:
    """Merge config file, --set overrides, and flags; validate everything.

    Precedence: defaults < config file < --set < explicit flags.  Raises
    ConfigError listing every problem at once.
    """
    by_name = {f.name: f for f in fields}
    problems = []
    raw = {}

    if getattr(ns, "config", None):
        try:
            raw.update(io.load_config(ns.config))
        except (OSError, ValueError) as exc:
            problems.append(("config", str(exc)))
    for item in getattr(ns, "set", None) or []:
        try:
            key, value = io.parse_override(item)
            raw[key] = value
        except ValueError as exc:
            problems.append(("set", str(exc)))
    for key in raw:
        if key not in by_name and key != "output":
            problems.append((key, "unknown configuration key"))

    cfg = {}
    for f in fields:
        text = raw.get(f.name)
        flag = getattr(ns, f.name.replace("-", "_"), None)
        if flag is not None:
            text = flag
        if text is None:
            if f.required:
                problems.append((f.name, "required"))
            else:
                cfg[f.name] = f.default
            continue
        try:
            value = f.parse(text)
        except ValueError as exc:
            problems.append((f.name, str(exc)))
            continue
        if f.check is not None:
            message = f.check(value)
            if message is not None:
                problems.append((f.name, message))
                continue
        cfg[f.name] = value

    output = getattr(ns, "output", None) or raw.get("output")
    cfg["output"] = output
    if problems:
        raise ConfigError(problems)
    return cfg


def _emit_config_error(exc: ConfigError) -> int:
    for field, message in exc.problems:
        print(f"config error: {field}: {message}", file=sys.stderr)
    record = {"error": "invalid-config", "fields": dict(exc.problems)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 2


def _emit_numerical_error(exc: Exception) -> int:
    record = {
        "error": "numerical-failure",
        "type": type(exc).__name__,
        "message": str(exc),
    }
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return 3


def _run(command: str, ns) -> int:
    try:
        cfg = resolve_config(ns, ns.fields)
    except ConfigError as exc:
        return _emit_config_error(exc)
    outdir = Path(cfg["output"]) if cfg["output"] else io.output_root() / command
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        outputs = ns.compute(cfg, outdir)
    except ConfigError as exc:
        return _emit_config_error(exc)
    except (SynthesisError, QuadratureError, ArithmeticError) as exc:
        return _emit_numerical_error(exc)
    except ValueError as exc:
        return _emit_config_error(ConfigError([("parameters", str(exc))]))
    manifest = io.write_manifest(outdir, command, cfg, outputs)
    print(f"manifest: {manifest}")
    return 0


# ---------------------------------------------------------------------------
# shared field definitions and helpers

_F_H = Field("H", _float, required=True, check=_open01, help="Hurst parameter in (0, 1)")
_F_T = Field("t", _float, default=1.0, check=_positive, help="time horizon")
_F_NSTEPS = Field("n-steps", _int, default=1024, check=_at_least(1), help="grid steps")
_F_SEED = Field("seed", _int, default=0, check=_seed_ok, help="base RNG seed")
_F_EPS = Field("epsilon", _float, default=0.01, check=_positive, help="mollifier width")
_F_REPL = Field("replicates", _int, default=1, check=_at_least(1),
                help="independent paths, seeds base..base+r-1")


def _parse_region(spec: str, horizon: float):
    """Region spec: D | D_kappa:<kappa> | A:<j>,<k>."""
    try:
        if spec == "D":
            return full_triangle(horizon)
        if spec.startswith("D_kappa:"):
            return offset_triangle(horizon, float(spec.split(":", 1)[1]))
        if spec.startswith("A:"):
            j_text, k_text = spec.split(":", 1)[1].split(",")
            region = dyadic_square(int(j_text), int(k_text))
            if region.max_time > horizon + 1e-12:
                raise ValueError(f"region extends to {region.max_time:g} "
                                 f"but the horizon is {horizon:g}")
            return region
    except ValueError as exc:
        raise ConfigError([("region", str(exc))]) from exc
    raise ConfigError([("region", f"unrecognized region spec {spec!r}")])


_ESTIMATORS = {
    "alpha": alpha_eps,
    "alpha_hat_prime": alpha_prime_eps,
    "alpha_tilde_prime": alpha_tilde_prime_eps,
}


# ---------------------------------------------------------------------------
# simulate

_SIMULATE_FIELDS = (
    _F_H, _F_T, _F_NSTEPS, _F_SEED,
    Field("method", _choice("circulant", "cholesky"), default="circulant",
          help="synthesis method"),
)


def _compute_simulate(cfg, outdir):
    path = generate_path(cfg["H"], cfg["t"], cfg["n-steps"], cfg["seed"],
                         method=cfg["method"])
    rows = list(zip(path.times, path.values))
    out = io.write_csv(outdir / "path.csv", "path", ("time", "value"), rows)
    print(f"wrote {out} ({len(rows)} samples, H={cfg['H']:g}, seed={cfg['seed']})")
    return [out]


# ---------------------------------------------------------------------------
# estimate

_ESTIMATE_FIELDS = (
    Field("kind", _choice("alpha", "alpha_hat_prime", "alpha_tilde_prime"),
          default="alpha_hat_prime", help="estimator"),
    _F_H, _F_T, _F_NSTEPS, _F_SEED, _F_REPL,
    Field("y", _float, default=0.0, help="spatial offset"),
    _F_EPS,
    Field("ladder", _floats, default=[],
          help="comma-separated epsilon ladder; >= 3 values adds an "
               "extrapolated epsilon=0 row"),
    Field("region", _str, default="D", help="D | D_kappa:<kappa> | A:<j>,<k>"),
)


def _compute_estimate(cfg, outdir):
    region_spec = cfg["region"]
    kind = cfg["kind"]
    if kind == "alpha_tilde_prime" and region_spec != "D":
        raise ConfigError([("region", "kernel-weighted estimator is defined "
                            "on the full triangle only")])
    region = _parse_region(region_spec, cfg["t"])
    ladder = sorted(set(cfg["ladder"]), reverse=True)
    if cfg["ladder"] and len(ladder) != len(cfg["ladder"]):
        raise ConfigError([("ladder", "epsilon values must be distinct")])
    if any(e <= 0 for e in ladder):
        raise ConfigError([("ladder", "epsilon values must be positive")])
    eps_list = ladder or [cfg["epsilon"]]

    estimator = _ESTIMATORS[kind]
    rows = []
    last = None
    for k in range(cfg["replicates"]):
        path = generate_path(cfg["H"], cfg["t"], cfg["n-steps"], cfg["seed"] + k)
        per_eps = []
        for eps in eps_list:
            m = Mollifier(eps)
            if kind == "alpha_tilde_prime":
                est = estimator(path, cfg["y"], m)
            else:
                est = estimator(path, cfg["y"], m, region)
            per_eps.append(est)
            rows.append(io.estimate_to_row(est))
            last = est
        if len(per_eps) >= 3:
            extrapolated = epsilon_extrapolate(per_eps)
            rows.append(io.estimate_to_row(extrapolated))
            last = extrapolated
    out = io.write_csv(outdir / "estimates.csv", "estimate",
                       io.ESTIMATE_COLUMNS, rows)
    if len(rows) == 1:
        print(f"value = {io.format_float(last.value)}")
    else:
        print(f"wrote {out} ({len(rows)} rows)")
        if last is not None and last.epsilon == 0.0:
            print(f"latest extrapolated value = {io.format_float(last.value)} "
                  f"(converged={last.converged})")
    return [out]


# ---------------------------------------------------------------------------
# expectation

_EXPECTATION_FIELDS = (
    _F_H, _F_T,
    Field("y", _float, required=True, help="spatial offset"),
    Field("epsilon", _float, default=0.0, check=_nonnegative,
          help="mollifier width; 0 = sharp limit"),
)


def _compute_expectation(cfg, outdir):
    h, t, y, eps = cfg["H"], cfg["t"], cfg["y"], cfg["epsilon"]
    if eps == 0.0:
        res = mean_alpha_prime(t, y, h)
    else:
        res = mean_alpha_prime_eps(t, y, eps, h)
    regime = regime_classify(h).regime if h < 2.0 / 3.0 else ""
    rows = [(h, t, y, eps, res.value, res.abs_error_estimate, regime)]
    out = io.write_csv(outdir / "expectation.csv", "expectation",
                       ("H", "t", "y", "epsilon", "value", "abs_error", "regime"),
                       rows)
    print(f"value = {io.format_float(res.value)}")
    if y != 0.0:
        print(f"value/y = {io.format_float(res.value / y)}")
    return [out]


# ---------------------------------------------------------------------------
# asymptotics

_ASYMPTOTICS_FIELDS = (_F_H, _F_T)


def _compute_asymptotics(cfg, outdir):
    h, t = cfg["H"], cfg["t"]
    if not h < 2.0 / 3.0:
        raise ConfigError([("H", "small-y regimes are classified for H < 2/3")])
    regime = asymptotic_constant(t, h)
    continuous = regime_classify(h).continuous_at_zero
    rows = [(h, t, regime.regime, regime.scaling, regime.constant, continuous)]
    out = io.write_csv(outdir / "asymptotics.csv", "asymptotics",
                       ("H", "t", "regime", "scaling", "constant",
                        "continuous_at_zero"), rows)
    print(f"regime = {regime.regime}; value ~ constant * {regime.scaling}")
    print(f"constant = {io.format_float(regime.constant)}")
    print(f"continuous at y=0: {continuous}")
    return [out]


# ---------------------------------------------------------------------------
# occupation-check

_OCCUPATION_FIELDS = (
    _F_H, _F_T,
    Field("n-steps", _int, default=4096, check=_at_least(2), help="grid steps"),
    _F_SEED, _F_REPL, _F_EPS,
    Field("check", _choice("alpha", "derivative", "both"), default="both",
          help="which identity to test"),
    Field("test-fn", _choice("gaussian", "constant", "cutoff"),
          default="gaussian", help="test function g"),
    Field("region", _str, default="D", help="D | D_kappa:<kappa> | A:<j>,<k>"),
    Field("tolerance", _float, default=1e-2, check=_positive,
          help="relative residual threshold"),
)

_TEST_FNS = {
    "gaussian": lambda: TestFunction.gaussian(0.0, 1.0),
    "constant": lambda: TestFunction.cosine(0.0),
    "cutoff": lambda: TestFunction.polynomial_cutoff(2.0),
}


def _occupation_grid(path, eps):
    """y-grid covering the pair differences with a mollifier-width margin."""
    span = float(path.values.max() - path.values.min())
    pad = 6.0 * math.sqrt(eps) + 0.05 * (span + 1.0)
    lo, hi = -span - pad, span + pad
    n = min(4097, max(161, int((hi - lo) / 0.025) + 1))
    return np.linspace(lo, hi, n)


def _compute_occupation(cfg, outdir):
    region = _parse_region(cfg["region"], cfg["t"])
    g = _TEST_FNS[cfg["test-fn"]]()
    m = Mollifier(cfg["epsilon"])
    checks = ("alpha", "derivative") if cfg["check"] == "both" else (cfg["check"],)
    rows, summary = [], []
    for k in range(cfg["replicates"]):
        seed = cfg["seed"] + k
        path = generate_path(cfg["H"], cfg["t"], cfg["n-steps"], seed)
        y_grid = _occupation_grid(path, cfg["epsilon"])
        for check in checks:
            fn = occupation_check_alpha if check == "alpha" else occupation_check_derivative
            lhs, rhs = fn(path, g, y_grid, m, region)
            residual = abs(lhs - rhs) / max(abs(lhs), 1e-12)
            ok = residual < cfg["tolerance"]
            rows.append((check, cfg["H"], cfg["t"], cfg["n-steps"], seed,
                         cfg["epsilon"], region.label, lhs, rhs, residual, ok))
            summary.append({
                "check": check,
                "params": {"H": cfg["H"], "t": cfg["t"], "n_steps": cfg["n-steps"],
                           "seed": seed, "epsilon": cfg["epsilon"],
                           "test_fn": cfg["test-fn"], "region": region.label},
                "lhs": lhs, "rhs": rhs, "residual": residual, "pass": ok,
            })
    out_csv = io.write_csv(outdir / "occupation.csv", "occupation-check",
                           ("check", "H", "t", "n_steps", "seed", "epsilon",
                            "region_id", "lhs", "rhs", "residual", "pass"), rows)
    overall = all(item["pass"] for item in summary)
    out_json = io.write_json(outdir / "occupation.json", "occupation-check",
                             {"checks": summary, "pass": overall})
    for item in summary:
        print(f"{item['check']:<10} seed={item['params']['seed']:<4d} "
              f"residual={item['residual']:.3e} "
              f"{'pass' if item['pass'] else 'FAIL'}")
    print(f"overall: {'pass' if overall else 'FAIL'}")
    return [out_csv, out_json]


# ---------------------------------------------------------------------------
# holder

_HOLDER_FIELDS = (
    Field("kind", _choice("alpha", "alpha_hat_prime"), default="alpha",
          help="field to sample"),
    Field("axis", _choice("time", "space", "joint"), default="time",
          help="variation direction"),
    _F_H, _F_T, _F_NSTEPS,
    Field("replicates", _int, default=8, check=_at_least(2),
          help="independent paths"),
    _F_SEED, _F_EPS,
    Field("y", _float, default=0.0, help="offset (time axis) / grid center (space)"),
    Field("y-half-width", _float, default=1.0, check=_positive,
          help="space-axis grid half width"),
    # the structure-function fit needs 4 dyadic lags up to grid-points // 4
    Field("grid-points", _int, default=65, check=_at_least(64),
          help="points per estimated axis"),
)


def _holder_field(cfg):
    h, t, n = cfg["H"], cfg["t"], cfg["n-steps"]
    m = Mollifier(cfg["epsilon"])
    kind, axis = cfg["kind"], cfg["axis"]
    grid = cfg["grid-points"]
    if axis == "joint" and kind != "alpha":
        raise ConfigError([("axis", "joint estimation is implemented for "
                            "kind=alpha only")])
    # alpha's time axis and the joint axis sample the n + 1 profile points
    if n < 63 and (axis == "joint" or (axis, kind) == ("time", "alpha")):
        raise ConfigError([("n-steps", "must be at least 63: the fit needs "
                            "64 profile points")])
    paths = [generate_path(h, t, n, cfg["seed"] + k)
             for k in range(cfg["replicates"])]

    if axis == "time":
        samples = np.stack([alpha_time_profile(p, cfg["y"], m, kind != "alpha")
                            for p in paths])
        if kind == "alpha":
            return samples, t / n
        t_grid = np.linspace(t / grid, t, grid)
        return (samples[:, profile_index(paths[0], t_grid)],
                float(t_grid[1] - t_grid[0]))

    if axis == "space":
        y_grid = np.linspace(cfg["y"] - cfg["y-half-width"],
                             cfg["y"] + cfg["y-half-width"], grid)
        est = alpha_eps if kind == "alpha" else alpha_prime_eps
        samples = np.stack([[est(p, float(yy), m).value for yy in y_grid]
                            for p in paths])
        return samples, float(y_grid[1] - y_grid[0])

    y_grid = np.linspace(cfg["y"] - cfg["y-half-width"],
                         cfg["y"] + cfg["y-half-width"], grid)
    step = max(1, n // grid)
    samples = np.stack([
        np.stack([alpha_time_profile(p, float(yy), m)[::step] for yy in y_grid])
        for p in paths])
    return samples, 1.0


def _compute_holder(cfg, outdir):
    samples, spacing = _holder_field(cfg)
    bound_kind = "alpha" if cfg["kind"] == "alpha" else "alpha_hat_prime"
    report = holder_exponent_estimate(samples, cfg["axis"], cfg["H"],
                                      kind=bound_kind)
    fit_rows = [(math.log10(lag * spacing), math.log10(v))
                for lag, v in zip(report.regression_lags,
                                  report.mean_square_increments) if v > 0.0]
    out_fit = io.write_csv(outdir / "holder_fit.csv", "holder-fit",
                           ("log10_lag", "log10_mean_square_increment"),
                           fit_rows)
    payload = {
        "kind": cfg["kind"], "axis": report.axis, "H": cfg["H"],
        "t": cfg["t"], "n_steps": cfg["n-steps"],
        "replicates": cfg["replicates"], "epsilon": cfg["epsilon"],
        "estimated_exponent": report.estimated_exponent,
        "raw_slope": report.raw_slope,
        "r_squared": report.r_squared,
        "reliable": report.reliable,
        "theoretical_bound": report.theoretical_bound,
        "regression_lags": list(report.regression_lags),
    }
    out_json = io.write_json(outdir / "holder.json", "holder", payload)
    print(f"estimated exponent = {report.estimated_exponent:.4f} "
          f"(bound {report.theoretical_bound:.4f}, "
          f"r^2 = {report.r_squared:.4f}, reliable={report.reliable})")
    return [out_fit, out_json]


# ---------------------------------------------------------------------------
# probe-zero

_PROBE_FIELDS = (
    _F_H, _F_T, _F_NSTEPS,
    Field("replicates", _int, default=16, check=_at_least(2),
          help="independent paths"),
    _F_SEED, _F_EPS,
    Field("y-max", _float, default=0.5, check=_positive,
          help="half width of the symmetric y grid"),
    Field("grid-points", _int, default=11, check=_at_least(3),
          help="odd number of y grid points"),
)


def _compute_probe(cfg, outdir):
    if cfg["grid-points"] % 2 == 0:
        raise ConfigError([("grid-points", "must be odd so the grid is "
                            "symmetric about 0")])
    if not 0.5 < cfg["H"] < 2.0 / 3.0:
        raise ConfigError([("H", "the probe targets 1/2 < H < 2/3")])
    y_grid = np.linspace(-cfg["y-max"], cfg["y-max"], cfg["grid-points"])
    seeds = [cfg["seed"] + k for k in range(cfg["replicates"])]
    res = continuity_probe_at_zero(seeds, cfg["H"], y_grid,
                                   Mollifier(cfg["epsilon"]),
                                   t=cfg["t"], n_steps=cfg["n-steps"])
    columns = ("y", "mean", "variance", "oracle_mean",
               "renormalized_mean", "renormalized_variance")
    rows = list(zip(*(res[c] for c in columns)))
    out_csv = io.write_csv(outdir / "probe.csv", "probe-zero", columns, rows)
    i0 = cfg["grid-points"] // 2
    payload = {
        "H": cfg["H"], "t": cfg["t"], "n_steps": cfg["n-steps"],
        "epsilon": res["epsilon"], "n_seeds": res["n_seeds"],
        "mean_jump_estimate": float(res["mean"][i0 + 1] - res["mean"][i0 - 1]),
        "renormalized_jump_estimate": float(res["renormalized_mean"][i0 + 1]
                                            - res["renormalized_mean"][i0 - 1]),
    }
    out_json = io.write_json(outdir / "probe.json", "probe-zero", payload)
    print(f"raw mean jump across 0: {payload['mean_jump_estimate']:.4f}; "
          f"renormalized: {payload['renormalized_jump_estimate']:.4f}")
    return [out_csv, out_json]


# ---------------------------------------------------------------------------
# arcs

_ARCS_ANALYZE_FIELDS = (
    Field("word", _str, required=True,
          help="comma-separated endpoints, e.g. r1,r2,s2,s1"),
)


def _compute_arcs_analyze(cfg, outdir):
    try:
        c = PairConfiguration.from_string(cfg["word"])
    except ValueError as exc:
        raise ConfigError([("word", str(exc))]) from exc
    vectors = compute_u_vectors(c)
    s_free, r_free = find_free_variables(c)
    isolated = find_isolated_intervals(c)
    assignments = enumerate_m_assignments(c)
    payload = {
        "word": c.to_string(),
        "n": c.n,
        "u_vectors": [list(v.coefficients) for v in vectors],
        "gap_classes": list(classify_gaps(c)),
        "s_free": sorted(s_free),
        "r_free": sorted(r_free),
        "isolated": sorted(isolated),
        "components": [b.to_string() for b in connected_components(c)],
        "m_assignments": len(assignments),
        "u_vectors_span": verify_span(vectors, c.n),
    }
    if not isolated:
        results = [build_spanning_sets(c, m) for m in assignments]
        payload["spanning_all_m"] = all(r.success for r in results)
        payload["spanning_witness"] = {
            "m": list(assignments[0].m),
            "a_gaps": list(results[0].a_gaps),
            "b_gaps": list(results[0].b_gaps),
        }
    out = io.write_json(outdir / "arcs.json", "arcs-analyze", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return [out]


_ARCS_ENUMERATE_FIELDS = (
    Field("n", _int, required=True, check=_at_least(1), help="number of arcs (<= 5)"),
    Field("write-words", _bool, default=False,
          help="also write every word to words.csv"),
)


def _compute_arcs_enumerate(cfg, outdir):
    configs = enumerate_configurations(cfg["n"])
    classes = relabeling_classes(configs)
    payload = {
        "n": cfg["n"],
        "raw_count": len(configs),
        "class_count": len(classes),
    }
    outputs = [io.write_json(outdir / "enumeration.json", "arcs-enumerate", payload)]
    if cfg["write-words"]:
        rows = [(c.to_string(),) for c in configs]
        outputs.append(io.write_csv(outdir / "words.csv", "arcs-words",
                                    ("word",), rows))
    print(f"n={cfg['n']}: {len(configs)} raw words, "
          f"{len(classes)} relabeling classes")
    return outputs


_ARCS_EXPONENTS_FIELDS = (
    _F_H,
    Field("mode", _choice("y", "eps", "t"), default="y", help="variation mode"),
    Field("lam", _float, default=None, help="Holder order (y/eps modes)"),
    Field("gamma", _float, default=None, help="time order gamma = 1 - beta (t mode)"),
    Field("restricted", _bool, default=False,
          help="use the fixed-region thresholds"),
)


def _compute_arcs_exponents(cfg, outdir):
    report = convergence_exponents(cfg["H"], lam=cfg["lam"], gamma=cfg["gamma"],
                                   mode=cfg["mode"], restricted=cfg["restricted"])
    payload = {
        "H": cfg["H"], "mode": report.mode, "restricted": report.restricted,
        "lam": cfg["lam"], "gamma": cfg["gamma"],
        "d_value": report.d_value, "converges": report.converges,
    }
    out = io.write_json(outdir / "exponents.json", "arcs-exponents", payload)
    print(f"d = {report.d_value:.6f} -> "
          f"{'converges' if report.converges else 'diverges'}")
    return [out]


# ---------------------------------------------------------------------------
# sweep

_SWEEP_FIELDS = (
    Field("kind", _choice("alpha", "alpha_hat_prime", "alpha_tilde_prime"),
          default="alpha_hat_prime", help="estimator"),
    Field("H-grid", _floats, default=[], help="comma-separated Hurst values"),
    _F_T, _F_NSTEPS,
    Field("y", _float, default=0.5, help="spatial offset (fixed)"),
    Field("y-grid", _floats, default=[],
          help="optional comma-separated y values (crossed with H-grid)"),
    _F_EPS, _F_SEED,
    Field("replicates", _int, default=10, check=_at_least(1),
          help="seeds per grid point"),
    Field("budget", _int, default=10000, check=_at_least(1),
          help="maximum grid x replicate tasks"),
    Field("workers", _int, default=0, check=_nonnegative,
          help="worker processes (0 = all cores)"),
)

_SWEEP_COLUMNS = ("record", "kind", "H", "t", "n_steps", "seed", "y", "epsilon",
                  "region_id", "value", "n", "mean", "variance",
                  "ci_low", "ci_high")


def _sweep_eval(task):
    kind, h, t, n, seed, y, eps = task
    path = generate_path(h, t, n, seed)
    return _ESTIMATORS[kind](path, y, Mollifier(eps)).value


def _compute_sweep(cfg, outdir):
    for h in cfg["H-grid"]:
        if not 0.0 < h < 1.0:
            raise ConfigError([("H-grid", f"H={h:g} outside (0, 1)")])
    grid = [(h, y) for h in cfg["H-grid"]
            for y in (cfg["y-grid"] or [cfg["y"]])]
    n_tasks = len(grid) * cfg["replicates"]
    if n_tasks > cfg["budget"]:
        raise ConfigError([("budget", f"{n_tasks} tasks exceed the budget "
                            f"of {cfg['budget']}; nothing was run")])

    t, n, eps, kind = cfg["t"], cfg["n-steps"], cfg["epsilon"], cfg["kind"]
    tasks = [(kind, h, t, n, cfg["seed"] + k, y, eps)
             for (h, y) in grid for k in range(cfg["replicates"])]
    workers = cfg["workers"] or os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_sweep_eval, tasks, chunksize=8))
    else:
        values = [_sweep_eval(task) for task in tasks]

    region_label = full_triangle(t).label
    rows = []
    for gi, (h, y) in enumerate(grid):
        block = values[gi * cfg["replicates"]:(gi + 1) * cfg["replicates"]]
        for k, value in enumerate(block):
            rows.append(("sample", kind, h, t, n, cfg["seed"] + k, y, eps,
                         region_label, value, None, None, None, None, None))
        count = len(block)
        mean = float(np.mean(block))
        if count > 1:
            variance = float(np.var(block, ddof=1))
            half = 1.96 * math.sqrt(variance / count)
            ci_low, ci_high = mean - half, mean + half
        else:
            variance = ci_low = ci_high = None
        rows.append(("aggregate", kind, h, t, n, None, y, eps, region_label,
                     None, count, mean, variance, ci_low, ci_high))
    out = io.write_csv(outdir / "sweep.csv", "sweep", _SWEEP_COLUMNS, rows)
    print(f"{len(grid)} grid points x {cfg['replicates']} replicates "
          f"-> {len(rows)} rows in {out}")
    return [out]


# ---------------------------------------------------------------------------
# parser assembly


def _add_command(subparsers, name, fields, compute, help_text):
    sub = subparsers.add_parser(name, help=help_text)
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one configuration key")
    sub.add_argument("--output", help="output directory "
                     "(default: $SILTLAB_OUTPUT_ROOT/<command>)")
    for f in fields:
        sub.add_argument(f"--{f.name}", dest=f.name.replace("-", "_"),
                         help=f.help + ("" if f.default is None
                                        else f" (default {io.format_value(f.default)})"))
    sub.set_defaults(fields=fields, compute=compute, command=name)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siltlab",
        description="fractional Brownian motion and self-intersection "
                    "local time toolkit")
    parser.add_argument("--version", action="version",
                        version=f"siltlab {__version__}")
    subparsers = parser.add_subparsers(dest="top_command", required=True)

    _add_command(subparsers, "simulate", _SIMULATE_FIELDS, _compute_simulate,
                 "synthesize one fBm path to CSV")
    _add_command(subparsers, "estimate", _ESTIMATE_FIELDS, _compute_estimate,
                 "evaluate a pathwise estimator (with optional epsilon ladder)")
    _add_command(subparsers, "expectation", _EXPECTATION_FIELDS,
                 _compute_expectation, "exact expectation of the derivative estimator")
    _add_command(subparsers, "asymptotics", _ASYMPTOTICS_FIELDS,
                 _compute_asymptotics, "small-y regime classification and constant")
    _add_command(subparsers, "occupation-check", _OCCUPATION_FIELDS,
                 _compute_occupation, "verify the occupation-time identities")
    _add_command(subparsers, "holder", _HOLDER_FIELDS, _compute_holder,
                 "structure-function Holder exponent of a sampled field")
    _add_command(subparsers, "probe-zero", _PROBE_FIELDS, _compute_probe,
                 "ensemble behavior of the derivative estimator across y=0")

    arcs = subparsers.add_parser("arcs", help="arc-diagram combinatorics")
    arcs_sub = arcs.add_subparsers(dest="arcs_command", required=True)
    _add_command(arcs_sub, "analyze", _ARCS_ANALYZE_FIELDS,
                 _compute_arcs_analyze, "full analysis of one word")
    _add_command(arcs_sub, "enumerate", _ARCS_ENUMERATE_FIELDS,
                 _compute_arcs_enumerate, "enumerate configurations")
    _add_command(arcs_sub, "exponents", _ARCS_EXPONENTS_FIELDS,
                 _compute_arcs_exponents, "evaluate a convergence threshold")

    _add_command(subparsers, "sweep", _SWEEP_FIELDS, _compute_sweep,
                 "seeded Cartesian parameter sweep with aggregation")
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    command = ns.command
    if getattr(ns, "arcs_command", None):
        command = f"arcs-{ns.arcs_command}"
    return _run(command, ns)


if __name__ == "__main__":
    sys.exit(main())
