"""End-to-end tests of the command-line interface.

Tests cover:
  1. Configuration handling: file + override + flag precedence, unknown
     keys, non-finite numbers, per-field diagnostics on exit code 2.
  2. Output discipline: schema-tagged CSV, manifest checksums,
     byte-identical reruns, the output-root environment variable.
  3. Each subcommand end to end on small workloads, including the
     machine-readable numerical-failure record (exit code 3).
  4. The sweep driver: task layout, aggregation, budget refusal, and the
     empty-grid edge case.

All invocations run in-process through main(argv).
"""

import hashlib
import json
import math

import numpy as np
import pytest

from siltlab.cli import main
from siltlab.estimators import (
    alpha_eps,
    alpha_prime_eps,
    alpha_time_profile,
    full_triangle,
)
from siltlab.expectation import mean_alpha_prime
from siltlab.fbm import generate_path
from siltlab.io import read_csv
from siltlab.mollifier import Mollifier
from siltlab.regularity import holder_exponent_estimate


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _last_json(err: str) -> dict:
    lines = [line for line in err.strip().splitlines() if line]
    return json.loads(lines[-1])


@pytest.fixture(autouse=True)
def _isolated_output(tmp_path, monkeypatch):
    monkeypatch.setenv("SILTLAB_OUTPUT_ROOT", str(tmp_path / "root"))
    return tmp_path


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

class TestConfiguration:
    """Merge precedence and failure diagnostics."""

    def test_invalid_values_exit_2_with_diagnostics(self, tmp_path, capsys):
        rc = main(["simulate", "--H", "1.5", "--n-steps", "0",
                   "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error: H: must lie in (0, 1)" in err
        assert "config error: n-steps: must be at least 1" in err
        record = _last_json(err)
        assert record["error"] == "invalid-config"
        assert set(record["fields"]) == {"H", "n-steps"}

    def test_missing_required_key(self, tmp_path, capsys):
        rc = main(["simulate", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert _last_json(capsys.readouterr().err)["fields"] == {"H": "required"}

    def test_unknown_config_key(self, tmp_path, capsys):
        rc = main(["simulate", "--H", "0.5", "--set", "hirst=0.5",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "hirst" in _last_json(capsys.readouterr().err)["fields"]

    def test_precedence_file_then_set_then_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# base settings\nH=0.5\nseed=5\nn-steps=64\n")
        out = tmp_path / "o"
        rc = main(["simulate", "--config", str(cfg), "--set", "seed=9",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == "9", "--set beats the file"
        assert manifest["config"]["n-steps"] == "64"

        rc = main(["simulate", "--config", str(cfg), "--set", "seed=9",
                   "--seed", "11", "--output", str(tmp_path / "o2")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == "11", "the flag beats --set"

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("H 0.5\n")
        rc = main(["simulate", "--config", str(cfg),
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "config" in _last_json(capsys.readouterr().err)["fields"]

    @pytest.mark.parametrize("argv,field", [
        (["estimate", "--H", "0.5", "--y", "nan"], "y"),
        (["estimate", "--H", "0.5", "--epsilon", "inf"], "epsilon"),
        (["simulate", "--H", "0.5", "--t", "inf"], "t"),
        (["sweep", "--H-grid", "0.5", "--y", "nan", "--workers", "1"], "y"),
        (["sweep", "--H-grid", "0.5,-inf", "--workers", "1"], "H-grid"),
    ], ids=["estimate-y-nan", "estimate-epsilon-inf", "simulate-t-inf",
            "sweep-y-nan", "sweep-H-grid-minus-inf"])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, argv, field):
        out = tmp_path / "o"
        rc = main(argv + ["--output", str(out)])
        record = _last_json(capsys.readouterr().err)
        assert rc == 2
        assert record["error"] == "invalid-config"
        assert "must be finite" in record["fields"][field]
        assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# output discipline
# ---------------------------------------------------------------------------

class TestOutputs:
    """Schema tags, manifests, reproducibility, output root."""

    def test_schema_line_and_manifest_checksums(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main(["simulate", "--H", "0.5", "--n-steps", "64",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        first = (out / "path.csv").read_text().splitlines()[0]
        assert first == "# schema=siltlab/path/1"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "siltlab/manifest/1"
        (entry,) = manifest["outputs"]
        assert entry["path"] == "path.csv"
        assert entry["sha256"] == _sha256(out / "path.csv")
        assert entry["bytes"] == (out / "path.csv").stat().st_size

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["simulate", "--H", "0.35", "--n-steps", "128", "--seed", "7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert _sha256(a / "path.csv") == _sha256(b / "path.csv")

    def test_output_root_env_var(self, tmp_path, capsys):
        rc = main(["simulate", "--H", "0.5", "--n-steps", "32"])
        assert rc == 0, capsys.readouterr().err
        assert (tmp_path / "root" / "simulate" / "path.csv").exists()
        assert (tmp_path / "root" / "simulate" / "manifest.json").exists()

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        rc = main(["simulate", "--H", "0.5", "--n-steps", "8192",
                   "--method", "cholesky", "--output", str(tmp_path / "o")])
        assert rc == 3
        record = _last_json(capsys.readouterr().err)
        assert record["error"] == "numerical-failure"
        assert record["type"] == "SynthesisError"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class TestSimulate:
    """Path synthesis output shape."""

    def test_row_count_and_columns(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--H", "0.4", "--n-steps", "64",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        schema, rows = read_csv(out / "path.csv")
        assert schema == "siltlab/path/1"
        assert len(rows) == 65
        assert rows[0] == {"time": "0", "value": "0"}
        assert float(rows[-1]["time"]) == pytest.approx(1.0)


class TestEstimate:
    """Pathwise estimator evaluation and the epsilon ladder."""

    def test_ladder_appends_extrapolated_row(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["estimate", "--kind", "alpha_hat_prime", "--H", "0.3",
                   "--n-steps", "256", "--seed", "42", "--y", "0.5",
                   "--ladder", "0.04,0.02,0.01", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "estimates.csv")
        assert len(rows) == 4
        assert [float(r["epsilon"]) for r in rows] == [0.04, 0.02, 0.01, 0.0]
        assert all(r["kind"] == "alpha_hat_prime" for r in rows)
        assert rows[3]["converged"] in ("true", "false")
        assert rows[0]["converged"] == ""

    def test_single_evaluation_prints_value(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["estimate", "--kind", "alpha", "--H", "0.5",
                   "--n-steps", "128", "--y", "0.2", "--epsilon", "0.01",
                   "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "value = " in stdout
        _, rows = read_csv(out / "estimates.csv")
        assert len(rows) == 1 and rows[0]["region_id"] == "D[1]"

    def test_kernel_variant_restricted_to_full_triangle(self, tmp_path, capsys):
        rc = main(["estimate", "--kind", "alpha_tilde_prime", "--H", "0.5",
                   "--region", "A:1,1", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "region" in _last_json(capsys.readouterr().err)["fields"]

    def test_bad_region_spec(self, tmp_path, capsys):
        rc = main(["estimate", "--kind", "alpha", "--H", "0.5",
                   "--region", "B:1,1", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "region" in _last_json(capsys.readouterr().err)["fields"]


class TestExpectation:
    """Closed quadrature of the derivative mean."""

    def test_matches_library_value(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["expectation", "--H", "0.3", "--y", "0.4",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "expectation.csv")
        assert len(rows) == 1
        want = mean_alpha_prime(1.0, 0.4, 0.3).value
        assert float(rows[0]["value"]) == want
        assert rows[0]["regime"] == "subcritical"

    def test_reports_value_over_y(self, tmp_path, capsys):
        rc = main(["expectation", "--H", "0.5", "--y", "1e-4",
                   "--output", str(tmp_path / "o")])
        assert rc == 0
        assert "value/y = " in capsys.readouterr().out


class TestAsymptotics:
    """Small-offset regime classification."""

    def test_supercritical_constant_is_minus_t(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["asymptotics", "--H", "0.5", "--t", "2.0",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "asymptotics.csv")
        assert rows[0]["regime"] == "supercritical"
        assert float(rows[0]["constant"]) == pytest.approx(-2.0, rel=1e-12)
        assert rows[0]["continuous_at_zero"] == "false"

    def test_rejects_large_hurst(self, tmp_path, capsys):
        rc = main(["asymptotics", "--H", "0.7", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "H" in _last_json(capsys.readouterr().err)["fields"]


class TestOccupationCheck:
    """Occupation-identity verification summary."""

    def test_summary_json(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["occupation-check", "--H", "0.5", "--n-steps", "1024",
                   "--epsilon", "0.02", "--check", "alpha",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        summary = json.loads((out / "occupation.json").read_text())
        assert isinstance(summary["pass"], bool)
        (item,) = summary["checks"]
        assert item["check"] == "alpha"
        assert item["residual"] == abs(item["lhs"] - item["rhs"]) / abs(item["lhs"])
        _, rows = read_csv(out / "occupation.csv")
        assert len(rows) == 1 and rows[0]["check"] == "alpha"

    def test_failing_residual_keeps_exit_0(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["occupation-check", "--H", "0.5", "--n-steps", "128",
                   "--epsilon", "0.02", "--check", "derivative",
                   "--tolerance", "1e-9", "--output", str(out)])
        assert rc == 0, "a failed identity is a finding, not a crash"
        assert "FAIL" in capsys.readouterr().out
        assert json.loads((out / "occupation.json").read_text())["pass"] is False


class TestHolder:
    """Structure-function regression outputs."""

    def test_time_axis_outputs(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["holder", "--kind", "alpha", "--axis", "time",
                   "--H", "0.5", "--n-steps", "256", "--replicates", "2",
                   "--epsilon", "0.02", "--y", "0.1", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((out / "holder.json").read_text())
        assert 0.0 <= report["estimated_exponent"] <= 1.0
        assert report["theoretical_bound"] == 0.5
        _, rows = read_csv(out / "holder_fit.csv")
        assert len(rows) == len(report["regression_lags"])

    def test_derivative_time_axis_matches_per_t_loop(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["holder", "--kind", "alpha_hat_prime", "--axis", "time",
                   "--H", "0.4", "--t", "1.0", "--n-steps", "256",
                   "--replicates", "3", "--seed", "11", "--epsilon", "0.02",
                   "--y", "0.1", "--grid-points", "65", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        m = Mollifier(0.02)
        t_grid = np.linspace(1.0 / 65, 1.0, 65)
        samples = np.array([
            [alpha_prime_eps(generate_path(0.4, 1.0, 256, 11 + k), 0.1, m,
                             full_triangle(tj)).value for tj in t_grid]
            for k in range(3)])
        want = holder_exponent_estimate(samples, "time", 0.4, kind="alpha_hat_prime")
        report = json.loads((out / "holder.json").read_text())
        assert report["estimated_exponent"] == want.estimated_exponent
        # holder_fit.csv rows are the report's mean-square increments
        spacing = t_grid[1] - t_grid[0]
        _, rows = read_csv(out / "holder_fit.csv")
        got = [(float(r["log10_lag"]), float(r["log10_mean_square_increment"]))
               for r in rows]
        assert got == [(math.log10(lag * spacing), math.log10(v))
                       for lag, v in zip(want.regression_lags,
                                         want.mean_square_increments)]

    def test_space_axis_runs_at_default_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["holder", "--axis", "space", "--H", "0.5", "--n-steps", "128",
                   "--replicates", "2", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        assert len(json.loads((out / "holder.json").read_text())
                   ["regression_lags"]) >= 4

    def test_too_few_grid_points_rejected(self, tmp_path, capsys):
        rc = main(["holder", "--axis", "space", "--H", "0.5", "--n-steps", "128",
                   "--replicates", "2", "--grid-points", "33",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "grid-points" in _last_json(capsys.readouterr().err)["fields"]
        assert not (tmp_path / "o").exists()

    def test_joint_axis_needs_alpha(self, tmp_path, capsys):
        rc = main(["holder", "--kind", "alpha_hat_prime", "--axis", "joint",
                   "--H", "0.5", "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "axis" in _last_json(capsys.readouterr().err)["fields"]

    @pytest.mark.parametrize("kind, axis, field", [
        ("alpha", "time", "n-steps"),
        ("alpha", "joint", "n-steps"),
        ("alpha_hat_prime", "joint", "axis"),
    ])
    @pytest.mark.parametrize("n_steps", ["32", "62"])
    def test_short_profile_rejected_before_synthesis(self, tmp_path, capsys,
                                                     monkeypatch, kind, axis,
                                                     field, n_steps):
        def no_paths(*args, **kwargs):
            raise AssertionError("a path was generated")

        monkeypatch.setattr("siltlab.cli.generate_path", no_paths)
        rc = main(["holder", "--kind", kind, "--axis", axis, "--H", "0.5",
                   "--n-steps", n_steps, "--replicates", "2",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert list(_last_json(capsys.readouterr().err)["fields"]) == [field]

    @pytest.mark.parametrize("axis", ["time", "joint"])
    def test_shortest_profile_runs(self, tmp_path, capsys, axis):
        rc = main(["holder", "--axis", axis, "--H", "0.5", "--n-steps", "63",
                   "--replicates", "2", "--output", str(tmp_path / "o")])
        assert rc == 0, capsys.readouterr().err

    @pytest.mark.parametrize("kind, axis", [("alpha", "space"),
                                            ("alpha_hat_prime", "space"),
                                            ("alpha", "joint")])
    def test_y_axes_equal_per_y_loop(self, tmp_path, capsys, monkeypatch,
                                     kind, axis):
        seen = []

        def record(samples, *args, **kwargs):
            seen.append(samples)
            return holder_exponent_estimate(samples, *args, **kwargs)

        monkeypatch.setattr("siltlab.cli.holder_exponent_estimate", record)
        rc = main(["holder", "--kind", kind, "--axis", axis, "--H", "0.4",
                   "--n-steps", "200", "--replicates", "2", "--seed", "5",
                   "--epsilon", "0.02", "--y", "0.1", "--y-half-width", "0.5",
                   "--output", str(tmp_path / "o")])
        assert rc == 0, capsys.readouterr().err
        m = Mollifier(0.02)
        y_grid = np.linspace(-0.4, 0.6, 65)
        paths = [generate_path(0.4, 1.0, 200, 5 + k) for k in range(2)]
        if axis == "space":
            est = alpha_eps if kind == "alpha" else alpha_prime_eps
            want = [[est(p, float(y), m).value for y in y_grid] for p in paths]
        else:
            # every 200 // 65 = 3rd profile point
            want = [[alpha_time_profile(p, float(y), m)[::3] for y in y_grid]
                    for p in paths]
        (got,) = seen
        assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64))


class TestNonFiniteResults:
    """A result that is not finite exits 3 with a numerical-failure record."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on purpose
    @pytest.mark.parametrize("argv", [
        ["estimate", "--kind", "alpha", "--H", "0.5", "--t", "1e300",
         "--n-steps", "64"],
        ["estimate", "--H", "0.5", "--epsilon", "1e-320", "--n-steps", "64"],
        ["holder", "--H", "0.3", "--axis", "space", "--epsilon", "1e-320",
         "--n-steps", "64", "--replicates", "2"],
    ], ids=["huge-horizon", "subnormal-epsilon", "holder-subnormal-epsilon"])
    def test_exit_3(self, tmp_path, capsys, argv):
        rc = main(argv + ["--output", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert rc == 3
        assert "nan" not in out
        record = _last_json(err)
        assert record["error"] == "numerical-failure"
        assert record["type"] == "FloatingPointError"


class TestProbeZero:
    """Ensemble probe across the origin."""

    def test_grid_rows_and_jump_fields(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["probe-zero", "--H", "0.55", "--n-steps", "128",
                   "--replicates", "2", "--grid-points", "5",
                   "--epsilon", "0.02", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "probe.csv")
        assert len(rows) == 5
        assert float(rows[2]["y"]) == 0.0
        payload = json.loads((out / "probe.json").read_text())
        assert {"mean_jump_estimate", "renormalized_jump_estimate"} <= set(payload)

    def test_even_grid_rejected(self, tmp_path, capsys):
        rc = main(["probe-zero", "--H", "0.55", "--grid-points", "4",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "grid-points" in _last_json(capsys.readouterr().err)["fields"]


class TestArcs:
    """Word analysis, enumeration, and threshold evaluation."""

    def test_analyze_reference_word(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["arcs", "analyze",
                   "--word", "r1,r2,s2,r3,r4,s1,s3,r5,s4,s5,r6,s6",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads((out / "arcs.json").read_text())
        assert payload["n"] == 6
        assert payload["s_free"] == [2, 6]
        assert payload["r_free"] == [2, 5, 6]
        assert payload["isolated"] == [2, 6]
        assert payload["u_vectors"][0] == [1, 0, 0, 0, 0, 0]
        increasing = [j + 1 for j, tag in enumerate(payload["gap_classes"])
                      if tag == "increasing"]
        assert increasing == [1, 2, 4, 5, 8, 11]
        assert payload["u_vectors_span"] is True
        assert payload["components"] == \
            ["r1,r2,s2,r3,r4,s1,s3,r5,s4,s5", "r1,s1"]

    def test_analyze_spanning_witness(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["arcs", "analyze", "--word", "r1,r2,s1,s2",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads((out / "arcs.json").read_text())
        assert payload["spanning_all_m"] is True
        assert set(payload["spanning_witness"]) == {"m", "a_gaps", "b_gaps"}

    def test_analyze_rejects_bad_word(self, tmp_path, capsys):
        rc = main(["arcs", "analyze", "--word", "s1,r1",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "word" in _last_json(capsys.readouterr().err)["fields"]

    def test_enumerate_counts(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["arcs", "enumerate", "--n", "3", "--write-words", "true",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads((out / "enumeration.json").read_text())
        assert payload["raw_count"] == 90 and payload["class_count"] == 15
        _, rows = read_csv(out / "words.csv")
        assert len(rows) == 90

    def test_exponents(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["arcs", "exponents", "--H", "0.3", "--mode", "y",
                   "--lam", "0.2", "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        payload = json.loads((out / "exponents.json").read_text())
        assert payload["converges"] is True
        assert payload["d_value"] == pytest.approx(1.0 / 0.3 - 1.4)
        assert "converges" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweep:
    """Cartesian parameter sweep with per-point aggregation."""

    def test_layout_and_aggregation(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["sweep", "--kind", "alpha_hat_prime",
                   "--H-grid", "0.4,0.5", "--replicates", "3",
                   "--n-steps", "128", "--y", "0.3", "--workers", "1",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "sweep.csv")
        samples = [r for r in rows if r["record"] == "sample"]
        aggregates = [r for r in rows if r["record"] == "aggregate"]
        assert len(samples) == 6 and len(aggregates) == 2
        for h in (0.4, 0.5):
            block = [float(r["value"]) for r in samples
                     if float(r["H"]) == h]
            (agg,) = [r for r in aggregates if float(r["H"]) == h]
            assert len(block) == 3
            assert float(agg["mean"]) == pytest.approx(np.mean(block),
                                                       abs=1e-12)
            assert float(agg["n"]) == 3
            assert float(agg["ci_low"]) < float(agg["mean"]) < float(agg["ci_high"])
        seeds = sorted(int(r["seed"]) for r in samples if float(r["H"]) == 0.4)
        assert seeds == [0, 1, 2], "replicates use consecutive seeds"

    def test_crossed_y_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["sweep", "--H-grid", "0.5", "--y-grid", "0.1,0.2",
                   "--replicates", "2", "--n-steps", "64", "--workers", "1",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        _, rows = read_csv(out / "sweep.csv")
        assert len([r for r in rows if r["record"] == "sample"]) == 4
        assert len([r for r in rows if r["record"] == "aggregate"]) == 2

    def test_budget_refusal_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["sweep", "--H-grid", "0.4,0.5", "--replicates", "10",
                   "--budget", "5", "--workers", "1", "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "nothing was run" in err
        assert not (out / "sweep.csv").exists()

    def test_empty_grid_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["sweep", "--H-grid", "", "--workers", "1",
                   "--output", str(out)])
        assert rc == 0, capsys.readouterr().err
        schema, rows = read_csv(out / "sweep.csv")
        assert schema == "siltlab/sweep/1" and rows == []

    def test_bad_grid_value(self, tmp_path, capsys):
        rc = main(["sweep", "--H-grid", "0.4,1.5", "--workers", "1",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "H-grid" in _last_json(capsys.readouterr().err)["fields"]
