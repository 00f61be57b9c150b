"""One benchmark process: set up, run one workload, write its result as JSON.

Started by run.py, never by hand: run.py sets the thread-count environment
and PYTHONPATH before this interpreter starts, so numpy sees them at import.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Times are CPU seconds of the measuring thread (time.thread_time), so time
# that the hypervisor takes from this VM (steal) does not count.  Each item
# times exactly its calls into siltlab; checks run outside.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s.p50": "s",
    "peak_rss_mb": "MB",
}

# Set-up is interpreter-bound, and the speed of such code on a shared VM
# drifts by a fifth or more over minutes, for reasons outside this process.
# A fixed pure-Python loop, timed just before and just after set-up, moves
# with that drift, so setup_s is the raw set-up CPU time scaled by
# CALIBRATION_REF_S / (mean loop time): set-up seconds at the loop's
# reference speed, its median on a 2-vCPU Xeon VM at 2.0 GHz.
CALIBRATION_REF_S = 0.19

PER_LAYER = {
    "estimators.pair_sum.ns_per_pair": "ns",
    "estimators.pairs": "count",
    "mollifier.f_eps.ns_per_elem": "ns",
    "mollifier.zero_frac": "frac",
    "regularity.occupation_check_alpha.s": "s",
    "regularity.occupation_check_derivative.s": "s",
    "fbm.generate_path.ms": "ms",
    "fbm.paths": "count",
    "estimators.local_time.ms": "ms",
    "expectation.mean_alpha_prime_eps.ms": "ms",
    "expectation.calls": "count",
    "arcs.enumerate_configurations.s": "s",
    "arcs.enumerate_m_assignments.us": "us",
    "arcs.build_spanning_sets.us": "us",
    "arcs.words": "count",
    "arcs.m_assignments": "count",
    "io.write_csv.MB_per_s": "MB/s",
    "io.sha256.MB_per_s": "MB/s",
    "io.bytes_written": "B",
    "cli.arcs-analyze.ms": "ms",
    "cli.arcs-enumerate.ms": "ms",
    "cli.simulate.ms": "ms",
    "trace.items_per_s": "1/s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """CPU seconds and work of each call the benchmark makes into a layer, by name."""

    def __init__(self):
        self.calls = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name, work=None):
        t0 = time.thread_time()
        yield
        self.calls[name].append((time.thread_time() - t0, work))

    def durations(self, name):
        return [seconds for seconds, _ in self.calls[name]]

    def rates(self, name):
        """Work per second of each call of one name."""
        return [work / seconds for seconds, work in self.calls[name] if seconds > 0]


class NullTracer:
    def span(self, name, work=None):
        return contextlib.nullcontext()


def calibration_s():
    """CPU seconds of a fixed pure-Python loop: integer arithmetic, small str-keyed dicts.

    The dicts stay small so that the loop leaves peak_rss_mb alone.
    """
    t0 = time.process_time()
    acc = 0
    for i in range(900_000):
        acc += (i * i) % 7
    for _ in range(150):
        table = {}
        for i in range(2_000):
            table[str(i)] = i
    return time.process_time() - t0


def measure(workload, seconds, tracer):
    """Closed loop with one client: the next item starts when the last ends.

    A pass is not started when the longest one seen so far would run past
    the window, so a run ends close to ``seconds`` and always completes at
    least one pass.
    """
    times, checks = [], []
    start = time.monotonic()
    longest = 0.0
    k = 0
    while True:
        pass_start = time.monotonic()
        if k and pass_start - start + longest > seconds:
            break
        for label, run, check in workload.pass_items(k, tracer):
            t0 = time.thread_time()
            out = run()
            times.append(time.thread_time() - t0)
            checks.append((label, bool(check(out))))
        longest = max(longest, time.monotonic() - pass_start)
        k += 1
    return times, checks


def tail(times):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= 10:
            return {"percentile": p, "value_s": ordered[math.ceil(p / 100.0 * n) - 1],
                    "samples": n}
    return None


def provenance(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        import subprocess
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "base_seed": args.seed,
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer, counts):
    d, r = tracer.durations, tracer.rates
    values = {
        "estimators.pair_sum.ns_per_pair": 1e9 / median(r("estimators.pair_sum")),
        "mollifier.f_eps.ns_per_elem": 1e9 / median(r("mollifier.f_eps")),
        "regularity.occupation_check_alpha.s": median(d("regularity.occupation_check_alpha")),
        "regularity.occupation_check_derivative.s":
            median(d("regularity.occupation_check_derivative")),
        "fbm.generate_path.ms": 1e3 * median(d("fbm.generate_path")),
        "estimators.local_time.ms": 1e3 * median(d("estimators.local_time")),
        "expectation.mean_alpha_prime_eps.ms":
            1e3 * median(d("expectation.mean_alpha_prime_eps")),
        "arcs.enumerate_configurations.s": median(d("arcs.enumerate_configurations")),
        "arcs.enumerate_m_assignments.us": 1e6 * median(d("arcs.enumerate_m_assignments")),
        "arcs.build_spanning_sets.us": 1e6 * median(d("arcs.build_spanning_sets")),
        "io.write_csv.MB_per_s": 1e-6 * median(r("io.write_csv")),
        "io.sha256.MB_per_s": 1e-6 * median(r("io.sha256")),
        "cli.arcs-analyze.ms": 1e3 * median(d("cli.arcs-analyze")),
        "cli.arcs-enumerate.ms": 1e3 * median(d("cli.arcs-enumerate")),
        "cli.simulate.ms": 1e3 * median(d("cli.simulate")),
    }
    values.update(counts)
    return values


def main(argv=None):
    calibration = calibration_s()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import siltlab

    src = (ROOT / "src").resolve()
    if not Path(siltlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"siltlab imported from {siltlab.__file__}, not from {src}")
    from workloads import WORKLOADS

    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    cls = WORKLOADS[args.workload]

    def build():
        return cls(args.seed, args.perturb, args.workdir, reference)

    workload = build()
    checks = [(label, bool(ok)) for label, ok in workload.warm_up()]
    # CPU seconds since this process started: interpreter, imports, warm-up
    raw = time.process_time() - calibration
    calibration = (calibration + calibration_s()) / 2.0
    result = {"setup_s": raw * CALIBRATION_REF_S / calibration,
              "setup_raw_s": raw, "calibration_s": calibration}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    if args.trace:
        half = args.seconds / 2.0
        plain_times, plain_checks = measure(build(), half, NullTracer())
        tracer = Tracer()
        traced = build()
        times, traced_checks = measure(traced, half, tracer)
        traced.probe(tracer)
        checks += plain_checks + traced_checks
        plain_ips = len(plain_times) / sum(plain_times)
        traced_ips = len(times) / sum(times)
        metrics = layer_metrics(tracer, traced.counts)
        metrics["trace.items_per_s"] = traced_ips
        metrics["trace.overhead_frac"] = (plain_ips - traced_ips) / plain_ips
    else:
        times, run_checks = measure(build(), args.seconds, NullTracer())
        checks += run_checks
        metrics = {
            "items_per_s": len(times) / sum(times),
            "item_s.p50": statistics.median(times),
        }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = [label for label, ok in checks if not ok]
    result.update({
        "metrics": metrics,
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": failed[:20],
        "items": len(times),
        "item_unit": cls.item_unit,
        "item_s.tail": tail(times),
        "provenance": provenance(args),
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
