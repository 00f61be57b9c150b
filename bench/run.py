#!/usr/bin/env python3
"""siltlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload local_time --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; siltlab is imported from ./src.
Each call runs the workload in a fresh worker process.  An untraced run
first starts SETUP_REPEATS - 1 set-up-only processes, so ``setup_s`` (the
median over all of them) and ``peak_rss_mb`` belong to this workload alone.
With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it give the provenance, the item unit, the tail percentile, the
failed fraction and the set-up samples.  ``--perturb`` corrupts the recorded
references so that the correctness gate must fail (for the benchmark's own
tests).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("occupation", "local_time")
SETUP_REPEATS = 5
# Single-threaded BLAS (at or below nproc) keeps runs on a shared machine steady.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A second base seed kept out of tuning, for checking later claims.
HELD_OUT_SEED = 7919
DEADLINE_S = 170.0


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def spawn(args, workdir, result, extra, deadline):
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    cmd += ["--perturb"] * args.perturb + extra
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(Path(result).read_text())


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="base seed; path seeds are base + k")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        return fail("seed must lie in [0, 2^63)")
    if not 0 < args.seconds <= 60:
        return fail("seconds must lie in (0, 60]")
    if not (ROOT / "src" / "siltlab" / "__init__.py").is_file():
        return fail(f"no siltlab sources under {ROOT / 'src'}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # set-up samples only feed setup_s, which a traced run does not report
        setups = [] if args.trace else [
            spawn(args, workdir, workdir / f"setup{i}.json", ["--setup-only"], deadline)
            for i in range(SETUP_REPEATS - 1)]
        result = spawn(args, workdir, workdir / "result.json", [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    setups.append(result)
    metrics = result["metrics"]
    metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    from worker import END_TO_END, PER_LAYER
    table = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in table if not math.isfinite(metrics.get(name, math.nan))]
    if missing:
        return fail(f"{args.workload}: no measurement for {', '.join(missing)}")
    out = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in table.items()}

    prov = result["provenance"]
    prov["held_out_seed"] = HELD_OUT_SEED
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print("detail: " + json.dumps({
        "workload": args.workload,
        "items": result["items"],
        "item_unit": result["item_unit"],
        "item_s.tail": result["item_s.tail"],
        "failed_frac": result["failed"] / result["attempted"],
        "failed_checks": result["failed_checks"],
        "setup_s.samples": [s["setup_s"] for s in setups],
        "setup_s.raw_samples": [s["setup_raw_s"] for s in setups],
        "setup_s.calibration_samples": [s["calibration_s"] for s in setups],
    }, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
