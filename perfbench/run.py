"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc-demo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With --trace 0 it times set-up in
fresh interpreters, then runs the workload untraced in one more for
--seconds and prints the end-to-end metrics of BENCHMARK.json, with times
scaled to the reference host's speed by a calibration kernel; with
--trace 1 it prints the per-layer metrics from a run that alternates
untraced and traced units.  Human-readable lines come first; the last line
of stdout is the JSON object {"correct", "attempted", "failed", "metrics"}.
Exits 2 without a result when the package source is not there, 1 when a
worker fails.

Every worker gets one BLAS thread, so lanes x BLAS threads stays within
the 2 cores the workloads were sized for.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PACKAGE_INIT = os.path.join("src", "crossbar_lowrank", "__init__.py")
SCRATCH = ".bench_run"
# fresh interpreters whose set-up time is sampled; the reported setup_s is
# their median, after one unsampled start that compiles the bytecode
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
# typical seconds of worker.calibrate() on the reference host (README, machine
# facts); times are reported as raw time x CAL_REF_S / calibration time, i.e.
# in seconds of that host at its typical speed
CAL_REF_S = 0.042
RUN_GRACE_S = 120
BLAS_THREADS = 1


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def call_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args[:3])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_units(section: str) -> dict:
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="crossbar-lowrank benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE_INIT)):
        print(f"error: {PACKAGE_INIT} not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    env = worker_env(root)
    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=SCRATCH)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES + 1):
                s = call_worker(["setup", *common], env, SETUP_TIMEOUT_S)
                if i:
                    setups.append(s)
        rep = call_worker(["run", *common, "--seconds", str(args.seconds),
                           "--trace", str(args.trace)], env, args.seconds + RUN_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch is still there

    for failure in rep["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    walls = rep["walls"]
    wall_raw_s = statistics.median(walls)
    cal_s = statistics.median(rep["cals"])
    wall_s = wall_raw_s * CAL_REF_S / cal_s
    mach = rep["machine"]
    q1, _, q3 = (statistics.quantiles(walls, n=4, method="inclusive")
                 if len(walls) > 1 else walls * 3)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} units={len(walls)}"
          + (f"+{len(rep['traced_walls'])} traced" if args.trace else "")
          + f" raw unit_s min={min(walls):.4g} q1={q1:.4g} median={wall_raw_s:.4g}"
          f" q3={q3:.4g} max={max(walls):.4g} calibration_s={cal_s:.4g}")
    print(f"  machine nproc={mach['nproc']} python={mach['python']} numpy={mach['numpy']} "
          f"blas={mach['blas']} ({mach['blas_config']}) blas_threads={mach['blas_threads']} "
          f"lanes={rep['lanes']}")
    if args.trace:
        units = metric_units("per_layer")
        metrics = {k: {"value": rep["per_layer"][k], "unit": u} for k, u in units.items()}
    else:
        units = metric_units("end_to_end")
        setup_raw_s = statistics.median(s["setup_s"] for s in setups)
        setup_cal_s = statistics.median(s["cal_s"] for s in setups)
        print(f"  raw setup_s={setup_raw_s:.4g} calibration_s={setup_cal_s:.4g}")
        values = {"setup_s": setup_raw_s * CAL_REF_S / setup_cal_s, "wall_s": wall_s,
                  "peak_rss_mb": rep["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k:<34} {m['value']:<22.10g} {m['unit']}")
    if rep["trials_per_unit"]:
        print(f"  {'trials_per_s':<34} {rep['trials_per_unit'] / wall_s:<22.10g} 1/s "
              f"({rep['trials_per_unit']} trials per unit)")
    print(f"  {'fail_ratio':<34} {rep['failed'] / rep['attempted']:<22.10g} "
          f"({rep['failed']} of {rep['attempted']} operations)")
    print(json.dumps({"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
