"""One fresh interpreter running one workload; reports JSON on its last line.

    python3 perfbench/worker.py setup --workload W --seed N --tmp DIR
    python3 perfbench/worker.py run --workload W --seed N --tmp DIR --seconds S --trace 0|1

`setup` times importing the package, loading the config and, for the Monte
Carlo workloads, building the target (harmonic matrix, SVD, optimizer):
everything before the first trial.  `run` does the same, checks lane
invariance once, then runs units of work back to back (a closed loop, one
client) until `--seconds` have passed, checking every unit's output.  With
`--trace 1` it alternates untraced and traced units and reports the
per-layer metrics.  run.py starts this script with PYTHONPATH pointing at
the checkout's src/ and the BLAS thread count pinned.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import golden  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import CLI_STEPS, WORKLOADS, cli_argvs, config_text  # noqa: E402

Z_LIMIT = 4.0
SETUP_CALIBRATIONS = 3


def calibrate() -> float:
    """Seconds for a fixed kernel that touches nothing in the package: a
    pure-Python integer loop, then Gaussian draws and matrix-vector products
    at the 100x100 size.  The host's speed drifts by tens of percent over
    minutes; run.py divides the package's times by this one, measured in the
    same process at the same time, to take that drift out."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s = (s * 31 + i) & 0xFFFFFFFF
    g = np.random.default_rng(12345)
    A, b = g.standard_normal((100, 100)), g.standard_normal(100)
    for _ in range(100):
        s += float(b @ (A + g.standard_normal((100, 100))) @ b)
    return time.perf_counter() - t0


class Checker:
    """Counts operations attempted and failed; keeps the first few failures."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ok(self, cond: bool, what: str) -> None:
        self.attempted += 1
        if not cond:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def close(self, value: float, ref: float, what: str) -> None:
        self.ok(math.isfinite(value) and abs(value - ref) <= self.rtol * abs(ref),
                f"{what}: {value!r} != golden {ref!r}")

    def z(self, mean: float, se: float, ref: float, what: str) -> None:
        self.ok(se > 0 and abs(mean - ref) <= Z_LIMIT * se,
                f"{what}: mean {mean!r} se {se!r} vs analytic {ref!r}")

    def row(self, got: dict, gold: dict, what: str) -> None:
        """Analytic total and (t_L, t_R) of one k against its golden row."""
        self.close(got["total"], gold["total"], f"{what} k={gold['k']} total")
        self.ok([got["t_L"], got["t_R"]] in gold["t_pairs"],
                f"{what} k={gold['k']} (t_L, t_R)=({got['t_L']}, {got['t_R']}) "
                f"not in {gold['t_pairs']}")


def setup(name: str, seed: int, tmp: str):
    """Timed set-up in this fresh interpreter; returns (seconds, context)."""
    path = os.path.join(tmp, f"{name}.cfg")
    with open(path, "w") as fh:
        fh.write(config_text(name, seed))
    t0 = time.perf_counter()
    from crossbar_lowrank import analysis, experiments, lowrank, matrixgen, rng
    config = experiments.load_config(path)
    if WORKLOADS[name]["kind"] != "cli":
        c = config
        A = matrixgen.harmonic_matrix(c.m, c.n, c.r, c.resolved_lambda(),
                                      rng.child_stream(c.master_seed, experiments.STREAM_MATRIX))
        s = lowrank.svd(A)
        if WORKLOADS[name]["kind"] == "mc":
            analysis.optimize_rank(s.singulars, c.m, c.n, c.noise(), c.sigma_b_sq, c.r)
        else:
            for k in c.resolved_k_range():
                analysis.optimize_repetitions(s.singulars, c.m, c.n, k, c.noise(), c.sigma_b_sq)
    return time.perf_counter() - t0, {"config": config, "config_path": path}


def mc_unit(ctx, lanes, tracer=None):
    from crossbar_lowrank import experiments
    result = experiments.run_mc(ctx["config"], lanes=lanes)
    return result, experiments.mc_csv(result)


def sweep_unit(ctx, lanes, tracer=None):
    from crossbar_lowrank import experiments
    result = experiments.run_sweep(ctx["config"], lanes=lanes)
    return result, experiments.sweep_csv(result)


def check_mc(chk: Checker, out, gold: dict, ctx) -> None:
    result, _ = out
    base, two = result.rows[0], result.rows[1:]
    chk.close(base.analytic, gold["baseline"], "baseline analytic")
    chk.z(base.mean_sq_error, base.std_error, gold["baseline"], "baseline MC")
    ref = gold["two_step"]
    chk.ok(len(two) == 1 and two[0].k == ref["k"], f"two-step k {[r.k for r in two]}")
    for row in two:
        chk.row({"total": row.analytic, "t_L": row.t_L, "t_R": row.t_R}, ref, "two-step")
        chk.z(row.mean_sq_error, row.std_error, ref["total"], f"two-step k={row.k} MC")


def check_sweep(chk: Checker, out, gold: dict, ctx) -> None:
    result, _ = out
    chk.ok(result.argmin_k == gold["argmin_k"], f"argmin {result.argmin_k}")
    chk.ok(len(result.rows) == len(gold["rows"]), f"{len(result.rows)} sweep rows")
    for row, ref in zip(result.rows, gold["rows"]):
        chk.row({"total": row.analytic_total, "t_L": row.t_L, "t_R": row.t_R}, ref, "sweep")
        chk.z(row.mc_mean, row.mc_stderr, ref["total"], f"sweep k={row.k} MC")


def cli_unit(ctx, lanes, tracer=None):
    from crossbar_lowrank import cli
    codes = []
    for step, argv in ctx["argvs"]:
        span = tracer.span(f"cli.main.{step}") if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


def _csv_table(path: str):
    """(comment lines, rows as dicts) of a sweep or scaling CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return comments, [dict(zip(body[0], r)) for r in body[1:]]


def _fields(line: str) -> dict:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def check_cli(chk: Checker, codes, gold: dict, ctx) -> None:
    for step, code in zip(CLI_STEPS, codes):
        chk.ok(code == 0, f"cli {step} exited {code}")
    out_dir = ctx["out_dir"]
    try:
        _check_cli_outputs(chk, gold, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        chk.ok(False, f"cli outputs unreadable: {exc!r}")
    # a later unit must not pass on files this one left behind
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def _check_cli_outputs(chk: Checker, gold: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "validate.txt")) as fh:
        report = dict(ln.split(" ", 1) for ln in fh.read().splitlines())
    v = gold["validate"]
    for key in ("rows", "cols", "rank"):
        chk.ok(int(report[key]) == v[key], f"validate {key} {report[key]}")
    for key in ("lambda_max", "magnitude_total", "magnitude_budget"):
        chk.close(float(report[key]), v[key], f"validate {key}")
    chk.ok(report["magnitude_ok"] == v["magnitude_ok"], "validate magnitude_ok")

    comments, rows = _csv_table(os.path.join(out_dir, "sweep.csv"))
    ref = gold["sweep"]
    argmin = [_fields(c) for c in comments if c.startswith("# argmin")]
    chk.ok(int(argmin[0]["k"]) == ref["argmin_k"], f"sweep {argmin}")
    chk.ok(len(rows) == len(ref["rows"]), f"{len(rows)} sweep rows")
    for row, r in zip(rows, ref["rows"]):
        chk.row({"total": float(row["analytic_total"]), "t_L": int(row["t_L"]),
                  "t_R": int(row["t_R"])}, r, "sweep")

    comments, rows = _csv_table(os.path.join(out_dir, "scaling.csv"))
    ref = gold["scaling"]
    chk.ok(len(rows) == len(ref["rows"]), f"{len(rows)} scaling rows")
    for row, r in zip(rows, ref["rows"]):
        chk.ok(int(row["n"]) == r["n"] and int(row["k"]) == r["k"], f"scaling row n={row['n']}")
        chk.row({"total": float(row["analytic_total"]), "t_L": int(row["t_L"]),
                  "t_R": int(row["t_R"])}, r, f"scaling n={r['n']}")
    for fit in ("fit_total", "fit_baseline"):
        got = [_fields(c) for c in comments if c.startswith(f"# {fit} ")][0]
        for key in ("slope", "intercept"):
            chk.close(float(got[key]), ref[fit][key], f"{fit} {key}")


def lane_check(name: str, ctx, chk: Checker) -> dict:
    """Byte-identical CSV at lanes=1 and lanes=2, outside timing and tracing;
    the two timings give the lane efficiency."""
    unit = mc_unit if WORKLOADS[name]["kind"] == "mc" else sweep_unit
    walls, texts = {}, {}
    for lanes in (1, 2):
        t0 = time.perf_counter()
        result, texts[lanes] = unit(ctx, lanes)
        walls[lanes] = time.perf_counter() - t0
    chk.ok(texts[1] == texts[2], "CSV differs between lanes=1 and lanes=2")
    trials = trials_per_unit(name, ctx["config"])
    return {"efficiency": walls[1] / (2 * walls[2]), "lane1_trials_per_s": trials / walls[1]}


def trials_per_unit(name: str, config) -> int:
    kind = WORKLOADS[name]["kind"]
    if kind == "mc":
        return 2 * config.trials  # baseline plus two-step at the optimal k
    if kind == "sweep":
        return config.trials * len(config.resolved_k_range())
    return 0


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import numpy
    for lib in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*.so*"):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
    }


def run(args, setup_s: float, ctx) -> dict:
    name, w = args.workload, WORKLOADS[args.workload]
    gold = golden.load()
    chk = Checker(gold["rtol"])
    kind, lanes = w["kind"], w["lanes"]
    lane = {}
    if kind == "cli":
        ctx["out_dir"] = os.path.join(args.tmp, "out")
        os.makedirs(ctx["out_dir"], exist_ok=True)
        ctx["argvs"] = cli_argvs(args.seed, ctx["config_path"], ctx["out_dir"])
    else:
        lane = lane_check(name, ctx, chk)

    tracer = Tracer() if args.trace else None

    unit, check = {"mc": (mc_unit, check_mc), "sweep": (sweep_unit, check_sweep),
                   "cli": (cli_unit, check_cli)}[kind]
    walls = {False: [], True: []}
    cals = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        cals.append(calibrate())
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("bench.unit") if traced else contextlib.nullcontext():
            out = unit(ctx, lanes, tracer if traced else None)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        check(chk, out, gold[name], ctx)
        if time.perf_counter() >= deadline and (tracer is None or walls[True]):
            break

    report = {
        "setup_s": setup_s,
        "walls": walls[False],
        "cals": cals,
        "trials_per_unit": trials_per_unit(name, ctx["config"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "machine": machine(),
        "lanes": lanes,
    }
    if tracer is not None:
        report["traced_walls"] = walls[True]
        report["per_layer"] = layer_metrics(tracer.spans, len(walls[True]),
                                            statistics.median(walls[False]),
                                            statistics.median(walls[True]), lane)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    setup_s, ctx = setup(args.workload, args.seed, args.tmp)
    if args.mode == "setup":
        report = {"setup_s": setup_s,
                  "cal_s": statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))}
    else:
        report = run(args, setup_s, ctx)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
