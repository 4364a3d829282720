"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""
from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import golden  # noqa: E402
from tracer import analyse, layer_metrics  # noqa: E402
from workloads import DEFAULTS, WORKLOADS, cli_argvs, config_text  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# per-layer metrics that must read nonzero because their layer runs
LAYER_RUNS = {
    "mc-demo": {
        "rng.child_stream_us", "rng.streams_per_trial", "core.sample_input_us",
        "core.draws_per_trial", "core.ns_per_draw", "schemes.two_step_vmm_us",
        "schemes.baseline_noisy_vmm_us", "schemes.flops_per_trial", "montecarlo.trial_us",
        "montecarlo.two_step_trial_us", "montecarlo.baseline_trial_us",
        "montecarlo.overhead_us", "montecarlo.lane_efficiency",
        "montecarlo.lane1_trials_per_s", "lowrank.svd_ms", "lowrank.svd_calls",
        "matrixgen.harmonic_matrix_ms", "matrixgen.calls", "analysis.optimize_repetitions_us",
        "analysis.breakdowns_evaluated", "experiments.run_mc_s", "experiments.emit_ms",
        "rng.self_ms", "core.self_ms", "schemes.self_ms", "montecarlo.self_ms",
        "lowrank.self_ms", "matrixgen.self_ms", "analysis.self_ms", "experiments.self_ms",
        "trace.uncovered_share",
    },
    "sweep-small-uniform": {
        "rng.child_stream_us", "rng.streams_per_trial", "core.sample_input_us",
        "core.draws_per_trial", "core.ns_per_draw", "schemes.two_step_vmm_us",
        "schemes.flops_per_trial", "montecarlo.trial_us", "montecarlo.two_step_trial_us",
        "montecarlo.overhead_us", "montecarlo.lane_efficiency",
        "montecarlo.lane1_trials_per_s", "lowrank.svd_ms", "lowrank.svd_calls",
        "matrixgen.harmonic_matrix_ms", "matrixgen.calls", "analysis.optimize_repetitions_us",
        "analysis.breakdowns_evaluated", "experiments.run_sweep_s", "experiments.emit_ms",
        "rng.self_ms", "core.self_ms", "schemes.self_ms", "montecarlo.self_ms",
        "lowrank.self_ms", "matrixgen.self_ms", "analysis.self_ms", "experiments.self_ms",
        "trace.uncovered_share",
    },
    "analytic-io-800": {
        "rng.child_stream_us", "lowrank.svd_ms", "lowrank.svd_calls",
        "matrixgen.harmonic_matrix_ms", "matrixgen.calls", "matrixio.dumps_matrix_ms",
        "matrixio.loads_matrix_ms", "matrixio.bytes", "matrixio.mb_per_s",
        "analysis.optimize_repetitions_us", "analysis.breakdowns_evaluated",
        "experiments.run_sweep_s", "experiments.run_scaling_ms", "experiments.emit_ms",
        "cli.main_ms.gen", "cli.main_ms.validate", "cli.main_ms.sweep", "cli.main_ms.scaling",
        "rng.self_ms", "lowrank.self_ms", "matrixgen.self_ms", "matrixio.self_ms",
        "analysis.self_ms", "experiments.self_ms", "cli.self_ms", "trace.uncovered_share",
    },
}


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_and_workload_names_follow_the_grammar():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
               for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert list(layer_metrics([], 1, 0.0, 0.0, {})) == [m["name"] for m in BENCH["per_layer"]]


def test_defaults_match_the_package():
    from crossbar_lowrank.experiments import ExperimentConfig
    c = ExperimentConfig()
    fields = {f: getattr(c, f) for f in
              ("m", "n", "r", "sigma_e_sq", "sigma_L_sq", "sigma_R_sq", "sigma_b_sq",
               "dist", "rho", "r_T", "alpha", "c1", "c2")}
    fields["lambda"] = c.lam
    assert fields == DEFAULTS
    assert c.beta == "optimal"


def test_stored_golden_values_match_the_reference():
    assert golden.compute() == golden.load()


def test_golden_values_hand_checked():
    g = golden.load()
    assert g["mc-demo"]["baseline"] == 100 * 100 * 0.05 * 3.0
    assert g["mc-demo"]["two_step"]["k"] == 4
    assert [12, 13] in g["mc-demo"]["two_step"]["t_pairs"]
    assert g["analytic-io-800"]["validate"]["rank"] == 64


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_reaches_master_seed_and_nothing_else(name, tmp_path):
    from crossbar_lowrank.experiments import load_config
    configs, argvs = [], []
    for seed in (3, 2**40 + 7):
        path = tmp_path / f"{seed}.cfg"
        path.write_text(config_text(name, seed))
        configs.append((seed, load_config(str(path))))
        argvs.append(cli_argvs(seed, "CFG", "OUT"))
    (s1, c1), (s2, c2) = configs
    if WORKLOADS[name]["kind"] == "cli":
        assert c1 == c2  # the CLI gets the seed from --seed only
        for (step1, a1), (step2, a2) in zip(*argvs):
            assert step1 == step2
            assert a1[a1.index("--seed") + 1] == str(s1)
            assert a2[a2.index("--seed") + 1] == str(s2)
            assert [t for t in a1 if t != str(s1)] == [t for t in a2 if t != str(s2)]
    else:
        assert (c1.master_seed, c2.master_seed) == (s1, s2)
        assert dataclasses.replace(c1, master_seed=s2) == c2


def test_calibration_runs_without_the_package():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import worker; "
            "t = worker.calibrate(); assert t > 0; "
            "assert not any(m.startswith('crossbar_lowrank') for m in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_self_time_subtracts_overlapping_children_once():
    # parent 0..100 ns; two lane children overlap on 20..60 and 40..80
    spans = [(0, "montecarlo.run_two_step_trials", None, 0, 100, 10),
             (1, "rng.child_stream", 0, 20, 60, 0),
             (2, "rng.child_stream", 0, 40, 80, 0),
             (3, "core.iid_entries", 2, 50, 70, 7)]
    st = analyse(spans)
    assert st["montecarlo.run_two_step_trials"]["self_ns"] == 100 - 60
    assert st["rng.child_stream"]["self_ns"] == 40 + 20
    assert st["core.iid_entries"]["trial_count"] == 7
    m = layer_metrics(spans, 1, 1.0, 1.25, {})
    assert m["rng.streams_per_trial"] == 2 / 10
    assert m["core.draws_per_trial"] == 7 / 10
    assert m["trace.overhead_s"] == 0.25


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in WORKLOADS:
        proc = _bench(name, 1)
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_that_runs(traced, name):
    res = traced[name]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    silent = sorted(k for k in LAYER_RUNS[name] if not res["metrics"][k]["value"] > 0)
    assert not silent


def test_exact_counts_match_hand_computed_values(traced):
    def value(name, key):
        return traced[name]["metrics"][key]["value"]

    # baseline: m + m*n = 100 + 10,000; two-step at k=4 with t_L + t_R = 25:
    # m + t_L*m*k + t_R*k*n = 100 + 25*400
    assert value("mc-demo", "core.draws_per_trial") == 10100
    assert value("mc-demo", "rng.streams_per_trial") == 2
    assert value("mc-demo", "lowrank.svd_calls") == 1
    # per k: 32 + 32*k*(t_L + t_R), all at most 32 + 32*32 = 1,056; mean over k = 1..8
    assert value("sweep-small-uniform", "core.draws_per_trial") == (4 * 1056 + 3 * 992 + 928) / 8
    assert value("sweep-small-uniform", "rng.streams_per_trial") == 2
    assert value("analytic-io-800", "lowrank.svd_calls") == 2
    assert value("analytic-io-800", "matrixgen.calls") == 2
    assert value("analytic-io-800", "core.draws_per_trial") == 0
    # optimize_repetitions at m=n=800 scans (800 - k) // k values of t_L for
    # each k = 1..64, once in the sweep; scaling adds (n - k) // k per size
    grid = [(256, 8), (512, 11), (1024, 16), (2048, 22), (4096, 32), (8192, 45), (16384, 64)]
    expected = sum((800 - k) // k for k in range(1, 65)) + sum((n - k) // k for n, k in grid)
    assert value("analytic-io-800", "analysis.breakdowns_evaluated") == expected


def test_untraced_run_prints_every_end_to_end_metric():
    proc = _bench("sweep-small-uniform", 0, seed=5)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert any(ln.split()[:1] == ["trials_per_s"] for ln in lines)
    assert any(ln.split()[:1] == ["fail_ratio"] for ln in lines)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("mc-demo", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
