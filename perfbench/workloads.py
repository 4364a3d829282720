"""The benchmark's three workloads and the inputs each one is built from.

Every input is a pure function of the workload name and the workload seed,
and the seed reaches the package only as its ``master_seed`` (through the
config file for the library workloads, through ``--seed`` for the CLI one).
This module imports nothing outside the standard library, so the runner can
use it without loading numpy.
"""
from __future__ import annotations

import os

# Package defaults as documented in the README's config table.  The golden
# reference is computed from these; a self-test keeps them equal to
# ExperimentConfig's defaults.
DEFAULTS = {
    "m": 100, "n": 100, "r": 16, "lambda": 10.0,
    "sigma_e_sq": 0.05, "sigma_L_sq": 0.05, "sigma_R_sq": 0.05, "sigma_b_sq": 3.0,
    "dist": "gaussian", "rho": 1.0, "r_T": 1.0,
    "alpha": 1.0, "c1": 0.5, "c2": 1.0,
}

SCALING_N_GRID = (256, 512, 1024, 2048, 4096, 8192, 16384)

# kind: "mc" calls experiments.run_mc, "sweep" experiments.run_sweep, "cli"
# runs the gen -> validate -> sweep --trials 0 -> scaling pipeline through
# cli.main.  "config" holds only the keys that differ from DEFAULTS, plus
# the trial count of one unit of work, sized so one unit takes about a
# second on a 2-core x86-64 host.
WORKLOADS = {
    "mc-demo": {
        "kind": "mc",
        "config": {"trials": 2000},
        "lanes": 1,
    },
    "sweep-small-uniform": {
        "kind": "sweep",
        "config": {"m": 32, "n": 32, "r": 8, "dist": "uniform", "trials": 1000},
        "lanes": 2,
    },
    "analytic-io-800": {
        "kind": "cli",
        "config": {"m": 800, "n": 800, "r": 64, "lambda": "max",
                   "n_grid": " ".join(str(v) for v in SCALING_N_GRID)},
        "lanes": 1,
    },
}

CLI_STEPS = ("gen", "validate", "sweep", "scaling")


def config_text(name: str, seed: int) -> str:
    """key=value config file for the workload; the seed becomes master_seed
    for the library workloads and is passed as --seed to the CLI one."""
    w = WORKLOADS[name]
    lines = [f"{k}={v}" for k, v in w["config"].items()]
    if w["kind"] != "cli":
        lines.append(f"master_seed={seed}")
    return "\n".join(lines) + "\n"


def resolved(name: str) -> dict:
    """DEFAULTS overlaid with the workload's own keys (seed excluded)."""
    out = dict(DEFAULTS)
    out.update(WORKLOADS[name]["config"])
    return out


def cli_argvs(seed: int, config_path: str, out_dir: str) -> list[tuple[str, list[str]]]:
    """(step, argv) for each cli.main call of one analytic-io-800 unit."""
    matrix = os.path.join(out_dir, "A.mat")
    common = ["--config", config_path, "--seed", str(seed)]
    return [
        ("gen", ["gen", *common, "--out", matrix]),
        ("validate", ["validate", matrix, *common,
                      "--out", os.path.join(out_dir, "validate.txt")]),
        ("sweep", ["sweep", *common, "--trials", "0",
                   "--out", os.path.join(out_dir, "sweep.csv")]),
        ("scaling", ["scaling", *common, "--out", os.path.join(out_dir, "scaling.csv")]),
    ]
