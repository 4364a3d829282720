"""Golden analytic values for every workload, from an independent reference.

The package computes its closed forms from the numerical SVD of a generated
matrix; this reference uses the prescribed spectrum lam/i exactly and
math.fsum, and shares no code with the package.  Every analytic value the
workloads emit depends on the seed only through SVD round-off, far below
the rtol of 1e-12 used to compare, so one stored value serves every seed.

    python3 perfbench/golden.py          # rewrite perfbench/golden.json
"""
from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import resolved  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

RTOL = 1e-12
# an argmin must not hinge on round-off: past exact ties, the runner-up
# total sits at least this far (relative) above the winner
MIN_ARGMIN_GAP = 1e-9


def lambda_max(m: int, n: int, rho: float, r_T: float) -> float:
    return math.sqrt(6.0 * m * n * rho) / (math.pi * r_T)


def _lam(c: dict) -> float:
    if c["lambda"] == "max":
        return lambda_max(c["m"], c["n"], c["rho"], c["r_T"])
    return float(c["lambda"])


def total_error(tail: float, trace: float, m: int, n: int, k: int, t_L: int,
                t_R: int, c: dict) -> float:
    """Four-component two-step error from the truncation tail sum(s_i^2, i>k)
    and the trace sum(s_i, i<=k)."""
    sb, sl, sr = c["sigma_b_sq"], c["sigma_L_sq"], c["sigma_R_sq"]
    return math.fsum([
        sb * tail,
        sb * (m * sl / t_L) * trace,
        sb * (n * sr / t_R) * trace,
        sb * m * k * n * sl * sr / (t_L * t_R),
    ])


def best_repetitions(lam: float, r: int, m: int, n: int, k: int, c: dict) -> dict:
    """Budget-optimal (t_L, t_R) at rank k for the spectrum lam/i, i = 1..r,
    by exhaustive scan over t_L."""
    tail = math.fsum((lam / i) ** 2 for i in range(k + 1, r + 1))
    trace = math.fsum(lam / i for i in range(1, k + 1))
    cands = []
    for t_L in range(1, (m * n - n * k) // (m * k) + 1):
        t_R = (m * n - t_L * m * k) // (n * k)
        cands.append((total_error(tail, trace, m, n, k, t_L, t_R, c), t_L, t_R))
    cands.sort()
    best = cands[0][0]
    # m = n with sigma_L_sq = sigma_R_sq makes (t_L, t_R) and its swap tie
    # exactly; the package's tie-break then rests on round-off, so every
    # pair within RTOL of the best is accepted
    tied = [[t_L, t_R] for total, t_L, t_R in cands if total - best <= RTOL * best]
    rest = [total for total, _, _ in cands[len(tied):]]
    if rest:
        _check_gap(best, rest[0], f"t_L at k={k}")
    return {"k": k, "total": best, "t_pairs": sorted(tied)}


def _check_gap(best: float, second: float, what: str) -> None:
    if not second - best > MIN_ARGMIN_GAP * best:
        raise ValueError(f"argmin over {what} is within round-off")


def sweep_rows(c: dict) -> dict:
    lam, m, n, r = _lam(c), c["m"], c["n"], c["r"]
    rows = [best_repetitions(lam, r, m, n, k, c) for k in range(1, r + 1)
            if m * k + n * k <= m * n]
    ranked = sorted(rows, key=lambda row: row["total"])
    _check_gap(ranked[0]["total"], ranked[1]["total"], "k")
    return {"rows": rows, "argmin_k": ranked[0]["k"]}


def baseline(m: int, n: int, c: dict) -> float:
    return m * n * c["sigma_e_sq"] * c["sigma_b_sq"]


def loglog_fit(points) -> dict:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / math.fsum((x - xbar) ** 2 for x in xs))
    return {"slope": slope, "intercept": ybar - slope * xbar}


def scaling(c: dict, grid) -> dict:
    beta = min(1.0, 1.0 / (2.0 * c["alpha"]))
    rows = []
    for n in grid:
        r = min(n, max(1, math.floor(c["c2"] * n ** c["alpha"])))
        k = min(r, max(1, math.floor(c["c1"] * r ** beta)))
        lam = lambda_max(n, n, c["rho"], c["r_T"])
        rows.append({"n": n, **best_repetitions(lam, r, n, n, k, c)})
    return {
        "rows": rows,
        "fit_total": loglog_fit([(row["n"], row["total"]) for row in rows]),
        "fit_baseline": loglog_fit([(n, baseline(n, n, c)) for n in grid]),
    }


def compute() -> dict:
    mc = resolved("mc-demo")
    lam, m, n, r = _lam(mc), mc["m"], mc["n"], mc["r"]
    ranked = sorted((best_repetitions(lam, r, m, n, k, mc) for k in range(1, r + 1)
                     if m * k + n * k <= m * n), key=lambda row: row["total"])
    _check_gap(ranked[0]["total"], ranked[1]["total"], "k")

    io = resolved("analytic-io-800")
    lam_io = _lam(io)
    grid = tuple(int(v) for v in io["n_grid"].split())
    return {
        "rtol": RTOL,
        "mc-demo": {"baseline": baseline(m, n, mc), "two_step": ranked[0]},
        "sweep-small-uniform": sweep_rows(resolved("sweep-small-uniform")),
        "analytic-io-800": {
            "validate": {
                "rows": io["m"], "cols": io["n"], "rank": io["r"],
                "lambda_max": lambda_max(io["m"], io["n"], io["rho"], io["r_T"]),
                "magnitude_total": (io["r_T"] * lam_io) ** 2
                * math.fsum(1.0 / (i * i) for i in range(1, io["r"] + 1)),
                "magnitude_budget": float(io["m"] * io["n"]) * io["rho"],
                "magnitude_ok": "true",
            },
            "sweep": sweep_rows(io),
            "scaling": scaling(io, grid),
        },
    }


def load() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
