"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single PASS/FAIL line
(visible under pytest -s) and then asserts. Tolerances sit next to the
checks they guard. Monte Carlo agreement is always judged at 4 standard
errors; runtime ceilings are asserted where a guarantee carries one.
"""
import math
import time
from fractions import Fraction

import numpy as np

from crossbar_lowrank import analysis
from crossbar_lowrank.analysis import (
    budget_feasible,
    lambda_max,
    optimal_beta,
    optimize_repetitions,
    two_step_error_analytic,
)
from crossbar_lowrank.cli import main
from crossbar_lowrank.core import DeviceParams, iid_entries, magnitude_check
from crossbar_lowrank.experiments import ExperimentConfig, run_sweep
from crossbar_lowrank.lowrank import factor_lr, svd
from crossbar_lowrank.matrixgen import harmonic_matrix, prescribed_factors
from crossbar_lowrank.matrixio import write_matrix
from crossbar_lowrank.montecarlo import (check_target, compare, run_baseline_trials,
                                         run_two_step_trials)
from crossbar_lowrank.rng import child_stream
from crossbar_lowrank.schemes import NoiseSpec

Z_LIMIT = 4.0


def _prescribed(m, n, values, rng):
    """U diag(sigma) V' of prescribed_factors, as harmonic_matrix forms it."""
    U, sigma, V = prescribed_factors(m, n, values, rng)
    return (U * sigma) @ V.T


def _report(num: int, name: str, failures: list[str], detail: str) -> None:
    ok = not failures
    line = detail if ok else "; ".join(failures[:4])
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} ({line})")
    assert ok, f"criterion {num} {name}: {failures}"


def test_criterion_01_baseline_error_formula():
    failures = []
    zs = []
    for m, n in ((8, 8), (16, 32), (100, 100)):
        start = time.time()
        A = harmonic_matrix(m, n, 8, 10.0, np.random.default_rng(m * 1000 + n))
        res = run_baseline_trials(A, NoiseSpec(sigma_e_sq=0.05), 3.0,
                                  trials=100_000, rng=np.random.default_rng(101))
        z, ok = compare(res, m * n * 0.05 * 3.0)
        elapsed = time.time() - start
        zs.append(z)
        if not ok:
            failures.append(f"{m}x{n}: z={z:.2f}")
        if elapsed >= 60.0:
            failures.append(f"{m}x{n}: took {elapsed:.0f}s")
    detail = "z = " + ", ".join(f"{z:+.2f}" for z in zs) + " over 1e5 trials each"
    _report(1, "one-shot noisy product error mean", failures, detail)


def _instrumented_accumulated(m, n, k, t_L, t_R, sl, sr, sb, dist, trials, seed):
    """Mean of ||b Ebar_L Ebar_R||^2: the stage-noise product in isolation."""
    vals = np.empty(trials)
    for t in range(trials):
        b = iid_entries(m, sb, dist, child_stream(seed, t, 0))
        noise_rng = child_stream(seed, t, 1)
        el = iid_entries((t_L, m, k), sl, dist, noise_rng).mean(axis=0)
        er = iid_entries((t_R, k, n), sr, dist, noise_rng).mean(axis=0)
        d = (b @ el) @ er
        vals[t] = d @ d
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(trials)
    return mean, se


def test_criterion_02_two_step_error_formula():
    start = time.time()
    failures = []
    rng = np.random.default_rng(20_260_817)
    max_z = 0.0

    for i in range(20):
        m = int(rng.integers(8, 33))
        n = int(rng.integers(8, 33))
        r = int(rng.integers(2, min(m, n) + 1))
        k_hi = min(r, (m * n) // (m + n))
        k = int(rng.integers(1, k_hi + 1))
        t_hi = (m * n - n * k) // (m * k)
        t_L = int(rng.integers(1, t_hi + 1))
        t_hi = (m * n - t_L * m * k) // (n * k)
        t_R = int(rng.integers(1, t_hi + 1))
        dist = "gaussian" if i % 2 == 0 else "uniform"
        noise = NoiseSpec(sigma_L_sq=float(rng.uniform(0.01, 0.1)),
                          sigma_R_sq=float(rng.uniform(0.01, 0.1)), dist=dist)
        sb = float(rng.uniform(0.5, 4.0))
        vals = np.sort(rng.uniform(0.3, 5.0, size=r))[::-1]
        A = _prescribed(m, n, vals, rng)
        s = svd(A)
        analytic = two_step_error_analytic(s.singulars, m, n, k, t_L, t_R,
                                           noise.sigma_L_sq, noise.sigma_R_sq, sb).total
        res = run_two_step_trials(check_target(s, A), k, t_L, t_R, noise, sb, trials=20_000,
                                  rng=np.random.default_rng(2000 + i))
        z, ok = compare(res, analytic)
        max_z = max(max_z, abs(z))
        if not ok:
            failures.append(f"config {i} ({dist} {m}x{n} k={k}): z={z:.2f}")

    # component isolation: zero noise leaves truncation, one-sided noise
    # at full rank leaves one stage term, and the stage-noise product is
    # measured directly
    iso_configs = [
        # sized so the repetition counts stay within budget at k = rank
        ([4.0, 2.0, 1.0], 16, 18, 2, 2, 2, 0.04, 0.06, 2.0, "gaussian"),
        ([3.0, 2.5, 0.8, 0.2], 24, 24, 3, 2, 2, 0.08, 0.03, 3.0, "uniform"),
        ([5.0, 1.0], 24, 12, 1, 4, 3, 0.02, 0.09, 1.0, "gaussian"),
    ]
    for j, (vals, m, n, k, t_L, t_R, sl, sr, sb, dist) in enumerate(iso_configs):
        A = _prescribed(m, n, vals, np.random.default_rng(900 + j))
        s = svd(A)
        r = len(vals)
        parts = two_step_error_analytic(s.singulars, m, n, k, t_L, t_R, sl, sr, sb)

        quiet = NoiseSpec(dist=dist)
        res = run_two_step_trials(check_target(s, A), k, t_L, t_R, quiet, sb, 20_000,
                                  rng=np.random.default_rng(30 + j))
        z, ok = compare(res, parts.truncation)
        if not ok:
            failures.append(f"iso {j} truncation: z={z:.2f}")

        left = NoiseSpec(sigma_L_sq=sl, dist=dist)
        stage1 = two_step_error_analytic(s.singulars, m, n, r, t_L, t_R, sl, 0.0, sb)
        assert math.isclose(stage1.total, stage1.stage1_noise, rel_tol=1e-12)
        res = run_two_step_trials(check_target(s, A), r, t_L, t_R, left, sb, 20_000,
                                  rng=np.random.default_rng(60 + j))
        z, ok = compare(res, stage1.stage1_noise)
        if not ok:
            failures.append(f"iso {j} stage1: z={z:.2f}")

        right = NoiseSpec(sigma_R_sq=sr, dist=dist)
        stage2 = two_step_error_analytic(s.singulars, m, n, r, t_L, t_R, 0.0, sr, sb)
        assert math.isclose(stage2.total, stage2.stage2_noise, rel_tol=1e-12)
        res = run_two_step_trials(check_target(s, A), r, t_L, t_R, right, sb, 20_000,
                                  rng=np.random.default_rng(90 + j))
        z, ok = compare(res, stage2.stage2_noise)
        if not ok:
            failures.append(f"iso {j} stage2: z={z:.2f}")

        mean, se = _instrumented_accumulated(m, n, k, t_L, t_R, sl, sr, sb, dist,
                                             20_000, seed=120 + j)
        z = (mean - parts.accumulated) / se
        if abs(z) > Z_LIMIT:
            failures.append(f"iso {j} accumulated: z={z:.2f}")

    elapsed = time.time() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _report(2, "averaged two-stage error mean and its four components", failures,
            f"20 random configs + 3 instrumented, max |z|={max_z:.2f}, {elapsed:.0f}s")


def test_criterion_03_rank_sweep_beats_baseline():
    start = time.time()
    failures = []
    res = run_sweep(ExperimentConfig())  # 100x100, rank-16 harmonic, 1e4 trials
    rows = res.rows
    assert all(row.feasible for row in rows)

    max_z = 0.0
    for row in rows:
        z = (row.mc_mean - row.analytic_total) / row.mc_stderr
        max_z = max(max_z, abs(z))
        if abs(z) > Z_LIMIT:
            failures.append(f"k={row.k}: z={z:.2f}")

    min_norm = min(row.normalized for row in rows)
    if not min_norm < 1.0:
        failures.append(f"min normalized {min_norm:.3f} not below 1")

    # unimodal within MC noise: falling to the empirical argmin and rising
    # after it, with 4-sigma slack on each neighbor comparison
    mc = [row.mc_mean for row in rows]
    se = [row.mc_stderr for row in rows]
    j = int(np.argmin(mc))
    for i in range(len(mc) - 1):
        slack = Z_LIMIT * math.hypot(se[i], se[i + 1])
        if i < j and mc[i + 1] > mc[i] + slack:
            failures.append(f"not decreasing at k={rows[i].k}->{rows[i + 1].k}")
        if i >= j and mc[i + 1] < mc[i] - slack:
            failures.append(f"not increasing at k={rows[i].k}->{rows[i + 1].k}")

    elapsed = time.time() - start
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _report(3, "rank sweep reproduces the error-vs-rank profile", failures,
            f"argmin k={res.argmin_k}, min normalized={min_norm:.4f}, "
            f"max |z|={max_z:.2f}, {elapsed:.0f}s")


def test_criterion_04_best_rank_k_identity():
    failures = []
    rng = np.random.default_rng(44)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(1, 65))
        n = int(rng.integers(1, 65))
        if i % 3 == 0 and min(m, n) >= 2:
            r = int(rng.integers(1, min(m, n)))
            vals = np.sort(rng.uniform(0.1, 8.0, size=r))[::-1]
            A = _prescribed(m, n, vals, rng)
        else:
            A = 10.0 ** rng.uniform(-2, 2) * rng.normal(size=(m, n))
        s = svd(A)
        scale = float(np.linalg.norm(A) ** 2)
        U, sv, Vt = np.linalg.svd(A, full_matrices=False)
        for k in range(0, min(m, n) + 1):
            if 1 <= k <= s.rank:
                # the tail the optimizers score, against the split the scheme stores
                f = factor_lr(s, k)
                fro2 = float(np.linalg.norm(A - f.L @ f.R) ** 2)
            else:
                fro2 = float(np.linalg.norm(A - (U[:, :k] * sv[:k]) @ Vt[:k]) ** 2)
            if k:
                tail = two_step_error_analytic(s.singulars, m, n, k, 1, 1,
                                               0.0, 0.0, 1.0).truncation
            else:  # the whole spectrum, a rank the closed form does not take
                tail = float(np.sum(s.singulars ** 2))
            err = abs(fro2 - tail) / scale
            worst = max(worst, err)
            if err > 1e-8:
                failures.append(f"matrix {i} ({m}x{n}) k={k}: rel err {err:.2e}")
    _report(4, "rank-k residual equals the spectrum tail", failures,
            f"100 matrices, every k, worst rel err {worst:.2e}")


def _exact_sum(terms: range, power: int) -> tuple[int, int]:
    """sum of 1/i**power over terms as an exact fraction (p, q): added
    pairwise and never reduced, which at 10^4 terms is quicker than a gcd
    at each step."""
    if not terms:
        return 0, 1
    if len(terms) == 1:
        return 1, terms[0] ** power
    half = len(terms) // 2
    (p1, q1), (p2, q2) = _exact_sum(terms[:half], power), _exact_sum(terms[half:], power)
    return p1 * q2 + p2 * q1, q1 * q2


def test_criterion_05_closed_form_bounds_dominate():
    failures = []
    R = 10_000
    inv = 1.0 / np.arange(1.0, R + 1.0)

    # tail: 1/x + sum_{i<=x} 1/i^2 nonincreasing covers every k <= r <= R
    drop = np.diff(inv + np.cumsum(inv * inv))
    if not (drop <= 0).all():
        failures.append("tail-bound margin goes negative inside the sweep")

    # trace: running harmonic sum never crosses ln k + gamma + 1/(2k)
    h = np.cumsum(inv)
    tbound = np.log(np.arange(1.0, R + 1.0)) + 0.5772156649015329 + 0.5 * inv
    if not (h <= tbound).all():
        failures.append("trace-bound margin goes negative inside the sweep")

    rng = np.random.default_rng(55)
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-3, 3)
        r = int(rng.integers(1, R + 1))
        k = int(rng.integers(1, r + 1))
        # exact tail lam^2 p/q against the bound, multiplied out by q > 0
        p, q = _exact_sum(range(k + 1, r + 1), power=2)
        if Fraction(lam) ** 2 * p > Fraction(analysis._tail_bound(lam, k, r)) * q:
            failures.append(f"tail bound (lam={lam:.3g}, k={k}, r={r})")
        p, q = _exact_sum(range(1, k + 1), power=1)
        if Fraction(lam) * p > Fraction(analysis._trace_bound(lam, k)) * q:
            failures.append(f"trace bound (lam={lam:.3g}, k={k})")
    _report(5, "trace and tail bounds dominate their exact sums", failures,
            f"all pairs k<=r<={R} plus 100 direct calls")


def test_criterion_06_repetition_optimizer_is_exact():
    failures = []
    rng = np.random.default_rng(66)
    checked = 0
    while checked < 50:
        m = int(rng.integers(4, 49))
        n = int(rng.integers(4, 49))
        k_hi = (m * n) // (m + n)
        if k_hi < 1:
            continue
        k = int(rng.integers(1, k_hi + 1))
        singulars = np.sort(rng.uniform(0.1, 6.0, size=min(m, n)))[::-1]
        sl = float(rng.uniform(0.005, 0.2))
        sr = float(rng.uniform(0.005, 0.2))
        sb = float(rng.uniform(0.5, 4.0))
        noise = NoiseSpec(sigma_L_sq=sl, sigma_R_sq=sr)
        got = optimize_repetitions(singulars, m, n, k, noise, sb)

        best = None
        t_L = 1
        while budget_feasible(m, n, k, t_L, 1):
            t_R = 1
            while budget_feasible(m, n, k, t_L, t_R):
                bd = two_step_error_analytic(singulars, m, n, k, t_L, t_R, sl, sr, sb)
                if best is None or bd.total < best[2].total:
                    best = (t_L, t_R, bd)
                t_R += 1
            t_L += 1

        if (got[0], got[1]) != (best[0], best[1]) or got[2].total != best[2].total:
            failures.append(
                f"{m}x{n} k={k}: got {(got[0], got[1])}, brute force {(best[0], best[1])}")
        checked += 1
    _report(6, "repetition optimizer matches 2-D brute force", failures,
            "50 random feasible configs, exact tuple and value match")


def _slope_from_csv(path) -> tuple[float, float]:
    total = baseline = None
    for line in path.read_text().splitlines():
        if line.startswith("# fit_total slope="):
            total = float(line.split("slope=")[1].split()[0])
        if line.startswith("# fit_baseline slope="):
            baseline = float(line.split("slope=")[1].split()[0])
    return total, baseline


def test_criterion_07_error_growth_slopes(tmp_path):
    start = time.time()
    failures = []
    cases = [
        ("alpha=1\n", (1.35, 1.65)),
        ("alpha=0.3\n", (1.55, 1.85)),
    ]
    slopes = []
    for i, (body, window) in enumerate(cases):
        cfg = tmp_path / f"scale{i}.cfg"
        cfg.write_text(body + "trials=0\n")
        out = tmp_path / f"scale{i}.csv"
        assert main(["scaling", "--config", str(cfg), "--out", str(out)]) == 0
        total, baseline = _slope_from_csv(out)
        slopes.append(total)
        lo, hi = window
        if not lo <= total <= hi:
            failures.append(f"{body.strip()}: slope {total:.3f} outside [{lo}, {hi}]")
        if not 1.95 <= baseline <= 2.05:
            failures.append(f"{body.strip()}: baseline slope {baseline:.3f}")
    elapsed = time.time() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.0f}s, budget 60s")
    _report(7, "scheme error grows subquadratically along the size grid", failures,
            f"slopes {slopes[0]:.3f} and {slopes[1]:.3f}, baseline 2.0, {elapsed:.0f}s")


def test_criterion_08_optimal_rank_exponent():
    failures = []
    for alpha, want in ((1.0, 0.5), (0.5, 1.0), (0.25, 1.0)):
        got = optimal_beta(alpha)[0]
        if got != want:
            failures.append(f"alpha={alpha}: got {got}, want {want}")
    _report(8, "optimal rank-growth exponent", failures,
            "beta(1)=0.5, beta(0.5)=1, beta(0.25)=1, exact")


def test_criterion_09_max_amplitude_obeys_magnitude_budget(tmp_path):
    failures = []
    rng = np.random.default_rng(99)
    for i in range(20):
        m = int(rng.integers(8, 129))
        n = int(rng.integers(8, 129))
        dev = DeviceParams(r_T=10.0 ** rng.uniform(-1, 1), rho=10.0 ** rng.uniform(-1, 1))
        r = int(rng.integers(1, min(m, n) + 1))
        A = harmonic_matrix(m, n, r, lambda_max(m, n, dev), rng)
        if not magnitude_check(A, dev).satisfied:
            failures.append(f"config {i} ({m}x{n} r={r}) fails at max amplitude")

    # finite-r slack: 1% over the ceiling still fits while the inverse-square
    # partial sum is small, so force a high rank where it cannot
    dev = DeviceParams()
    hot = harmonic_matrix(80, 80, 64, 1.01 * lambda_max(80, 80, dev),
                          np.random.default_rng(7))
    if magnitude_check(hot, dev).satisfied:
        failures.append("1.01x amplitude at r=64 passed the magnitude check")
    mat = tmp_path / "hot.mat"
    write_matrix(hot, str(mat))
    if main(["validate", str(mat), "--out", str(tmp_path / "hot.report")]) != 1:
        failures.append("validate did not flag the 1.01x amplitude matrix")

    _report(9, "amplitude ceiling saturates the conductance budget", failures,
            "20 random device configs pass at the ceiling; 1.01x at r=64 is flagged")


def test_criterion_10_byte_identical_reruns(tmp_path):
    failures = []
    cfg = tmp_path / "det.cfg"
    cfg.write_text("m=12\nn=12\nr=3\nlambda=3\ntrials=400\n")
    grid = tmp_path / "grid.cfg"
    grid.write_text("n_grid=16 32 64 128\ntrials=0\n")
    mat = tmp_path / "det.mat"
    assert main(["gen", "--config", str(cfg), "--out", str(mat)]) == 0

    runs = {
        "gen": ["gen", "--config", str(cfg)],
        "validate": ["validate", str(mat), "--config", str(cfg)],
        "sweep-csv": ["sweep", "--config", str(cfg)],
        "sweep-json": ["sweep", "--config", str(cfg), "--format", "json"],
        "scaling": ["scaling", "--config", str(grid)],
        "mc": ["mc", "--config", str(cfg)],
    }
    for label, argv in runs.items():
        a = tmp_path / f"{label}-a.out"
        b = tmp_path / f"{label}-b.out"
        ra = main(argv + ["--out", str(a)])
        rb = main(argv + ["--out", str(b)])
        if ra != rb:
            failures.append(f"{label}: exit codes differ ({ra} vs {rb})")
        if a.read_bytes() != b.read_bytes():
            failures.append(f"{label}: reruns differ")

    for label, argv in (("sweep", ["sweep", "--config", str(cfg)]),
                        ("mc", ["mc", "--config", str(cfg)])):
        one = tmp_path / f"{label}-l1.out"
        four = tmp_path / f"{label}-l4.out"
        main(argv + ["--lanes", "1", "--out", str(one)])
        main(argv + ["--lanes", "4", "--out", str(four)])
        if one.read_bytes() != four.read_bytes():
            failures.append(f"{label}: lane count changed the bytes")

    _report(10, "same seed gives byte-identical output at any lane count",
            failures, "5 commands rerun, sweep and mc also at 1 vs 4 lanes")
