"""Experiment orchestration: rank sweeps, scaling studies, MC validation.

Configs are flat key=value text files ('#' starts a comment), parsed by
one table that gives each key its config field and its kind of value;
every key has a default matching the standard demonstration setup
(100x100 array, rank-16 harmonic spectrum, lam=10, all write variances
0.05, input variance 3). `ExperimentConfig` checks its own keys,
`n_grid` and the scaling knobs too, whatever the command, and leaves
the noise and device keys to `NoiseSpec` and `DeviceParams`, turning
their errors into `ConfigError`. `lambda` and `beta` are checked as the
values the program uses, so a `lambda=max` that resolves to a
non-finite or zero value is a `ConfigError` too. `run_scaling` asks
`analysis.t_L_max` for a row's budget refusals and names the row in
them; it adds only its own caps. `target(config)` is the
one place the target matrix is built, and it refuses a config whose
larger side squared exceeds `MAX_SQUARE_CELLS`. The target is built
from, and every closed form is evaluated on, the prescribed spectrum
`matrixgen.harmonic_spectrum(lam, r)`, the singular values lam/i, i <= r.

Every stream is `rng.child_stream(master_seed, *key)`, built here and
handed as a Generator to the function that draws from it: the target's,
keyed (STREAM_MATRIX,), and one per MC estimate.

Every result is a table of one row dataclass, written by one CSV and one
JSON writer: the columns are the row's fields, and the extra lines or
keys of each kind are `# key=value` comments in CSV. Emission is
deterministic: same config and seed give byte-identical CSV or JSON.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analysis import (
    baseline_error_analytic,
    lambda_max,
    least,
    optimal_beta,
    optimize_rank,
    optimize_repetitions,
    t_L_max,
)
from .core import DeviceParams
from .lowrank import svd
from .matrixgen import harmonic_matrix, harmonic_spectrum
from .montecarlo import compare, run_baseline_trials, run_two_step_trials
from .rng import child_stream
from .schemes import NoiseSpec, budget_feasible

# stream roles: the target's stream, and one stream per MC estimate (the
# two-step one at rank k is keyed (STREAM_MC_TWOSTEP, k) in sweep and mc alike)
STREAM_MATRIX = 0
STREAM_MC_BASELINE = 2
STREAM_MC_TWOSTEP = 3

# cap on max(m, n)**2, so max(m, n) may be at most 8192: it bounds the
# target's m*n float64 cells to 512 MiB, and the optimizer's t_L scan to
# fewer than 8192 candidates per k, whether or not a target is built
MAX_SQUARE_CELLS = 2 ** 26
# cap on one scaling row's work and memory: the t_L candidates the
# optimizer scans (a row at k = 1 scans n - 1 of them, so such rows may
# have n up to 2**20 + 1) and the rank r, whose spectrum is r floats
# (8 MiB at the cap)
MAX_SCALING_SCAN = 2 ** 20

SWEEP_SCHEMA = "# crossbar-lowrank sweep v1"
SCALING_SCHEMA = "# crossbar-lowrank scaling v1"
MC_SCHEMA = "# crossbar-lowrank mc v1"


class ConfigError(ValueError):
    pass


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


@dataclass(frozen=True)
class ExperimentConfig:
    m: int = 100
    n: int = 100
    r: int = 16
    lam: float | str = 10.0           # "max" saturates the magnitude budget
    sigma_e_sq: float = 0.05
    sigma_L_sq: float = 0.05
    sigma_R_sq: float = 0.05
    sigma_b_sq: float = 3.0
    trials: int = 10000
    master_seed: int = 12345
    dist: str = "gaussian"
    rho: float = 1.0
    r_T: float = 1.0
    k_range: str | tuple[int, ...] = "all"
    # scaling-study knobs
    alpha: float = 1.0
    beta: float | str = "optimal"
    c1: float = 0.5
    c2: float = 1.0
    n_grid: tuple[int, ...] = (256, 512, 1024, 2048, 4096, 8192)

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ConfigError(f"m and n must be positive, got {self.m}x{self.n}")
        if not 1 <= self.r <= min(self.m, self.n):
            raise ConfigError(f"r must be in [1, min(m, n)], got {self.r}")
        try:
            self.noise()
            self.device()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        lam = self.resolved_lambda()
        if not _finite_positive(lam):
            got = (f"{self.lam}, which resolves to {lam!r}"
                   if isinstance(self.lam, str) else self.lam)
            raise ConfigError(f"lambda must be finite and positive or 'max', got {got}")
        if not _finite_positive(self.sigma_b_sq):
            raise ConfigError(f"sigma_b_sq must be finite and positive, got {self.sigma_b_sq}")
        if self.trials < 0 or self.trials == 1:
            raise ConfigError(f"trials must be 0 (analytic only) or >= 2, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got {self.master_seed}")
        # checked as written: resolving "all" builds r ints, and scaling takes any r
        if self.k_range != "all":
            ks = self.k_range
            if not ks or any(not 1 <= k <= self.r for k in ks):
                raise ConfigError(f"k_range entries must lie in [1, r]=[1, {self.r}]")
            if list(ks) != sorted(set(ks)):
                raise ConfigError("k_range must be strictly increasing")
        if not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0 < self.resolved_beta() <= 1:
            raise ConfigError(f"beta must lie in (0, 1] or be 'optimal', got {self.beta}")
        if not 0 < self.c1 <= 1 or not 0 < self.c2 <= 1:
            raise ConfigError("c1 and c2 must lie in (0, 1]")
        grid = self.n_grid
        if len(grid) < 4:
            raise ConfigError(f"n_grid needs at least 4 sizes, got {len(grid)}")
        if grid[0] < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing sizes >= 2")
        ratio = grid[1] / grid[0]
        for a, b in zip(grid, grid[1:]):
            if abs(b / a - ratio) > 0.01 * ratio:
                raise ConfigError(f"n_grid must be geometrically spaced; step {a}->{b} "
                                  f"breaks the ratio {ratio:g}")

    def device(self) -> DeviceParams:
        return DeviceParams(r_T=self.r_T, rho=self.rho)

    def noise(self) -> NoiseSpec:
        return NoiseSpec(sigma_e_sq=self.sigma_e_sq, sigma_L_sq=self.sigma_L_sq,
                         sigma_R_sq=self.sigma_R_sq, dist=self.dist)

    def resolved_lambda(self) -> float:
        if self.lam == "max":
            return lambda_max(self.m, self.n, self.device())
        return float(self.lam)

    def resolved_beta(self) -> float:
        if self.beta == "optimal":
            return optimal_beta(self.alpha)[0]
        return float(self.beta)

    def resolved_k_range(self) -> tuple[int, ...]:
        if self.k_range == "all":
            return tuple(range(1, self.r + 1))
        return tuple(self.k_range)


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines to a raw string mapping; '#' starts a comment."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected key=value, got {line.strip()!r}")
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _int_list(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.replace(",", " ").split())


# a kind of value: its parser, which raises ValueError on a bad value, and
# what the error message says a value must be
_INTEGER = (int, "an integer")
_NUMBER = (float, "a number")
_NAME = (str, "a name")
_INT_LIST = (_int_list, "a comma-separated integer list")


def _keyword_or(keyword: str, kind):
    """`kind`, except that `keyword` is kept as written."""
    parse, what = kind
    return (lambda value: value if value == keyword else parse(value)), what


# config-file key -> (ExperimentConfig field, kind of value)
_CONFIG_KEYS = {
    "m": ("m", _INTEGER), "n": ("n", _INTEGER), "r": ("r", _INTEGER),
    "lambda": ("lam", _keyword_or("max", _NUMBER)),
    "sigma_e_sq": ("sigma_e_sq", _NUMBER), "sigma_L_sq": ("sigma_L_sq", _NUMBER),
    "sigma_R_sq": ("sigma_R_sq", _NUMBER), "sigma_b_sq": ("sigma_b_sq", _NUMBER),
    "trials": ("trials", _INTEGER), "master_seed": ("master_seed", _INTEGER),
    "dist": ("dist", _NAME), "rho": ("rho", _NUMBER), "r_T": ("r_T", _NUMBER),
    "k_range": ("k_range", _keyword_or("all", _INT_LIST)),
    "alpha": ("alpha", _NUMBER), "beta": ("beta", _keyword_or("optimal", _NUMBER)),
    "c1": ("c1", _NUMBER), "c2": ("c2", _NUMBER), "n_grid": ("n_grid", _INT_LIST),
}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field, (parse, what) = _CONFIG_KEYS[key]
        try:
            kwargs[field] = parse(value)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return ExperimentConfig(**kwargs)


def load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))


class Fit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def fit_loglog_slope(points) -> Fit:
    """Ordinary least squares on (ln n, ln value)."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    xs, ys = [], []
    for n, v in pts:
        if n <= 0 or v <= 0:
            raise ValueError(f"log-log fit needs positive values, got ({n}, {v})")
        xs.append(math.log(n))
        ys.append(math.log(v))
    xbar = math.fsum(xs) / len(xs)
    ybar = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all n values coincide; slope undefined")
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = math.fsum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - ybar) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return Fit(slope, intercept, r_squared)


@dataclass(frozen=True, kw_only=True)
class SweepRow:
    """One k of a sweep; an infeasible k leaves every optional column None."""

    k: int
    t_L: int
    t_R: int
    feasible: bool
    analytic_total: float | None = None
    analytic_truncation: float | None = None
    analytic_stage1: float | None = None
    analytic_stage2: float | None = None
    analytic_accumulated: float | None = None
    mc_mean: float | None = None
    mc_stderr: float | None = None
    baseline_analytic: float
    normalized: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    argmin_k: int | None
    lam_resolved: float
    config: ExperimentConfig


def _check_target_size(config: ExperimentConfig) -> None:
    side = max(config.m, config.n)
    if side * side > MAX_SQUARE_CELLS:
        raise ConfigError(
            f"m={config.m}, n={config.n}: a side over {math.isqrt(MAX_SQUARE_CELLS)} is "
            f"refused, a cap that bounds the target's cells and the optimizer's t_L scan")


def target(config: ExperimentConfig) -> np.ndarray:
    """The config's harmonic target matrix, drawn from its own stream,
    child_stream(master_seed, STREAM_MATRIX): an m x r Gaussian block for
    U, then an n x r one for V. Its singular values are
    harmonic_spectrum(resolved lambda, r) up to round-off. A config whose
    larger side squared exceeds MAX_SQUARE_CELLS is a ConfigError.
    """
    _check_target_size(config)
    return harmonic_matrix(config.m, config.n, config.r, config.resolved_lambda(),
                           child_stream(config.master_seed, STREAM_MATRIX))


def _require_baseline_noise(config: ExperimentConfig) -> None:
    """Sweep and scaling rows normalize by the baseline error, which is 0
    without baseline write noise."""
    if config.sigma_e_sq == 0:
        raise ConfigError("sigma_e_sq must be positive for sweep and scaling: "
                          "their normalized column divides by the baseline error")


def _analytic_columns(bd, baseline: float) -> dict:
    """The closed-form columns shared by sweep and scaling rows; a
    normalized error that is not finite in float64 is a ValueError."""
    normalized = bd.total / baseline
    if not math.isfinite(normalized):
        raise ValueError(f"the normalized error {bd.total} / {baseline} is {normalized} "
                         f"in float64: the two-step error dwarfs the baseline error")
    return dict(analytic_total=bd.total, analytic_truncation=bd.truncation,
                analytic_stage1=bd.stage1_noise, analytic_stage2=bd.stage2_noise,
                analytic_accumulated=bd.accumulated,
                baseline_analytic=baseline, normalized=normalized)


@contextlib.contextmanager
def _naming(what: str, error: type[ValueError] | None = None):
    """Put `what` in front of a ValueError raised in the block, raising it
    as `error`, or as its own type by default."""
    try:
        yield
    except ValueError as exc:
        raise (error or type(exc))(f"{what}: {exc}") from None


def _check_lanes(lanes: int) -> None:
    """`lanes` is accepted for compatibility and has no effect: MC runs its
    blocks in order on the calling thread. It must still be >= 1."""
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")


def _two_step_mc(config: ExperimentConfig, A: np.ndarray, s, k: int, t_L: int, t_R: int):
    """MC of the two-step scheme at rank k; sweep and mc share its stream."""
    return run_two_step_trials(s, A, k, t_L, t_R, config.noise(),
                               config.sigma_b_sq, config.trials,
                               child_stream(config.master_seed, STREAM_MC_TWOSTEP, k))


def run_sweep(config: ExperimentConfig, lanes: int = 1) -> SweepResult:
    """Per-k comparison of the two-step scheme against the baseline.

    Each k gets budget-optimal repetitions and the closed-form breakdown,
    both evaluated on the prescribed spectrum harmonic_spectrum(resolved
    lambda, r), so they do not depend on the seed. When trials > 0, one
    harmonic target matrix is generated for the whole sweep and each k
    gets the Monte Carlo estimate run_mc gives that k, from the same stream;
    the target and its SVD are computed only then. Infeasible k values are
    emitted flagged instead of aborting; analysis.least picks argmin_k, as
    it picks optimize_rank's k. `lanes` has no effect (see _check_lanes).
    The target's size cap holds at every trial count.
    """
    _check_lanes(lanes)
    _require_baseline_noise(config)
    _check_target_size(config)
    singulars = harmonic_spectrum(config.resolved_lambda(), config.r)
    if config.trials > 0:
        A = target(config)
        s = svd(A)
    noise = config.noise()
    baseline = baseline_error_analytic(config.m, config.n,
                                       config.sigma_e_sq, config.sigma_b_sq)
    rows: list[SweepRow] = []
    for k in config.resolved_k_range():
        if not budget_feasible(config.m, config.n, k, 1, 1):
            rows.append(SweepRow(k=k, t_L=0, t_R=0, feasible=False,
                                 baseline_analytic=baseline))
            continue
        with _naming(f"rank {k}"):
            t_L, t_R, bd = optimize_repetitions(singulars, config.m, config.n,
                                                k, noise, config.sigma_b_sq)
            mc_mean = mc_stderr = None
            if config.trials > 0:
                res = _two_step_mc(config, A, s, k, t_L, t_R)
                mc_mean, mc_stderr = res.mean_sq_error, res.std_error
            rows.append(SweepRow(k=k, t_L=t_L, t_R=t_R, feasible=True,
                                 mc_mean=mc_mean, mc_stderr=mc_stderr,
                                 **_analytic_columns(bd, baseline)))
    feasible = [row for row in rows if row.feasible]
    best = feasible[least([row.analytic_total for row in feasible])] if feasible else None
    return SweepResult(rows=rows, argmin_k=None if best is None else best.k,
                       lam_resolved=config.resolved_lambda(), config=config)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    r: int
    k: int
    t_L: int
    t_R: int
    analytic_total: float
    analytic_truncation: float
    analytic_stage1: float
    analytic_stage2: float
    analytic_accumulated: float
    baseline_analytic: float
    normalized: float


@dataclass(frozen=True)
class ScalingResult:
    rows: list[ScalingRow]
    fit_total: Fit
    fit_baseline: Fit
    beta_resolved: float
    config: ExperimentConfig


def run_scaling(config: ExperimentConfig) -> ScalingResult:
    """Analytic error growth along n with r = floor(c2*n^alpha) and
    k = max(1, floor(c1*r^beta)); lam saturates the magnitude budget at
    every size. Emits per-n rows plus fitted log-log slopes.

    Before any row is computed, each row asks analysis.t_L_max for its
    scan, so a budget n*n or a rank k that the optimizer refuses is a
    ConfigError naming the row; so is a row whose rank r or t_L scan
    exceeds MAX_SCALING_SCAN, or whose lambda_max is not finite and
    positive. ExperimentConfig has already checked the grid."""
    _require_baseline_noise(config)
    beta = config.resolved_beta()
    dev = config.device()
    noise = config.noise()
    sizes = []
    for n in config.n_grid:
        r = min(n, max(1, math.floor(config.c2 * n ** config.alpha)))
        k = min(r, max(1, math.floor(config.c1 * r ** beta)))
        with _naming(f"scaling row n={n}, k={k}", ConfigError):
            scan = t_L_max(n, n, k)
        if r > MAX_SCALING_SCAN:
            raise ConfigError(
                f"scaling row n={n}, r={r}: the spectrum would hold {r} "
                f"values, over the cap of {MAX_SCALING_SCAN}")
        if scan > MAX_SCALING_SCAN:
            raise ConfigError(
                f"scaling row n={n}, k={k}: the optimizer would scan {scan} "
                f"t_L values, over the cap of {MAX_SCALING_SCAN}")
        lam = lambda_max(n, n, dev)
        if not _finite_positive(lam):
            raise ConfigError(
                f"scaling row n={n}: lambda_max is {lam!r}, not finite and positive")
        sizes.append((n, r, k, lam))
    rows: list[ScalingRow] = []
    for n, r, k, lam in sizes:
        t_L, t_R, bd = optimize_repetitions(harmonic_spectrum(lam, r),
                                            n, n, k, noise, config.sigma_b_sq)
        baseline = baseline_error_analytic(n, n, config.sigma_e_sq, config.sigma_b_sq)
        rows.append(ScalingRow(n=n, r=r, k=k, t_L=t_L, t_R=t_R,
                               **_analytic_columns(bd, baseline)))
    return ScalingResult(
        rows=rows,
        fit_total=fit_loglog_slope([(row.n, row.analytic_total) for row in rows]),
        fit_baseline=fit_loglog_slope([(row.n, row.baseline_analytic) for row in rows]),
        beta_resolved=beta, config=config)


@dataclass(frozen=True)
class McRow:
    scheme: str
    k: int | None
    t_L: int | None
    t_R: int | None
    trials: int
    mean_sq_error: float
    std_error: float
    analytic: float
    z: float
    passed: bool


@dataclass(frozen=True)
class McResult:
    rows: list[McRow]
    all_passed: bool
    lam_resolved: float
    config: ExperimentConfig


def run_mc(config: ExperimentConfig, lanes: int = 1) -> McResult:
    """Monte Carlo vs analytic for one config: the baseline scheme plus
    the two-step scheme at each k in k_range (or at the overall optimal
    k when k_range is 'all'). `lanes` has no effect (see _check_lanes).

    The analytic values, and the optimizer's choices, come from the
    prescribed spectrum harmonic_spectrum(resolved lambda, r), as in
    run_sweep; the MC runs on the generated target, whose SVD gives only
    the factors. Every verdict therefore also checks that the target has
    the spectrum the formulas assume. The ranks and repetitions are chosen
    before any MC runs, so a choice that fails costs no trials."""
    _check_lanes(lanes)
    if config.trials < 2:
        raise ConfigError(f"mc needs trials >= 2, got {config.trials}")
    _check_target_size(config)
    singulars = harmonic_spectrum(config.resolved_lambda(), config.r)
    noise = config.noise()
    base_analytic = baseline_error_analytic(config.m, config.n,
                                            config.sigma_e_sq, config.sigma_b_sq)
    if config.k_range == "all":
        choices = [optimize_rank(singulars, config.m, config.n, noise,
                                 config.sigma_b_sq, config.r)]
    else:
        choices = []
        for k in config.k_range:
            with _naming(f"rank {k}"):
                choices.append((k, *optimize_repetitions(singulars, config.m, config.n,
                                                         k, noise, config.sigma_b_sq)))
    A = target(config)
    s = svd(A)

    def row(scheme, k, t_L, t_R, res, analytic) -> McRow:
        with _naming(scheme if k is None else f"{scheme} k={k}"):
            z, ok = compare(res, analytic)
        return McRow(scheme=scheme, k=k, t_L=t_L, t_R=t_R, trials=res.trials,
                     mean_sq_error=res.mean_sq_error, std_error=res.std_error,
                     analytic=analytic, z=z, passed=ok)

    base_res = run_baseline_trials(A, noise, config.sigma_b_sq, config.trials,
                                   child_stream(config.master_seed, STREAM_MC_BASELINE))
    rows = [row("baseline", None, None, None, base_res, base_analytic)]
    rows += [row("two_step", k, t_L, t_R, _two_step_mc(config, A, s, k, t_L, t_R), bd.total)
             for k, t_L, t_R, bd in choices]
    return McResult(rows=rows, all_passed=all(r.passed for r in rows),
                    lam_resolved=config.resolved_lambda(), config=config)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _comment(head: str, values: dict) -> str:
    """A '# ...' line: head, then one key=value per entry."""
    return " ".join([head, *(f"{k}={_fmt(v)}" for k, v in values.items())])


def _config_comment(config: ExperimentConfig, lam: float) -> str:
    c = config
    return _comment("# config", {
        "m": c.m, "n": c.n, "r": c.r, "lambda": lam, "sigma_e_sq": c.sigma_e_sq,
        "sigma_L_sq": c.sigma_L_sq, "sigma_R_sq": c.sigma_R_sq,
        "sigma_b_sq": c.sigma_b_sq, "dist": c.dist, "rho": c.rho, "r_T": c.r_T,
        "trials": c.trials, "seed": c.master_seed})


def _table_csv(schema: str, config_line: str, row_type, rows, tail: list[str]) -> str:
    """Schema, config line, header, one line per row, then the tail lines."""
    names = [f.name for f in dataclasses.fields(row_type)]
    lines = [schema, config_line,
             ",".join("pass" if name == "passed" else name for name in names)]
    lines.extend(",".join(_fmt(getattr(row, name)) for name in names) for row in rows)
    lines.extend(tail)
    return "\n".join(lines) + "\n"


def _table_json(schema: str, config: ExperimentConfig, rows, **extra) -> str:
    d = dataclasses.asdict(config)
    d["k_range"] = list(config.resolved_k_range())
    doc = {"schema": schema.lstrip("# "), "config": d,
           "rows": [dataclasses.asdict(row) for row in rows], **extra}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sweep_summary(result: SweepResult) -> str:
    if result.argmin_k is None:
        return "# argmin none (no feasible k)"
    row = next(r for r in result.rows if r.k == result.argmin_k)
    return _comment("# argmin", {"k": row.k, "t_L": row.t_L, "t_R": row.t_R,
                                 "normalized": row.normalized})


def sweep_csv(result: SweepResult) -> str:
    return _table_csv(SWEEP_SCHEMA, _config_comment(result.config, result.lam_resolved),
                      SweepRow, result.rows, [sweep_summary(result)])


def scaling_csv(result: ScalingResult) -> str:
    c = result.config
    head = _comment("# config", {
        "alpha": c.alpha, "beta": result.beta_resolved, "c1": c.c1, "c2": c.c2,
        "sigma_L_sq": c.sigma_L_sq, "sigma_R_sq": c.sigma_R_sq,
        "sigma_e_sq": c.sigma_e_sq, "sigma_b_sq": c.sigma_b_sq,
        "rho": c.rho, "r_T": c.r_T})
    return _table_csv(SCALING_SCHEMA, head, ScalingRow, result.rows,
                      [_comment("# fit_total", result.fit_total._asdict()),
                       _comment("# fit_baseline", result.fit_baseline._asdict())])


def mc_csv(result: McResult) -> str:
    return _table_csv(MC_SCHEMA, _config_comment(result.config, result.lam_resolved),
                      McRow, result.rows, [_comment("#", {"all_passed": result.all_passed})])


def sweep_json(result: SweepResult) -> str:
    return _table_json(SWEEP_SCHEMA, result.config, result.rows,
                       lambda_resolved=result.lam_resolved, argmin_k=result.argmin_k)


def scaling_json(result: ScalingResult) -> str:
    return _table_json(SCALING_SCHEMA, result.config, result.rows,
                       beta_resolved=result.beta_resolved,
                       fit_total=result.fit_total._asdict(),
                       fit_baseline=result.fit_baseline._asdict())


def mc_json(result: McResult) -> str:
    return _table_json(MC_SCHEMA, result.config, result.rows,
                       lambda_resolved=result.lam_resolved, all_passed=result.all_passed)
