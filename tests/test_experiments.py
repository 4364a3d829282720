import ast
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crossbar_lowrank.analysis import (
    MAX_SCAN,
    ErrorBreakdown,
    InfeasibleBudgetError,
    baseline_error_analytic,
    budget_feasible,
    lambda_max,
    optimal_beta,
)
from crossbar_lowrank import analysis, experiments, lowrank, matrixgen, montecarlo
from crossbar_lowrank.experiments import (
    MAX_SCALING_RANK,
    MAX_SQUARE_CELLS,
    MC_SCHEMA,
    SCALING_SCHEMA,
    SWEEP_SCHEMA,
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    fit_loglog_slope,
    load_config,
    mc_csv,
    mc_json,
    parse_config_text,
    run_mc,
    run_scaling,
    run_sweep,
    scaling_csv,
    scaling_json,
    sweep_csv,
    sweep_json,
    sweep_summary,
    target,
)
from crossbar_lowrank.lowrank import RANK_TOL_REL, singular_values, svd
from crossbar_lowrank.matrixgen import harmonic_spectrum
from crossbar_lowrank.montecarlo import (check_target, compare, run_baseline_trials,
                                         run_two_step_trials)
from crossbar_lowrank.rng import child_stream

SMALL = dict(m=16, n=16, r=4, lam=4.0, trials=0)


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "\n".join([
            "# full line comment",
            "",
            "m = 20   # trailing comment",
            "n=10",
            "lambda = max",
        ])
        raw = parse_config_text(text)
        assert raw == {"m": "20", "n": "10", "lambda": "max"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("m=3\nm=4\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just words\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_config_text("m=\n")

    def test_mapping_conversions(self):
        cfg = config_from_mapping({
            "m": "20", "n": "10", "r": "5", "lambda": "max",
            "beta": "optimal", "k_range": "1,2,4", "n_grid": "16 32 64 128",
            "trials": "0", "dist": "uniform", "sigma_e_sq": "0.01",
        })
        assert (cfg.m, cfg.n, cfg.r) == (20, 10, 5)
        assert cfg.lam == "max"
        assert cfg.beta == "optimal"
        assert cfg.k_range == (1, 2, 4)
        assert cfg.n_grid == (16, 32, 64, 128)
        assert cfg.dist == "uniform"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"mm": "3"})

    def test_bad_int(self):
        with pytest.raises(ConfigError, match="integer"):
            config_from_mapping({"m": "3.5"})

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="number"):
            config_from_mapping({"sigma_e_sq": "lots"})

    @pytest.mark.parametrize("raw,message", [
        ({"lambda": "huge"}, "lambda must be a number, got 'huge'"),
        ({"lambda": "-1"}, "lambda must be finite and positive or 'max', got -1.0"),
        ({"beta": "best"}, "beta must be a number, got 'best'"),
        ({"beta": "1.5"}, "beta must lie in (0, 1], got 1.5"),
        ({"k_range": "1,two"}, "k_range must be a comma-separated integer list, got '1,two'"),
        ({"n_grid": "16 32.5"}, "n_grid must be a comma-separated integer list, got '16 32.5'"),
    ])
    def test_bad_value_messages(self, raw, message):
        with pytest.raises(ConfigError) as info:
            config_from_mapping(raw)
        assert str(info.value) == message

    def test_key_table_covers_every_field_once(self):
        table = sorted(field for field, _ in experiments._CONFIG_KEYS.values())
        assert table == sorted(f.name for f in dataclasses.fields(ExperimentConfig))

    def test_readme_documents_every_key_and_default(self):
        # the README's "Config keys and defaults" block is itself a config
        # file: it must name every key and parse to the defaults
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config keys and defaults:", 1)[1].split("```", 2)[1]
        raw = parse_config_text(block)
        assert set(raw) == set(experiments._CONFIG_KEYS)
        assert config_from_mapping(raw) == ExperimentConfig()

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        total, mean = map(float, capsys.readouterr().out.split())
        assert math.isfinite(total) and math.isfinite(mean) and mean > 0

    def test_load_config_defaults_without_path(self):
        assert load_config(None) == ExperimentConfig()

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text("m=12\nn=12\nr=3\ntrials=0\n")
        cfg = load_config(str(p))
        assert (cfg.m, cfg.n, cfg.r, cfg.trials) == (12, 12, 3, 0)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert (cfg.m, cfg.n, cfg.r) == (100, 100, 16)
        assert cfg.lam == 10.0
        assert cfg.trials == 10000

    def test_trials_one_rejected(self):
        with pytest.raises(ConfigError, match="trials"):
            ExperimentConfig(trials=1)

    def test_trials_zero_allowed(self):
        assert ExperimentConfig(trials=0).trials == 0

    def test_trials_capped(self):
        # the MC's own rule, with its message, before any target is built
        assert ExperimentConfig(trials=montecarlo.MAX_TRIALS).trials == 2 ** 24
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(trials=montecarlo.MAX_TRIALS + 1)
        with pytest.raises(ValueError) as mc_err:
            montecarlo.check_run(3.0, montecarlo.MAX_TRIALS + 1)
        assert str(err.value) == str(mc_err.value) == (
            "trials must be at most 16777216, got 16777217")

    def test_rank_beyond_dims(self):
        with pytest.raises(ConfigError, match="r must"):
            ExperimentConfig(m=4, n=10, r=5)

    def test_k_range_bounds(self):
        with pytest.raises(ConfigError, match="k_range"):
            ExperimentConfig(r=4, k_range=(1, 5))

    def test_k_range_order(self):
        with pytest.raises(ConfigError, match="increasing"):
            ExperimentConfig(r=4, k_range=(3, 1))

    def test_alpha_window(self):
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(alpha=0.0)
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(alpha=1.2)

    def test_constant_windows(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(c1=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(c2=1.5)

    @pytest.mark.parametrize("key", ["sigma_e_sq", "sigma_L_sq", "sigma_R_sq", "sigma_b_sq",
                                     "rho", "r_T", "lambda"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, key, bad):
        with pytest.raises(ConfigError, match="finite"):
            config_from_mapping({key: bad})

    def test_seed_width(self):
        # a seed of any width is valid; a negative one is not
        assert ExperimentConfig(master_seed=2 ** 64).master_seed == 2 ** 64
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig(master_seed=-1)

    def test_bad_dist(self):
        with pytest.raises(ConfigError, match="dist"):
            ExperimentConfig(dist="poisson")

    def test_lambda_checked_after_device(self):
        with pytest.raises(ConfigError, match="rho"):
            ExperimentConfig(lam="max", rho=0.0)

    def test_resolvers(self):
        cfg = ExperimentConfig(lam="max", beta="optimal", alpha=1.0)
        assert cfg.resolved_lambda() == lambda_max(100, 100, cfg.device())
        assert cfg.growth().beta == optimal_beta(1.0)[0]
        assert ExperimentConfig(r=3).resolved_k_range() == (1, 2, 3)
        assert ExperimentConfig(r=5, k_range=(2, 4)).resolved_k_range() == (2, 4)


class TestTargetCap:
    """target() refuses a config whose larger side squared exceeds
    MAX_SQUARE_CELLS, before it draws anything."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "prescribed_factors",
                            lambda m, n, *rest: calls.append((m, n))
                            or matrixgen.prescribed_factors(m, n, *rest))
        return calls

    def test_largest_allowed_side(self, built):
        side = math.isqrt(MAX_SQUARE_CELLS)
        assert side * side == MAX_SQUARE_CELLS
        A, s = target(ExperimentConfig(m=1, n=side, r=1))
        assert A.shape == s.shape == (1, side)
        A, s = target(ExperimentConfig(m=side, n=3, r=1))
        assert A.shape == s.shape == (side, 3)
        assert built == [(1, side), (side, 3)]

    @pytest.mark.parametrize("m,n", [(8193, 1), (1, 8193), (200000, 4)])
    def test_larger_side_rejected_before_building(self, built, m, n):
        with pytest.raises(ConfigError, match="cap"):
            target(ExperimentConfig(m=m, n=n, r=1))
        assert built == []


class TestLogLogFit:
    def test_exact_square_law(self):
        slope, intercept, r2 = fit_loglog_slope([(n, float(n * n)) for n in (2, 4, 8, 16)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_scaled_power_law(self):
        pts = [(n, 5.0 * n ** 1.5) for n in (10, 100, 1000)]
        slope, intercept, r2 = fit_loglog_slope(pts)
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(5.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        slope, _, r2 = fit_loglog_slope([(2, 4.0), (8, 64.0)])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert r2 == 1.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 2.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 2.0), (8, -1.0)])
        for bad in ([(1, math.nan), (2, 1.0), (4, 2.0)], [(1, 1.0), (2, math.inf)],
                    [(math.nan, 1.0), (2, 1.0)], [(math.inf, 1.0), (2, 1.0)]):
            with pytest.raises(ValueError, match="needs positive values"):
                fit_loglog_slope(bad)
        with pytest.raises(ValueError):
            fit_loglog_slope([(4, 2.0), (4, 3.0)])


class TestRunSweep:
    def test_rows_cover_requested_ranks(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        assert [row.k for row in res.rows] == [1, 2, 3, 4]
        assert all(row.feasible for row in res.rows)

    def test_budget_postcondition(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        for row in res.rows:
            assert budget_feasible(16, 16, row.k, row.t_L, row.t_R)

    def test_normalized_identity(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        for row in res.rows:
            assert row.normalized == pytest.approx(
                row.analytic_total / row.baseline_analytic, rel=1e-12)

    def test_argmin_matches_rows(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        best = min(res.rows, key=lambda row: row.analytic_total)
        assert res.argmin_k == best.k

    def test_analytic_only_when_trials_zero(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        assert all(row.mc_mean is None and row.mc_stderr is None for row in res.rows)

    def test_full_rank_row_has_zero_truncation(self):
        res = run_sweep(ExperimentConfig(**SMALL, k_range=(4,)))
        (row,) = res.rows
        # analytics come from the prescribed spectrum, which has nothing
        # past r
        assert row.analytic_truncation == 0.0

    def test_mc_rows_when_trials_positive(self):
        cfg = ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=400)
        res = run_sweep(cfg)
        for row in res.rows:
            assert row.mc_mean > 0 and row.mc_stderr > 0
            assert abs(row.mc_mean - row.analytic_total) <= 5 * row.mc_stderr

    def test_infeasible_ranks_flagged_not_dropped(self):
        cfg = ExperimentConfig(m=8, n=8, r=8, lam=2.0, trials=0)
        res = run_sweep(cfg)
        assert [row.k for row in res.rows] == list(range(1, 9))
        for row in res.rows:
            if row.k <= 4:
                assert row.feasible
            else:
                assert not row.feasible
                assert (row.t_L, row.t_R) == (0, 0)
                assert row.analytic_total is None and row.normalized is None
        assert res.argmin_k <= 4

    def test_lane_count_does_not_change_output(self):
        cfg = ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=300)
        assert sweep_csv(run_sweep(cfg, lanes=1)) == sweep_csv(run_sweep(cfg, lanes=3))

    def test_rerun_is_byte_identical(self):
        cfg = ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=300)
        assert sweep_csv(run_sweep(cfg)) == sweep_csv(run_sweep(cfg))

    def test_seed_changes_mc_columns(self):
        a = run_sweep(ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=300))
        b = run_sweep(ExperimentConfig(m=12, n=12, r=3, lam=3.0, trials=300,
                                       master_seed=999))
        assert a.rows[0].mc_mean != b.rows[0].mc_mean
        # the analytics come from the prescribed spectrum, not from the
        # seeded target
        assert a.rows[0].analytic_total == b.rows[0].analytic_total


class TestSweepSingularVectors:
    """No command decomposes its target: the analytic sweep builds none,
    and an MC run takes the target's SVD from the factors it is built from."""

    # each name's message, and the module attributes a call could go through
    SITES = {
        "svd": ("singular vectors computed",
                [(experiments, "svd"), (lowrank, "svd"), (np.linalg, "svd")]),
        "singular_values": ("singular values computed",
                            [(experiments, "singular_values"),
                             (lowrank, "singular_values")]),
        "harmonic_matrix": ("target matrix built",
                            [(experiments, "harmonic_matrix"),
                             (experiments, "prescribed_factors"),
                             (matrixgen, "harmonic_matrix"),
                             (matrixgen, "prescribed_factors")]),
    }

    @classmethod
    def _refuse(cls, monkeypatch, *names):
        for name in names:
            what, sites = cls.SITES[name]

            def refuse(*args, what=what, **kwargs):
                raise AssertionError(what)
            for module, attr in sites:
                monkeypatch.setattr(module, attr, refuse, raising=False)

    def test_analytic_sweep_computes_none(self, monkeypatch):
        self._refuse(monkeypatch, "svd", "singular_values", "harmonic_matrix")
        res = run_sweep(ExperimentConfig(**SMALL))
        assert all(row.feasible and row.mc_mean is None for row in res.rows)

    def test_mc_sweep_computes_none(self, monkeypatch):
        self._refuse(monkeypatch, "svd", "singular_values")
        res = run_sweep(ExperimentConfig(**{**SMALL, "trials": 10}))
        assert all(row.mc_mean is not None for row in res.rows)

    def test_mc_computes_none(self, monkeypatch):
        self._refuse(monkeypatch, "svd", "singular_values")
        res = run_mc(ExperimentConfig(**{**SMALL, "trials": 10, "k_range": (1, 2)}))
        assert [row.k for row in res.rows] == [None, 1, 2]

    def test_experiments_calls_no_svd(self):
        # the source itself: no call of a name or attribute `svd` or
        # `singular_values`
        tree = ast.parse(Path(experiments.__file__).read_text())
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        names = {getattr(func, "id", getattr(func, "attr", None)) for func in calls}
        assert not names & {"svd", "singular_values"}

    def test_mc_sweep_builds_the_target(self, monkeypatch):
        self._refuse(monkeypatch, "harmonic_matrix")
        with pytest.raises(AssertionError, match="target matrix built"):
            run_sweep(ExperimentConfig(**{**SMALL, "trials": 10}))

    def test_largest_analytic_sweep_runs(self, monkeypatch):
        # the target cap's largest side: no matrix is built, and the cap
        # bounds every k's t_L scan to at most 8192 candidates
        self._refuse(monkeypatch, "svd", "singular_values", "harmonic_matrix")
        side = math.isqrt(MAX_SQUARE_CELLS)
        res = run_sweep(ExperimentConfig(m=side, n=side, r=64, lam="max", trials=0))
        assert [row.k for row in res.rows] == list(range(1, 65))
        assert all(row.feasible and row.t_L <= side for row in res.rows)

    def test_the_largest_plan_is_far_under_the_pass_cap(self, monkeypatch):
        # every rank at the largest side: the 4096 that fit (k <= side / 2)
        # scan 66,916 candidates in all, 6.4% of MAX_SCAN, in one pass
        self._refuse(monkeypatch, "svd", "singular_values", "harmonic_matrix")
        side = math.isqrt(MAX_SQUARE_CELLS)
        ranks = analysis.fitting_ranks(side, side, range(1, side + 1))
        assert ranks == list(range(1, side // 2 + 1))
        assert sum(analysis.t_L_max(side, side, k) for k in ranks) == 66_916 <= MAX_SCAN
        res = run_sweep(ExperimentConfig(m=side, n=side, r=side, trials=0))
        assert [row.k for row in res.rows] == list(range(1, side + 1))
        assert [row.feasible for row in res.rows] == [True] * len(ranks) + [False] * len(ranks)
        assert res.argmin_k == 4


def _assert_mc_checks_the_argmin_row(cfg: dict) -> None:
    """mc at k_range 'all' checks sweep's argmin row: its k, t_L, t_R and the
    analytic total's bits; where no rank fits, both refuse rank 1."""
    sweep = run_sweep(ExperimentConfig(**cfg, trials=0))
    if sweep.argmin_k is None:
        with pytest.raises(InfeasibleBudgetError, match=r"^rank 1 does not fit"):
            run_mc(ExperimentConfig(**cfg, trials=2))
        return
    want = next(row for row in sweep.rows if row.k == sweep.argmin_k)
    got = run_mc(ExperimentConfig(**cfg, trials=2)).rows[1]
    assert (got.k, got.t_L, got.t_R) == (want.k, want.t_L, want.t_R), cfg
    assert got.analytic.hex() == want.analytic_total.hex(), cfg


def _random_small_configs(count: int, seed: int) -> list[dict]:
    """Small configs with every noise, size and spectrum knob drawn at
    random, some with no rank that fits the budget."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        m, n = (int(v) for v in rng.integers(1, 25, size=2))
        lam = "max" if rng.random() < 0.2 else float(10 ** rng.uniform(-2, 3))
        configs.append(dict(
            m=m, n=n, r=int(rng.integers(1, min(m, n) + 1)), lam=lam,
            sigma_e_sq=float(10 ** rng.uniform(-3, 0)),
            sigma_L_sq=0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-3, 0)),
            sigma_R_sq=float(10 ** rng.uniform(-3, 0)),
            sigma_b_sq=float(10 ** rng.uniform(-2, 1)),
            master_seed=int(rng.integers(2 ** 32))))
    return configs


class TestPrescribedSpectrum:
    """Analytic values come from harmonic_spectrum(); MC runs on target().
    These pin the two to each other."""

    @pytest.mark.parametrize("m,n,r,lam", [
        (12, 12, 3, 3.0), (64, 48, 8, 2.0), (9, 30, 5, "max"),
        (40, 17, 17, "max"), (100, 100, 16, 10.0)])
    def test_target_has_the_spectrum(self, m, n, r, lam):
        cfg = ExperimentConfig(m=m, n=n, r=r, lam=lam, master_seed=7)
        expected = harmonic_spectrum(cfg.resolved_lambda(), r)
        s = singular_values(target(cfg)[0])
        np.testing.assert_allclose(s[:r], expected, rtol=1e-13, atol=0)
        assert np.all(s[r:] < RANK_TOL_REL * s[0])

    @pytest.mark.parametrize("m,n,r", [(100, 100, 16), (64, 48, 8), (12, 20, 12),
                                       (8, 8, 8), (5, 1, 1)])
    def test_target_svd_is_the_svd_of_the_target(self, m, n, r):
        # the generator's factors, signed as svd signs them: the same columns
        # that LAPACK recovers from A, to round-off
        A, got = target(ExperimentConfig(m=m, n=n, r=r, master_seed=7))
        want = lowrank.svd(A)
        assert got.shape == want.shape and got.rank == want.rank == r
        np.testing.assert_allclose(got.singulars, want.singulars[:r], rtol=1e-12, atol=0)
        for mine, theirs in ((got.U, want.U[:, :r]), (got.V, want.V[:, :r])):
            # unit columns, so an absolute bound is one relative to each column
            assert (np.einsum("ij,ij->j", mine, theirs) > 0).all()
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12)

    def test_sweep_and_mc_agree_bit_for_bit(self):
        cfg = dict(m=12, n=12, r=3, lam=3.0)
        sweep = run_sweep(ExperimentConfig(**cfg, trials=0))
        fixed = run_mc(ExperimentConfig(**cfg, k_range=(2,), trials=50))
        best = run_mc(ExperimentConfig(**cfg, trials=50))
        row = next(r for r in sweep.rows if r.k == 2)
        assert row.analytic_total == fixed.rows[1].analytic == 8.64
        assert (best.rows[1].k, best.rows[1].analytic) == (sweep.argmin_k, 8.64)

    @pytest.mark.parametrize("cfg", [
        dict(),  # m = n with sigma_L_sq = sigma_R_sq
        dict(m=12, n=12, r=3, lam=3.0),
        dict(m=40, n=24, r=8, lam=5.0, sigma_L_sq=0.02, sigma_R_sq=0.1),
        dict(m=40, n=40, r=3, lam=1e10),
        dict(m=40, n=40, r=8, lam=1e9, sigma_b_sq=1e-50),
        # the configs of the pinned tables and MC runs
        dict(m=8, n=8, r=4, lam=3.0),
        dict(m=8, n=8, r=8, lam=2.0),
        dict(m=2, n=2, r=2, lam=1.0),
        dict(m=32, n=32, r=8, dist="uniform"),
        dict(m=64, n=160, r=16, sigma_L_sq=0.02, sigma_R_sq=0.08),
        dict(m=28, n=28, r=8),
    ])
    def test_sweep_and_mc_pick_the_same_rank(self, cfg):
        # one plan and one argmin rule, analysis.least, pick both
        _assert_mc_checks_the_argmin_row(cfg)

    def test_analytic_sweep_ignores_the_seed(self):
        a = run_sweep(ExperimentConfig(**SMALL, master_seed=0))
        b = run_sweep(ExperimentConfig(**SMALL, master_seed=2 ** 64))
        assert a.rows == b.rows and a.argmin_k == b.argmin_k


class TestOnePlan:
    """sweep and mc plan alike: one rank filter, one optimizer call and one
    argmin rule, so mc at k_range 'all' checks the row sweep names."""

    def test_mc_at_all_checks_the_sweeps_argmin_row_on_random_configs(self):
        configs = _random_small_configs(150, seed=38)
        assert any(min(cfg["m"], cfg["n"]) == 1 for cfg in configs)
        for cfg in configs:
            _assert_mc_checks_the_argmin_row(cfg)

    def test_one_rank_filter_and_one_optimizer_call(self):
        # the plan takes the candidate ranks from analysis.fitting_ranks and
        # calls the optimizer pass once for both commands; no module picks a
        # rank through optimize_rank, which stays for library callers
        calls = {}
        for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            calls[path.name] = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

        def named(module, name):
            return [call for call in calls[module]
                    if getattr(call.func, "id", getattr(call.func, "attr", None)) == name]
        assert len(named("experiments.py", "optimize_each_rank")) == 1
        assert all(named(module, "optimize_rank") == [] for module in calls)
        assert named("experiments.py", "budget_feasible") == []

    def test_one_scan_under_every_optimizer(self):
        # optimize_each_rank is the one pass: optimize_rank and
        # optimize_repetitions, like the plan, score through it
        tree = ast.parse(Path(analysis.__file__).read_text())
        callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "optimize_each_rank"}
        assert callers == {"optimize_rank", "optimize_repetitions"}


class TestSweepOutput:
    def test_csv_layout(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        text = sweep_csv(res)
        lines = text.splitlines()
        assert lines[0] == SWEEP_SCHEMA
        assert lines[1].startswith("# config m=16 n=16 r=4 ")
        assert lines[2].split(",")[:4] == ["k", "t_L", "t_R", "feasible"]
        assert len(lines) == 3 + 4 + 1
        assert lines[-1] == sweep_summary(res)
        assert lines[-1].startswith(f"# argmin k={res.argmin_k} ")
        assert text.endswith("\n")

    def test_csv_empty_cells_for_infeasible(self):
        res = run_sweep(ExperimentConfig(m=8, n=8, r=8, lam=2.0, trials=0))
        row8 = sweep_csv(res).splitlines()[2 + 8]
        assert row8.startswith("8,0,0,false,")
        assert ",," in row8

    def test_json_round_trip(self):
        res = run_sweep(ExperimentConfig(**SMALL))
        doc = json.loads(sweep_json(res))
        assert doc["schema"] == "crossbar-lowrank sweep v1"
        assert doc["argmin_k"] == res.argmin_k
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["k"] == 1
        assert doc["config"]["m"] == 16
        assert doc["config"]["k_range"] == [1, 2, 3, 4]


class TestRunScaling:
    CFG = dict(n_grid=(16, 32, 64, 128), trials=0)

    def test_row_geometry(self):
        res = run_scaling(ExperimentConfig(**self.CFG))
        beta = res.beta_resolved
        assert beta == 0.5
        for row in res.rows:
            assert row.r == min(row.n, max(1, math.floor(1.0 * row.n ** 1.0)))
            assert row.k == min(row.r, max(1, math.floor(0.5 * row.r ** beta)))
            assert budget_feasible(row.n, row.n, row.k, row.t_L, row.t_R)

    def test_baseline_slope_is_two(self):
        res = run_scaling(ExperimentConfig(**self.CFG))
        assert res.fit_baseline.slope == pytest.approx(2.0, abs=1e-10)
        assert res.fit_baseline.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_total_grows_subquadratically(self):
        res = run_scaling(ExperimentConfig(**self.CFG))
        assert 0.5 < res.fit_total.slope < 2.0
        totals = [row.analytic_total for row in res.rows]
        assert all(a < b for a, b in zip(totals, totals[1:]))

    def test_explicit_beta_respected(self):
        res = run_scaling(ExperimentConfig(beta=1.0, **self.CFG))
        assert res.beta_resolved == 1.0
        for row in res.rows:
            assert row.k == min(row.r, max(1, math.floor(0.5 * row.r)))

    def test_grid_too_short(self):
        with pytest.raises(ConfigError, match="at least 4"):
            run_scaling(ExperimentConfig(n_grid=(16, 32, 64), trials=0))

    def test_grid_not_geometric(self):
        with pytest.raises(ConfigError, match="geometric"):
            run_scaling(ExperimentConfig(n_grid=(256, 512, 900, 2048), trials=0))

    def test_a_step_exactly_1_percent_off_the_ratio_passes(self):
        # the spacing rule is exact: 404/200 is 1% off the ratio 2, and
        # 1% passes, while 405/200 is past it
        ExperimentConfig(n_grid=(100, 200, 404, 808))
        with pytest.raises(ConfigError, match="^n_grid must be geometrically spaced; "
                                              "step 200->405 breaks the ratio 2$"):
            ExperimentConfig(n_grid=(100, 200, 405, 810))

    @staticmethod
    def _fake_optimizer(monkeypatch):
        # stands in for the scan, so these tests never run a long one
        calls = []
        bd = ErrorBreakdown(truncation=0.0, stage1_noise=1.0, stage2_noise=1.0,
                            accumulated=1.0, total=3.0)

        def optimize(singulars, m, n, k, noise, sigma_b_sq):
            calls.append((n, k))
            return 1, 1, bd
        monkeypatch.setattr(experiments, "optimize_repetitions", optimize)
        return calls

    def test_scan_cap_rejects_before_any_row(self, monkeypatch):
        # alpha=0.01 gives r = k = 1, so row n scans n - 1 values of t_L
        calls = self._fake_optimizer(monkeypatch)
        cfg = ExperimentConfig(alpha=0.01, n_grid=(10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9))
        with pytest.raises(ConfigError, match="n=10000000: rank 1 would scan 9999999 "):
            run_scaling(cfg)
        assert calls == []

    def test_scan_cap_is_inclusive(self, monkeypatch):
        calls = self._fake_optimizer(monkeypatch)
        top = MAX_SCAN + 1
        grid = (top // 8, top // 4, top // 2, top)
        run_scaling(ExperimentConfig(alpha=0.01, n_grid=grid))
        assert calls == [(n, 1) for n in grid]
        with pytest.raises(ConfigError, match=f"n={top + 1}: rank 1 would scan "):
            run_scaling(ExperimentConfig(alpha=0.01, n_grid=grid[:3] + (top + 1,)))

    def test_rank_cap_rejects_before_any_row(self, monkeypatch):
        # alpha=1 gives r = n; the row at n=2**21 scans only about 2900
        # values of t_L but would hold 2**21 singular values
        calls = self._fake_optimizer(monkeypatch)
        top = 2 ** 21
        cfg = ExperimentConfig(alpha=1.0, n_grid=(top // 8, top // 4, top // 2, top))
        with pytest.raises(ConfigError, match=f"n={top}, r={top}:"):
            run_scaling(cfg)
        assert calls == []

    def test_rank_cap_is_inclusive(self, monkeypatch):
        calls = self._fake_optimizer(monkeypatch)
        top = MAX_SCALING_RANK
        grid = (top // 8, top // 4, top // 2, top)
        res = run_scaling(ExperimentConfig(alpha=1.0, n_grid=grid))
        assert [row.r for row in res.rows] == list(grid)
        assert [n for n, _ in calls] == list(grid)

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 1.0])
    @pytest.mark.parametrize("grid", [ExperimentConfig().n_grid,
                                      (256, 512, 1024, 2048, 4096, 8192, 16384)])
    def test_standard_grids_run(self, alpha, grid):
        res = run_scaling(ExperimentConfig(alpha=alpha, n_grid=grid))
        assert [row.n for row in res.rows] == list(grid)

    def test_csv_layout(self):
        res = run_scaling(ExperimentConfig(**self.CFG))
        lines = scaling_csv(res).splitlines()
        assert lines[0] == SCALING_SCHEMA
        assert lines[1].startswith("# config alpha=")
        assert lines[2].split(",")[:3] == ["n", "r", "k"]
        assert len(lines) == 3 + 4 + 2
        assert lines[-2].startswith("# fit_total slope=")
        assert lines[-1].startswith("# fit_baseline slope=")

    def test_json_round_trip(self):
        res = run_scaling(ExperimentConfig(**self.CFG))
        doc = json.loads(scaling_json(res))
        assert doc["schema"] == "crossbar-lowrank scaling v1"
        assert doc["fit_baseline"]["slope"] == pytest.approx(2.0, abs=1e-10)
        assert [row["n"] for row in doc["rows"]] == [16, 32, 64, 128]

    def test_json_keeps_k_range_as_configured(self):
        # scaling rows are no k of k_range, so "all" is not resolved to r ints
        doc = json.loads(scaling_json(run_scaling(ExperimentConfig())))
        assert doc["config"]["k_range"] == "all"
        doc = json.loads(scaling_json(run_scaling(ExperimentConfig(**self.CFG, k_range=(1, 2)))))
        assert doc["config"]["k_range"] == [1, 2]


class TestRunMc:
    CFG = dict(m=8, n=8, r=4, lam=3.0, trials=500)

    def test_row_inventory(self):
        res = run_mc(ExperimentConfig(**self.CFG, k_range=(1, 2)))
        assert [row.scheme for row in res.rows] == ["baseline", "two_step", "two_step"]
        assert [row.k for row in res.rows] == [None, 1, 2]
        assert all(row.trials == 500 for row in res.rows)

    def test_default_range_uses_single_best_rank(self):
        res = run_mc(ExperimentConfig(**self.CFG))
        assert len(res.rows) == 2
        assert res.rows[1].scheme == "two_step"
        assert 1 <= res.rows[1].k <= 4

    def test_fixed_seed_passes(self):
        res = run_mc(ExperimentConfig(**self.CFG, k_range=(1, 2)))
        assert res.all_passed
        for row in res.rows:
            assert abs(row.z) <= 4.0

    def test_rejects_analytic_only_config(self):
        with pytest.raises(ConfigError, match="trials"):
            run_mc(ExperimentConfig(m=8, n=8, r=4, lam=3.0, trials=0))

    def test_csv_layout(self):
        res = run_mc(ExperimentConfig(**self.CFG))
        lines = mc_csv(res).splitlines()
        assert lines[0] == MC_SCHEMA
        assert lines[2].split(",")[0] == "scheme"
        assert lines[2].split(",")[-1] == "pass"
        assert lines[-1] == "# all_passed=true"

    def test_json_round_trip(self):
        res = run_mc(ExperimentConfig(**self.CFG))
        doc = json.loads(mc_json(res))
        assert doc["schema"] == "crossbar-lowrank mc v1"
        assert doc["all_passed"] is True
        assert doc["rows"][0]["scheme"] == "baseline"

    def test_rerun_is_byte_identical(self):
        cfg = ExperimentConfig(**self.CFG)
        assert mc_csv(run_mc(cfg)) == mc_csv(run_mc(cfg))

    @pytest.mark.parametrize("k_range", ["all", (1,)])
    def test_ranks_are_chosen_before_any_trial(self, monkeypatch, k_range):
        # at m = 1 no rank fits the budget: the run stops before the baseline MC
        def never(*args):
            raise AssertionError("baseline MC ran")
        monkeypatch.setattr(experiments, "run_baseline_trials", never)
        with pytest.raises(ValueError, match="budget"):
            run_mc(ExperimentConfig(m=1, n=5, r=1, lam=1.0, k_range=k_range, trials=50))

    def test_a_gaussian_baseline_is_judged_on_its_z(self):
        # it forms no product with A, so its round-off floor is 0 and a tiny
        # baseline error gets a z (the two-step row of this config, below
        # its floor, is refused)
        cfg = ExperimentConfig(m=20, n=20, r=3, sigma_e_sq=1e-30, trials=2000)
        res = run_baseline_trials(target(cfg)[0], cfg.noise(), cfg.sigma_b_sq, cfg.trials,
                                  child_stream(cfg.master_seed, experiments.STREAM_MC_BASELINE))
        z, ok = compare(res, baseline_error_analytic(20, 20, 1e-30, 3.0))
        assert res.roundoff == 0.0 and z != 0.0 and ok


class TestSweepAndMcShareEstimates:
    """The two-step estimate at rank k has one stream, keyed
    (STREAM_MC_TWOSTEP, k), whichever command runs it."""

    def test_readme_states_the_stream_keys(self):
        # README's Determinism section names the target's, the baseline's
        # and the two-step estimate's keys, in that order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Determinism", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"keyed `\(master_seed, ([^`]*)\)`", section)
        assert keys == [str(experiments.STREAM_MATRIX), str(experiments.STREAM_MC_BASELINE),
                        f"{experiments.STREAM_MC_TWOSTEP}, k"]

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_each_estimate_draws_from_its_own_key(self, dist):
        # mc's rows are the estimates on child_stream(seed, *key) of each
        # estimate's key, and no other stream
        cfg = ExperimentConfig(m=24, n=20, r=5, trials=500, dist=dist, k_range=(2, 4))
        A, s = target(cfg)
        base, *two = run_mc(cfg).rows
        want = run_baseline_trials(A, cfg.noise(), cfg.sigma_b_sq, cfg.trials,
                                   child_stream(cfg.master_seed, experiments.STREAM_MC_BASELINE))
        assert (base.mean_sq_error, base.std_error) == (want.mean_sq_error, want.std_error)
        assert [row.k for row in two] == [2, 4]
        for row in two:
            want = run_two_step_trials(check_target(s, A), row.k, row.t_L, row.t_R, cfg.noise(),
                                       cfg.sigma_b_sq, cfg.trials,
                                       child_stream(cfg.master_seed,
                                                    experiments.STREAM_MC_TWOSTEP, row.k))
            assert (row.mean_sq_error, row.std_error) == (want.mean_sq_error, want.std_error)

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("k_range", ["all", (3,), (2, 4)])
    def test_mc_columns_agree_bit_for_bit(self, dist, k_range):
        cfg = ExperimentConfig(m=24, n=20, r=5, trials=3000, dist=dist, k_range=k_range)
        sweep = {row.k: (row.mc_mean, row.mc_stderr) for row in run_sweep(cfg).rows}
        mc = run_mc(cfg).rows[1:]
        assert mc and all(row.scheme == "two_step" for row in mc)
        for row in mc:
            assert (row.mean_sq_error, row.std_error) == sweep[row.k]


class TestTargetCheckedOnce:
    """sweep and mc check the target against its SVD, and take ||A||_F,
    once per command, however many ranks they estimate; they check it as
    soon as it is built, so an error in that check names the target."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"span": 0, "norm of A": 0}
        span, norm = montecarlo._span_coords, montecarlo._frobenius

        def counted_span(s, A):
            calls["span"] += 1
            return span(s, A)

        def counted_norm(X, overwrite=False):
            # A is 16 x 16; the residuals are normed in place, the rest is rank wide
            calls["norm of A"] += not overwrite and X.shape == (16, 16)
            return norm(X, overwrite)
        monkeypatch.setattr(montecarlo, "_span_coords", counted_span)
        monkeypatch.setattr(montecarlo, "_frobenius", counted_norm)
        return calls

    def test_sweep_checks_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        res = run_sweep(ExperimentConfig(**{**SMALL, "trials": 10}))
        assert [row.k for row in res.rows if row.mc_mean is not None] == [1, 2, 3, 4]
        assert calls == {"span": 1, "norm of A": 1}

    def test_mc_checks_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        res = run_mc(ExperimentConfig(**{**SMALL, "trials": 10, "k_range": (1, 2, 3)}))
        assert [row.k for row in res.rows] == [None, 1, 2, 3]
        assert calls == {"span": 1, "norm of A": 1}

    def test_a_refused_target_names_the_target(self, monkeypatch):
        # another matrix's SVD: the check refuses it before any estimate's
        # stream is built, so no trial is drawn
        def wrong(config):
            A, s = target(config)
            return A, svd(np.random.default_rng(1).standard_normal(A.shape))
        roles = []

        def recorded(seed, role, *key):
            roles.append(role)
            return child_stream(seed, role, *key)
        monkeypatch.setattr(experiments, "target", wrong)
        monkeypatch.setattr(experiments, "child_stream", recorded)
        cfg = ExperimentConfig(**{**SMALL, "trials": 10, "k_range": (2, 3)})
        for run in (run_sweep, run_mc):
            with pytest.raises(ValueError, match="^target: the matrix .* not its SVD$"):
                run(cfg)
        # each command built the target's stream and no STREAM_MC_* one
        assert roles == [experiments.STREAM_MATRIX] * 2


class TestMemory:
    """At 1024 x 1024 (A is 8 MiB), r = 16 and trials = 2, mc and sweep hold
    the target plus one m x n temporary at a time, A counted."""

    @pytest.mark.parametrize("run,extra", [
        (run_mc, {}), (run_mc, {"dist": "uniform"}), (run_sweep, {"k_range": (4,)})],
        ids=["mc_gaussian", "mc_uniform", "sweep"])
    def test_peak_is_under_2_3_targets(self, run, extra):
        cfg = ExperimentConfig(m=1024, n=1024, r=16, trials=2, **extra)
        tracemalloc.start()
        try:
            run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * 1024 * 1024 * 8
