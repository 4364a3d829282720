import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from crossbar_lowrank.analysis import (
    ErrorBreakdown,
    budget_feasible,
    lambda_max,
    optimal_beta,
)
from crossbar_lowrank import experiments, lowrank, matrixgen
from crossbar_lowrank.experiments import (
    MAX_SCALING_SCAN,
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
from crossbar_lowrank.lowrank import RANK_TOL_REL, singular_values
from crossbar_lowrank.matrixgen import harmonic_spectrum
from crossbar_lowrank.rng import MASK64

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
        ({"beta": "1.5"}, "beta must lie in (0, 1] or be 'optimal', got 1.5"),
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
        with pytest.raises(ConfigError, match="64 bits"):
            ExperimentConfig(master_seed=2 ** 64)

    def test_bad_dist(self):
        with pytest.raises(ConfigError, match="dist"):
            ExperimentConfig(dist="poisson")

    def test_lambda_checked_after_device(self):
        with pytest.raises(ConfigError, match="rho"):
            ExperimentConfig(lam="max", rho=0.0)

    def test_resolvers(self):
        cfg = ExperimentConfig(lam="max", beta="optimal", alpha=1.0)
        assert cfg.resolved_lambda() == lambda_max(100, 100, cfg.device())
        assert cfg.resolved_beta() == optimal_beta(1.0)[0]
        assert ExperimentConfig(r=3).resolved_k_range() == (1, 2, 3)
        assert ExperimentConfig(r=5, k_range=(2, 4)).resolved_k_range() == (2, 4)


class TestTargetCap:
    """target() draws an m x m and an n x n square; the larger one is capped."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "harmonic_matrix",
                            lambda m, n, *rest: calls.append((m, n)) or "A")
        return calls

    def test_largest_allowed_side(self, built):
        side = math.isqrt(MAX_SQUARE_CELLS)
        assert side * side == MAX_SQUARE_CELLS
        assert target(ExperimentConfig(m=1, n=side, r=1)) == "A"
        assert target(ExperimentConfig(m=side, n=3, r=1)) == "A"
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
    """The analytic sweep builds no target and decomposes nothing."""

    # each name's message, and the module attributes a call could go through
    SITES = {
        "svd": ("singular vectors computed", [(experiments, "svd"), (lowrank, "svd")]),
        "singular_values": ("singular values computed",
                            [(experiments, "singular_values"),
                             (lowrank, "singular_values")]),
        "harmonic_matrix": ("target matrix built",
                            [(experiments, "harmonic_matrix"),
                             (matrixgen, "harmonic_matrix"),
                             (matrixgen, "prescribed_matrix")]),
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

    def test_mc_sweep_computes_them(self, monkeypatch):
        self._refuse(monkeypatch, "svd")
        with pytest.raises(AssertionError, match="singular vectors"):
            run_sweep(ExperimentConfig(**{**SMALL, "trials": 10}))

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


class TestPrescribedSpectrum:
    """Analytic values come from harmonic_spectrum(); MC runs on target().
    These pin the two to each other."""

    @pytest.mark.parametrize("m,n,r,lam", [
        (12, 12, 3, 3.0), (64, 48, 8, 2.0), (9, 30, 5, "max"),
        (40, 17, 17, "max"), (100, 100, 16, 10.0)])
    def test_target_has_the_spectrum(self, m, n, r, lam):
        cfg = ExperimentConfig(m=m, n=n, r=r, lam=lam, master_seed=7)
        expected = harmonic_spectrum(cfg.resolved_lambda(), r)
        s = singular_values(target(cfg))
        np.testing.assert_allclose(s[:r], expected, rtol=1e-13, atol=0)
        assert np.all(s[r:] < RANK_TOL_REL * s[0])

    def test_sweep_and_mc_agree_bit_for_bit(self):
        cfg = dict(m=12, n=12, r=3, lam=3.0)
        sweep = run_sweep(ExperimentConfig(**cfg, trials=0))
        fixed = run_mc(ExperimentConfig(**cfg, k_range=(2,), trials=50))
        best = run_mc(ExperimentConfig(**cfg, trials=50))
        row = next(r for r in sweep.rows if r.k == 2)
        assert row.analytic_total == fixed.rows[1].analytic == 8.64
        assert (best.rows[1].k, best.rows[1].analytic) == (sweep.argmin_k, 8.64)

    def test_analytic_sweep_ignores_the_seed(self):
        a = run_sweep(ExperimentConfig(**SMALL, master_seed=0))
        b = run_sweep(ExperimentConfig(**SMALL, master_seed=MASK64))
        assert a.rows == b.rows and a.argmin_k == b.argmin_k


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
        with pytest.raises(ConfigError, match="n=10000000, k=1: .* 9999999 "):
            run_scaling(cfg)
        assert calls == []

    def test_scan_cap_is_inclusive(self, monkeypatch):
        calls = self._fake_optimizer(monkeypatch)
        top = MAX_SCALING_SCAN + 1
        grid = (top // 8, top // 4, top // 2, top)
        run_scaling(ExperimentConfig(alpha=0.01, n_grid=grid))
        assert calls == [(n, 1) for n in grid]
        with pytest.raises(ConfigError, match=f"n={top + 1}, k=1"):
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
        top = MAX_SCALING_SCAN
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
