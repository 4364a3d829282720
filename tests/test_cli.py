import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossbar_lowrank.analysis import InfeasibleBudgetError, lambda_max, t_L_max
from crossbar_lowrank import cli, experiments
from crossbar_lowrank.cli import build_parser, main
from crossbar_lowrank.core import DeviceParams
from crossbar_lowrank.matrixgen import harmonic_matrix
from crossbar_lowrank.matrixio import matrix_lines, read_matrix, write_matrix

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
OVERSIZED_HEADER = "1 100000000000\n1\n"


@pytest.fixture
def small_config(tmp_path):
    p = tmp_path / "small.cfg"
    p.write_text("m=20\nn=20\nr=5\nlambda=8\ntrials=0\n")
    return str(p)


class TestGenValidate:
    def test_round_trip(self, tmp_path, small_config, capsys):
        mat = str(tmp_path / "a.mat")
        assert main(["gen", "--config", small_config, "--out", mat]) == 0
        assert main(["validate", mat, "--config", small_config]) == 0
        report = dict(line.split(" ", 1) for line in
                      capsys.readouterr().out.strip().splitlines())
        assert report["rows"] == "20"
        assert report["cols"] == "20"
        assert report["rank"] == "5"
        assert report["magnitude_ok"] == "true"
        got = [float(tok) for tok in report["singular_values"].split()]
        np.testing.assert_allclose(got, 8.0 / np.arange(1, 6), rtol=1e-8)
        lam = float(report["lambda_max"])
        assert lam == pytest.approx(lambda_max(20, 20, DeviceParams()), rel=1e-12)

    def test_gen_writes_parseable_matrix(self, tmp_path, small_config, capsys):
        assert main(["gen", "--config", small_config]) == 0
        mat = tmp_path / "a.mat"
        mat.write_text(capsys.readouterr().out)
        assert read_matrix(mat).shape == (20, 20)

    def test_gen_writes_the_same_bytes_everywhere(self, tmp_path, small_config, capsys):
        mat = tmp_path / "a.mat"
        assert main(["gen", "--config", small_config]) == 0
        stdout = capsys.readouterr().out
        assert main(["gen", "--config", small_config, "--out", str(mat)]) == 0
        A, _ = experiments.target(experiments.load_config(small_config))
        text = "".join(matrix_lines(A))
        assert stdout == mat.read_bytes().decode() == text

    def test_gen_seed_changes_matrix(self, small_config, capsys):
        main(["gen", "--config", small_config, "--seed", "1"])
        first = capsys.readouterr().out
        main(["gen", "--config", small_config, "--seed", "2"])
        assert first != capsys.readouterr().out

    def test_gen_is_deterministic(self, small_config, capsys):
        main(["gen", "--config", small_config])
        first = capsys.readouterr().out
        main(["gen", "--config", small_config])
        assert first == capsys.readouterr().out

    def test_validate_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n1 2\n3\n")
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.mat" in err and "line 3" in err

    def test_validate_names_the_line_of_a_byte_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"2 2\n1 2\n3 4\xff\n")
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: line 3: byte 0xff is not UTF-8\n"

    def test_validate_reports_oversized_header(self, tmp_path, capsys):
        big = tmp_path / "big.mat"
        big.write_text(OVERSIZED_HEADER)
        assert main(["validate", str(big)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {big}: line 2: expected 100000000000 values, found 1\n"

    def test_validate_flags_magnitude_violation(self, tmp_path, capsys):
        dev = DeviceParams()
        lam = 1.01 * lambda_max(80, 80, dev)
        A = harmonic_matrix(80, 80, 64, lam, np.random.default_rng(3))
        mat = tmp_path / "hot.mat"
        write_matrix(A, str(mat))
        assert main(["validate", str(mat)]) == 1
        assert "magnitude_ok false" in capsys.readouterr().out

    def test_validate_report_to_file(self, tmp_path, small_config):
        mat = str(tmp_path / "a.mat")
        report = tmp_path / "report.txt"
        main(["gen", "--config", small_config, "--out", mat])
        assert main(["validate", mat, "--config", small_config,
                     "--out", str(report)]) == 0
        assert report.read_text().startswith("rows 20\n")

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "ghost.mat")]) == 1
        assert "error" in capsys.readouterr().err

    def test_failed_svd_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "a.mat")
        write_matrix(np.eye(3), path)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", fail)
        assert main(["validate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: SVD did not converge"]

    @pytest.mark.parametrize("entry,message", [
        ("1e308", "error: a singular value is not finite in float64: "
                  "the matrix entries are too large"),
        ("1e200", "error: the total magnitude sum(g^2) is inf in float64: "
                  "the matrix entries or r_T are too large")])
    def test_an_overflowing_report_is_one_error_line(self, tmp_path, capsys, entry, message):
        # at 1e308 the largest singular value is inf; at 1e200 it is
        # finite, but sum(g^2) overflows. Neither may print inf or a rank
        path = tmp_path / "huge.mat"
        path.write_text(f"2 3\n{entry} {entry} {entry}\n{entry} {entry} {entry}\n")
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_lambda_max_out_of_range_is_one_error_line(self, tmp_path, capsys):
        # rho=1e308 makes lambda_max and the budget m*n*rho inf: refused,
        # not reported as inf
        path = tmp_path / "a.mat"
        path.write_text("2 3\n1 2 3\n4 5 6\n")
        cfg = tmp_path / "rho.cfg"
        cfg.write_text("rho=1e308\n")
        assert main(["validate", str(path), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: lambda_max = sqrt(6*m*n*rho)/(pi*r_T) at 2x3 is inf in float64: "
            "rho or r_T is out of range"]

    def test_lambda_max_is_refused_before_the_svd(self, tmp_path, capsys, monkeypatch):
        # the refusal needs only the matrix's shape, so it costs no SVD
        def no_svd(*args, **kwargs):
            raise AssertionError("singular_values called")
        monkeypatch.setattr(cli, "singular_values", no_svd)
        path = tmp_path / "a.mat"
        path.write_text("2 3\n1 2 3\n4 5 6\n")
        cfg = tmp_path / "rho.cfg"
        cfg.write_text("rho=1e308\n")
        assert main(["validate", str(path), "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: lambda_max = ")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_bad_seed(self, capsys):
        assert main(["sweep", "--seed", "zebra"]) == 2
        capsys.readouterr()

    def test_oversized_seed(self, tmp_path, small_config, capsys):
        # a seed of any width is valid, and reruns byte-identically; a
        # negative one is a usage error
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["mc", "--config", small_config, "--trials", "50",
                         "--seed", str(2 ** 64 + 5), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and b" seed=18446744073709551621\n" in outs[0]
        assert main(["mc", "--config", small_config, "--seed=-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0x10", "010", "1_0", "-1"])
    def test_seed_flag_parses_like_the_config_key(self, tmp_path, capsys, seed):
        # --seed X and master_seed=X give the same exit code and bytes
        body = "m=6\nn=5\nr=2\nlambda=2\n"
        flag, key = tmp_path / "flag.cfg", tmp_path / "key.cfg"
        flag.write_text(body)
        key.write_text(body + f"master_seed={seed}\n")
        runs = []
        for argv in (["gen", "--config", str(flag), "--seed", seed],
                     ["gen", "--config", str(key)]):
            code = main(argv)
            runs.append((code, capsys.readouterr().out))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if seed in ("010", "1_0") else 2)

    @pytest.mark.parametrize("lanes", ["0", "-3", "two"])
    def test_bad_lanes(self, lanes, capsys):
        assert main(["mc", "--lanes", lanes]) == 2
        assert "--lanes" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["sigma_L_sq=nan\n", "sigma_b_sq=inf\n",
                                      "rho=inf\nlambda=max\n"])
    def test_non_finite_config_is_a_config_error(self, tmp_path, body, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(body + "trials=0\n")
        assert main(["sweep", "--config", str(p)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("body,named", [("dist=poisson", "distribution 'poisson'"),
                                            ("r_T=inf", "r_T"), ("rho=0", "rho"),
                                            ("sigma_e_sq=-1", "sigma_e_sq")])
    def test_noise_and_device_checks_are_config_errors(self, tmp_path, body, named, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text(body + "\ntrials=0\n")
        assert main(["sweep", "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]

    @pytest.mark.parametrize("command,trials", [("sweep", 0), ("sweep", 50), ("scaling", 0)])
    def test_zero_baseline_noise_is_a_config_error(self, tmp_path, command, trials, capsys):
        # the normalized column divides by the baseline error, 0 here
        p = tmp_path / "quiet.cfg"
        p.write_text(f"m=8\nn=8\nr=2\nsigma_e_sq=0\ntrials={trials}\n"
                     "n_grid=16 32 64 128\n")
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "sigma_e_sq" in err[0]

    @pytest.mark.parametrize("command,body", [
        # the baseline overflows
        ("sweep", "m=100\nn=100\nr=4\nsigma_b_sq=1e308\nk_range=1,2\ntrials=0\n"),
        # the two-step totals overflow, the baseline does not
        ("sweep", "m=100\nn=100\nr=4\nsigma_e_sq=1e-10\nsigma_b_sq=1e307\n"
                  "k_range=1,2\ntrials=0\n"),
        # the baseline underflows to 0
        ("sweep", "m=8\nn=8\nr=2\nsigma_e_sq=1e-200\nsigma_b_sq=1e-200\n"
                  "k_range=1,2\ntrials=0\n"),
        ("scaling", "m=8\nn=8\nr=2\nsigma_e_sq=1e-200\nsigma_b_sq=1e-200\n"),
        # total / baseline overflows
        ("sweep", "m=8\nn=8\nr=2\nsigma_e_sq=1e-300\nsigma_L_sq=1e10\nsigma_R_sq=1e10\n"
                  "k_range=1,2\ntrials=0\n"),
        ("scaling", "m=8\nn=8\nr=2\nsigma_e_sq=1e-300\nsigma_L_sq=1e10\nsigma_R_sq=1e10\n"),
    ])
    def test_overflow_is_one_error_line(self, tmp_path, capsys, command, body):
        p = tmp_path / "huge.cfg"
        p.write_text(body)
        assert main([command, "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "in float64" in err[0]

    @pytest.mark.parametrize("sigma_b_sq", ["1e-200", "1e200", "1e300"])
    @pytest.mark.parametrize("command,body", [
        ("mc", "k_range=1,2\n"), ("mc", "dist=uniform\n"), ("sweep", "k_range=1,2\n")])
    def test_tiny_and_huge_input_variances_run(self, tmp_path, capsys, command, body,
                                               sigma_b_sq):
        # the MC reduction scales the errors by a power of two, so neither
        # their squared deviations nor their sums leave float64
        p = tmp_path / "scale.cfg"
        p.write_text(f"m=8\nn=8\nr=2\ntrials=200\nsigma_b_sq={sigma_b_sq}\n{body}")
        assert main([command, "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out
        if command == "mc":
            assert out.rstrip().endswith("# all_passed=true")

    @pytest.mark.parametrize("k_range", ["all", "3"])
    def test_a_losing_rank_that_overflows_does_not_fail_mc(self, tmp_path, capsys, k_range):
        # the unit truncations of ranks 1 and 2, from (1e160/3)^2, overflow,
        # and the MC's round-off floor sums squares of entries near 1e160;
        # the write noise keeps rank 3's total far above that floor
        p = tmp_path / "huge.cfg"
        p.write_text(f"m=40\nn=40\nr=3\nlambda=1e160\nsigma_b_sq=1e-100\n"
                     f"sigma_L_sq=1e140\nsigma_R_sq=1e140\ntrials=200\nk_range={k_range}\n")
        assert main(["mc", "--config", str(p)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "\ntwo_step,3,6,7," in out

    @pytest.mark.parametrize("body", [
        # an analytic two-step error of 1.1e60 under a floor of 4.3e192
        "m=40\nn=40\nr=3\nlambda=1e160\nsigma_b_sq=1e-100\n",
        # 7.3e-28 under a floor of 3.2e-26, where the trials' SE is 1.5e-29
        "m=20\nn=20\nr=3\nsigma_e_sq=1e-30\nsigma_L_sq=1e-30\nsigma_R_sq=1e-30\nk_range=3\n",
    ])
    def test_a_row_under_its_roundoff_floor_is_refused(self, tmp_path, capsys, body):
        # no verdict where round-off alone could hide the analytic value;
        # the refusal names its row's scheme and rank
        p = tmp_path / "floor.cfg"
        p.write_text(body + "trials=2000\n")
        assert main(["mc", "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert out == "" and len(err) == 1
        assert err[0].startswith("error: two_step k=3: MC cannot resolve an analytic error of ")

    @pytest.mark.parametrize("command", [["sweep", "--trials", "0"], ["mc"]])
    def test_an_overflowing_rank_is_named(self, tmp_path, capsys, command):
        # rank 2's truncation per unit input variance, (1e160/3)^2, is inf
        p = tmp_path / "huge.cfg"
        p.write_text("m=40\nn=40\nr=3\nlambda=1e160\nsigma_b_sq=1e-100\nk_range=2,3\n")
        assert main([*command, "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: rank 2: the least two-step error is inf in float64: the variances "
            "or singular values are too large"]

    @pytest.mark.parametrize("command", [["sweep", "--trials", "0"], ["mc"]])
    def test_the_chosen_ranks_overflow_is_named_at_all(self, tmp_path, capsys, command):
        # the one rank's least total, 200.01 per unit input variance,
        # overflows once scaled by sigma_b_sq; mc at k_range=all names the
        # rank as sweep does
        p = tmp_path / "hot.cfg"
        p.write_text("m=100\nn=100\nr=1\nlambda=1000\nsigma_e_sq=1e-10\nsigma_L_sq=0.05\n"
                     "sigma_R_sq=0.05\nsigma_b_sq=1e307\ntrials=50\n")
        assert main([*command, "--config", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: rank 1: the least two-step error is inf in float64: the variances "
            "or singular values are too large"]

    @pytest.mark.parametrize("command,body", [
        ("sweep", "m=40\nn=40\nr=3\nlambda=1e160\nsigma_b_sq=1e-100\nk_range=2,3\ntrials=0\n"),
        ("sweep", "m=100\nn=100\nr=4\nsigma_e_sq=1e-10\nsigma_b_sq=1e307\n"
                  "k_range=1,2\ntrials=0\n"),
        ("sweep", "m=8\nn=8\nr=2\nsigma_e_sq=1e-300\nsigma_L_sq=1e10\nsigma_R_sq=1e10\n"
                  "k_range=1,2\ntrials=50\n"),
        ("mc", "m=40\nn=40\nr=3\nlambda=1e160\nsigma_b_sq=1e-100\nk_range=2,3\n"),
        ("mc", "m=8\nn=8\nr=6\nlambda=3\nk_range=5\ntrials=50\n"),
        ("mc", "m=1\nn=5\nr=1\nlambda=1\nk_range=1\ntrials=50\n"),
        ("mc", "m=12\nn=12\nr=3\nlambda=1e170\ntrials=200\n"),
        ("scaling", "alpha=1\nbeta=1\nc1=1\nc2=1\nn_grid=16 32 64 128\n"),
        ("scaling", "alpha=0.01\nn_grid=1000000 10000000 100000000 1000000000\n"),
        ("scaling", "alpha=0.5\nc1=1\nc2=1\nn_grid=379625062 759250125 1518500250 3037000500\n"),
        ("scaling", "rho=1e300\nalpha=0.01\nn_grid=1000 10000 100000 1000000\n"),
        ("scaling", "sigma_b_sq=1e306\nn_grid=256 512 1024 2048\n"),
    ])
    def test_a_refusal_names_its_rank_once(self, tmp_path, capsys, command, body):
        # no refusal names a rank twice: a row's prefix names its rank only
        # where the message behind it does not
        p = tmp_path / "refused.cfg"
        p.write_text(body)
        assert main([command, "--config", str(p)]) in (1, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        ranks = re.findall(r"\b(?:k=|rank )(\d+)\b", err[0])
        assert len(ranks) == len(set(ranks)), err[0]

    def test_zero_baseline_noise_still_runs_mc(self, tmp_path, capsys):
        p = tmp_path / "quiet.cfg"
        p.write_text("m=8\nn=8\nr=2\nsigma_e_sq=0\ntrials=400\n")
        assert main(["mc", "--config", str(p)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("# all_passed=true")

    @pytest.mark.parametrize("command", ["gen", "sweep", "mc"])
    def test_oversized_target_is_a_config_error(self, tmp_path, command, capsys, monkeypatch):
        # the check must come before any allocation, so the target is
        # never built even where the check is missing
        def never(*args, **kwargs):
            raise AssertionError("target matrix built")
        monkeypatch.setattr(experiments, "prescribed_factors", never)
        p = tmp_path / "huge.cfg"
        p.write_text("m=200000\nn=4\nr=2\ntrials=2\n")
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "m=200000" in err[0]

    def test_oversized_analytic_sweep_is_a_config_error(self, tmp_path, capsys):
        # --trials 0 builds no target, but the cap still bounds the sweep
        p = tmp_path / "huge.cfg"
        p.write_text("m=8193\nn=4\nr=2\n")
        assert main(["sweep", "--config", str(p), "--trials", "0"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ") and "m=8193" in err[0]
        assert "t_L scan" in err[0] and "square" not in err[0]

    @pytest.mark.parametrize("command", [["sweep", "--trials", "0"], ["gen"], ["mc"]])
    @pytest.mark.parametrize("device,resolved", [("rho=1e308", "inf"),
                                                 ("r_T=1e308 rho=1e-300", "0.0")])
    def test_lambda_max_out_of_range_is_a_config_error(self, tmp_path, capsys,
                                                       command, device, resolved):
        # refused with lambda_max's own message, which shows the value
        p = tmp_path / "max.cfg"
        p.write_text(f"m=8 n=8 r=2 lambda=max {device}".replace(" ", "\n") + "\n")
        assert main([*command, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert err == [f"error: lambda_max = sqrt(6*m*n*rho)/(pi*r_T) at 8x8 is {resolved} "
                       f"in float64: rho or r_T is out of range"]

    @pytest.mark.parametrize("command", ["sweep", "mc", "scaling", "gen", "validate"])
    def test_lambda_max_of_dimensions_past_float64_is_a_config_error(self, tmp_path, capsys,
                                                                     command):
        # a 401-digit m, written out, has no float64: every command loads the
        # config, and lambda_max refuses it instead of an OverflowError
        p = tmp_path / "huge.cfg"
        p.write_text(f"m={10 ** 400}\nn=4\nr=2\nlambda=max\n")
        matrix = tmp_path / "A.mat"
        write_matrix(np.eye(2), str(matrix))
        argv = [command, str(matrix)] if command == "validate" else [command]
        assert main([*argv, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: lambda_max = sqrt(6*m*n*rho)/(pi*r_T): m or n is too large for float64"]

    def test_scaling_lambda_max_out_of_range_is_a_config_error(self, tmp_path, capsys,
                                                               monkeypatch):
        # lambda_max(n, n) overflows to inf from n=10000 on at rho=1e300; the
        # row is refused before any row is computed
        def never(*args, **kwargs):
            raise AssertionError("scaling row computed")
        monkeypatch.setattr(experiments, "optimize_repetitions", never)
        p = tmp_path / "grid.cfg"
        p.write_text("rho=1e300\nalpha=0.01\nn_grid=1000 10000 100000 1000000\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        with pytest.raises(ValueError, match="at 10000x10000 is inf in float64") as refusal:
            lambda_max(10000, 10000, DeviceParams(rho=1e300))
        assert err == [f"error: scaling row n=10000: {refusal.value}"]

    def test_long_scaling_scan_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # r = k = 1 at alpha=0.01, so the row at n=1e7 would scan 1e7 - 1
        # values of t_L; it is refused before any row is computed
        def never(*args, **kwargs):
            raise AssertionError("scaling row computed")
        monkeypatch.setattr(experiments, "optimize_repetitions", never)
        p = tmp_path / "grid.cfg"
        p.write_text("alpha=0.01\nn_grid=1000000 10000000 100000000 1000000000\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        with pytest.raises(ValueError, match="rank 1 would scan 9999999 t_L values") as refusal:
            t_L_max(10 ** 7, 10 ** 7, 1)
        assert err == [f"error: scaling row n=10000000: {refusal.value}"]

    def test_high_scaling_rank_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # r = n at alpha=1, so the row at n=2**21 would hold 2**21 singular
        # values; it is refused before any row is computed
        def never(*args, **kwargs):
            raise AssertionError("scaling row computed")
        monkeypatch.setattr(experiments, "optimize_repetitions", never)
        p = tmp_path / "grid.cfg"
        p.write_text("alpha=1\nn_grid=262144 524288 1048576 2097152\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "n=2097152" in err[0] and "r=2097152" in err[0]

    @pytest.mark.parametrize("grid,n,k", [
        ("1073741824 2147483648 4294967296 8589934592", 4294967296, 65536),
        ("379625062 759250125 1518500250 3037000500", 3037000500, 55108),
    ])
    def test_scaling_budget_past_int64_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                         grid, n, k):
        # r = k = floor(sqrt(n)) at alpha=0.5 keeps the scan under its cap,
        # but from n = 3037000500 on, n*n exceeds 2**63 - 1; the row is
        # refused with t_L_max's own message before any row is computed
        def never(*args, **kwargs):
            raise AssertionError("scaling row computed")
        monkeypatch.setattr(experiments, "optimize_repetitions", never)
        p = tmp_path / "grid.cfg"
        p.write_text(f"alpha=0.5\nc1=1\nc2=1\nn_grid={grid}\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        with pytest.raises(ValueError, match="int64") as refusal:
            t_L_max(n, n, k)
        assert err == [f"error: scaling row n={n}: {refusal.value}"]

    def test_scaling_budget_just_under_int64_computes(self, tmp_path, capsys):
        p = tmp_path / "grid.cfg"
        p.write_text("alpha=0.5\nc1=1\nc2=1\nn_grid=379625062 759250124 1518500249 3037000499\n")
        assert main(["scaling", "--config", str(p)]) == 0
        rows = capsys.readouterr().out.splitlines()[3:7]
        assert rows[-1].startswith("3037000499,55108,55108,27554,27555,")

    def test_scaling_size_past_float64_is_a_config_error(self, tmp_path, capsys):
        # n^alpha of a 401-digit n is past float64: one line naming n once
        p = tmp_path / "grid.cfg"
        p.write_text(f"n_grid={_HUGE_GRID}\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: scaling row n={10 ** 400}: n is too large for float64"]

    def test_oversized_dims_still_run_scaling(self, tmp_path, capsys, monkeypatch):
        # scaling forms no matrix, so the cap does not apply to it
        monkeypatch.setattr(experiments, "prescribed_factors", None)
        p = tmp_path / "huge.cfg"
        p.write_text("m=200000\nn=4\nr=2\nn_grid=16 32 64 128\n")
        assert main(["scaling", "--config", str(p)]) == 0
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("mm=4\n")
        assert main(["sweep", "--config", str(p)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_trials_override(self, small_config, capsys):
        assert main(["mc", "--config", small_config, "--trials", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_short_scaling_grid(self, tmp_path, capsys):
        p = tmp_path / "grid.cfg"
        p.write_text("n_grid=16 32 64\ntrials=0\n")
        assert main(["scaling", "--config", str(p)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["sweep", "mc", "gen", "validate", "scaling"])
    @pytest.mark.parametrize("grid,named", [
        ("16 32 64", "at least 4 sizes"), ("256 512 900 2048", "geometrically spaced"),
        ("1 2 4 8", "strictly increasing sizes >= 2"),
        # steps past float64's range: the spacing rule compares them in integers
        pytest.param(f"4,8,16,{10 ** 400}", "geometrically spaced", id="4,8,16,10^400"),
        pytest.param(" ".join(str(v) for v in (2, 10 ** 400, 10 ** 800, 10 ** 1200)),
                     "breaks the ratio 5e+399", id="2 10^400 10^800 10^1200")])
    def test_every_command_checks_n_grid(self, tmp_path, capsys, command, grid, named):
        # n_grid is a config key like any other, so every command refuses
        # a grid that scaling cannot use, with the same line, before any work
        p = tmp_path / "grid.cfg"
        p.write_text(f"m=8\nn=8\nr=2\ntrials=2\nn_grid={grid}\n")
        argv = [command, "--config", str(p)]
        if command == "validate":
            write_matrix(np.eye(2), str(tmp_path / "a.mat"))
            argv.insert(1, str(tmp_path / "a.mat"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: n_grid ") and named in err[0]

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_trials_flag_and_key_share_one_rule(self, tmp_path, small_config, capsys, command):
        assert main([command, "--config", small_config, "--trials", "-1"]) == 2
        flag = capsys.readouterr()
        p = tmp_path / "neg.cfg"
        p.write_text("m=20\nn=20\nr=5\nlambda=8\ntrials=-1\n")
        assert main([command, "--config", str(p)]) == 2
        key = capsys.readouterr()
        assert flag.out == key.out == ""
        assert flag.err == key.err == (
            "error: trials must be 0 (analytic only) or >= 2, got -1\n")

    @pytest.mark.parametrize("command", ["sweep", "mc"])
    def test_trials_past_the_cap_exit_2_before_any_target(self, small_config, capsys,
                                                          monkeypatch, command):
        built = []
        monkeypatch.setattr(experiments, "target", lambda config: built.append(config))
        assert main([command, "--config", small_config, "--trials", str(2 ** 24 + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and built == []
        assert captured.err == "error: trials must be at most 16777216, got 16777217\n"

    @pytest.mark.parametrize("command", ["sweep", "scaling", "gen", "mc"])
    def test_a_config_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"m=20\xff\n")
        assert main([command, "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read config {p}: 'utf-8' codec can't decode "
                                f"byte 0xff in position 4: invalid start byte\n")

    def test_a_trials_flag_that_is_not_an_int_is_a_usage_error(self, small_config, capsys):
        assert main(["sweep", "--config", small_config, "--trials", "0x10"]) == 2
        assert "--trials: invalid int value: '0x10'" in capsys.readouterr().err

    def test_unwritable_out_path(self, tmp_path, small_config, capsys):
        missing = tmp_path / "no" / "dir" / "x.csv"
        assert main(["sweep", "--config", small_config,
                     "--out", str(missing)]) == 1
        capsys.readouterr()


class TestSweepCommand:
    def test_stdout_csv(self, small_config, capsys):
        assert main(["sweep", "--config", small_config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# crossbar-lowrank sweep v1\n")
        assert "# argmin k=" in out

    def test_json_format(self, small_config, capsys):
        assert main(["sweep", "--config", small_config, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "crossbar-lowrank sweep v1"
        assert len(doc["rows"]) == 5

    def test_out_file_echoes_argmin(self, tmp_path, small_config, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", small_config, "--out", str(out)]) == 0
        echoed = capsys.readouterr().out
        assert echoed.startswith("argmin k=")
        assert out.read_text().startswith("# crossbar-lowrank sweep v1\n")

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", small_config, "--trials", "200", "--out", str(a)])
        main(["sweep", "--config", small_config, "--trials", "200", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_mc(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", small_config, "--trials", "200",
              "--seed", "11", "--out", str(a)])
        main(["sweep", "--config", small_config, "--trials", "200",
              "--seed", "12", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_lanes_do_not_change_output(self, tmp_path, small_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep", "--config", small_config, "--trials", "200",
              "--lanes", "1", "--out", str(a)])
        main(["sweep", "--config", small_config, "--trials", "200",
              "--lanes", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


    def test_analytic_columns_do_not_depend_on_trials(self, tmp_path, small_config):
        # with or without MC, the analytic columns come from the same
        # prescribed spectrum
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", small_config, "--trials", "0", "--out", str(a)]) == 0
        assert main(["sweep", "--config", small_config, "--trials", "400",
                     "--out", str(b)]) == 0

        def analytic(path):
            lines = path.read_text().splitlines()
            header = lines[2].split(",")
            keep = [i for i, name in enumerate(header) if not name.startswith("mc_")]
            return [[line.split(",")[i] for i in keep] for line in lines[2:-1]]

        assert analytic(a) == analytic(b)
        assert a.read_text().splitlines()[-1] == b.read_text().splitlines()[-1]


    def test_analytic_sweep_does_not_depend_on_the_seed(self, tmp_path, small_config):
        # only the config line's echo of the seed differs
        outs = []
        for seed in ("0", "18446744073709551615"):
            out = tmp_path / f"{seed}.csv"
            assert main(["sweep", "--config", small_config, "--trials", "0",
                         "--seed", seed, "--out", str(out)]) == 0
            outs.append(out.read_bytes().replace(f" seed={seed}\n".encode(), b"\n"))
        assert b" seed=" not in outs[0]
        assert outs[0] == outs[1]


class TestScalingCommand:
    def test_stdout_csv(self, tmp_path, capsys):
        p = tmp_path / "grid.cfg"
        p.write_text("n_grid=16 32 64 128\ntrials=0\n")
        assert main(["scaling", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# crossbar-lowrank scaling v1\n")
        assert "# fit_total slope=" in out
        assert "# fit_baseline slope=" in out

    def test_a_rank_that_does_not_fit_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # k = r = n at every size: refused with t_L_max's own message, which
        # names k, behind the row's n, before any row is computed
        def never(*args, **kwargs):
            raise AssertionError("scaling row computed")
        monkeypatch.setattr(experiments, "optimize_repetitions", never)
        p = tmp_path / "full.cfg"
        p.write_text("alpha=1\nbeta=1\nc1=1\nc2=1\nn_grid=16 32 64 128\n")
        assert main(["scaling", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(InfeasibleBudgetError) as refusal:
            t_L_max(16, 16, 16)
        assert captured.err.splitlines() == [f"error: scaling row n=16: {refusal.value}"]

    def test_an_overflowing_row_is_named(self, tmp_path, capsys):
        # at sigma_b_sq=1e306 the least total of the first row, n=256 at
        # k=8, overflows float64: a validation failure naming the row, then
        # the rank as the optimizer names it
        p = tmp_path / "huge.cfg"
        p.write_text("sigma_b_sq=1e306\nn_grid=256 512 1024 2048\n")
        assert main(["scaling", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: scaling row n=256: rank 8: the least two-step error is inf in float64: "
            "the variances or singular values are too large"]


class TestMcCommand:
    def test_passing_run_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "mc.cfg"
        p.write_text("m=8\nn=8\nr=4\nlambda=3\ntrials=400\n")
        assert main(["mc", "--config", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# crossbar-lowrank mc v1\n")
        assert out.rstrip().endswith("# all_passed=true")

    @pytest.mark.parametrize("shape", ["m=1\nn=5", "m=5\nn=1"])
    @pytest.mark.parametrize("k_range", ["all", "1"])
    def test_single_row_or_column_is_a_budget_error(self, tmp_path, capsys, shape, k_range):
        # at min(m, n) = 1 one unit of rank costs m + n > mn devices, so no
        # two-step row exists and the run stops before any trial
        p = tmp_path / "thin.cfg"
        p.write_text(f"{shape}\nr=1\nlambda=1\nk_range={k_range}\ntrials=50\n")
        assert main(["mc", "--config", str(p)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1 and "budget" in err

    def test_an_explicit_rank_that_does_not_fit_is_a_config_error(self, tmp_path, capsys):
        # rank 5 at 8x8 needs mk + nk = 80 > 64 devices: refused with the
        # fit rule's message, exit 2 as in scaling, before any trial
        p = tmp_path / "wide.cfg"
        p.write_text("m=8\nn=8\nr=6\nlambda=3\nk_range=5\ntrials=50\n")
        assert main(["mc", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(InfeasibleBudgetError) as refusal:
            t_L_max(8, 8, 5)
        assert captured.err.splitlines() == [f"error: {refusal.value}"]

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("seed", range(1, 9))
    def test_noiseless_run_is_not_judged_on_roundoff(self, tmp_path, capsys, dist, seed):
        # full rank and no noise: the two-step error is round-off alone,
        # about 6e-29 against an analytic 1e-30 with a standard error 1e-30
        p = tmp_path / "quiet.cfg"
        p.write_text(f"m=4\nn=4\nr=2\nsigma_e_sq=0\nsigma_L_sq=0\nsigma_R_sq=0\n"
                     f"dist={dist}\ntrials=2000\n")
        assert main(["mc", "--config", str(p), "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("# all_passed=true")

    def test_failing_trials_name_their_row(self, tmp_path, capsys):
        # at lambda=1e170 a two-step trial's squared error overflows; the
        # refusal names the row, as compare's refusals do
        p = tmp_path / "hot.cfg"
        p.write_text("m=12\nn=12\nr=3\nlambda=1e170\ntrials=200\n")
        assert main(["mc", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: two_step k=3: the trials' mean squared error is inf: "
            "a trial's error is not finite in float64"]

    def test_an_inf_trial_among_huge_ones_is_one_error_line(self, tmp_path, capsys):
        # at lambda=3e169 some trials overflow and others come near float64's
        # top: refused before their sum, not an OverflowError traceback
        p = tmp_path / "hot.cfg"
        p.write_text("m=12\nn=12\nr=3\nlambda=3e169\ntrials=200\n")
        assert main(["mc", "--config", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: two_step k=3: ")


PINNED_NUMPY = "2.4.6"

# sha256 of `gen --seed 12345` output, and the `validate` report of the
# first file; recorded with numpy 2.4.6, whose QR and SVD round-off they
# include. CHANGES.md lists each regeneration and what moved
PINNED_GEN = {
    "m=12\nn=12\nr=3\nlambda=3\n":
        "9a2d2214587dc8a4398adbe65be4efba35b0ebbbc9319a054271a31fa33104c0",
    "m=64\nn=48\nr=8\nlambda=2\n":
        "5747cd577acdb935d44bf76034b31af5695e090cb3390e8d73d05d19593aa0b1",
}
PINNED_VALIDATE = """\
rows 12
cols 12
rank 3
singular_values 3.0 1.5 1.0000000000000002
lambda_max 9.356361614804113
magnitude_total 12.249999999999998
magnitude_budget 144.0
magnitude_ok true
"""


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"matrix files pinned with numpy {PINNED_NUMPY}")
class TestPinnedMatrixFiles:
    @pytest.mark.parametrize("body", sorted(PINNED_GEN))
    def test_gen_bytes(self, tmp_path, body):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(body)
        mat = tmp_path / "p.mat"
        assert main(["gen", "--config", str(cfg), "--seed", "12345", "--out", str(mat)]) == 0
        assert hashlib.sha256(mat.read_bytes()).hexdigest() == PINNED_GEN[body]

    def test_validate_report(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("m=12\nn=12\nr=3\nlambda=3\n")
        mat, report = tmp_path / "p.mat", tmp_path / "report.txt"
        assert main(["gen", "--config", str(cfg), "--seed", "12345", "--out", str(mat)]) == 0
        assert main(["validate", str(mat), "--config", str(cfg), "--out", str(report)]) == 0
        assert report.read_text() == PINNED_VALIDATE


DET_CONFIG = "m=12\nn=12\nr=3\nlambda=3\ntrials=400\n"
GRID_CONFIG = "n_grid=16 32 64 128\ntrials=0\n"
INFEASIBLE_CONFIG = "m=8\nn=8\nr=8\nlambda=2\ntrials=0\n"
NO_FEASIBLE_CONFIG = "m=2\nn=2\nr=2\nlambda=1\nk_range=2\ntrials=0\n"

# (command, config, format) -> sha256 of the `--out` file and the line
# printed on stdout; recorded with numpy 2.4.6. CHANGES.md lists each
# regeneration and which columns moved
PINNED_TABLES = {
    ("sweep", DET_CONFIG, "csv"):
        ("668b1e6b72e1fb39bd9174dad34a7e72eeae798e959ceacbab87ad000ea56a18",
         "argmin k=2 t_L=3 t_R=3 normalized=0.4\n"),
    ("sweep", DET_CONFIG, "json"):
        ("b5b08846bbede2101b82c3456fd10179ba1680a8412a49a1133e9df53877779f",
         "argmin k=2 t_L=3 t_R=3 normalized=0.4\n"),
    ("scaling", GRID_CONFIG, "csv"):
        ("d5bdfa01936624f10e326f77a5ac3dae1ebcbbb12df01a42f720ebcb790bfebf", ""),
    ("scaling", GRID_CONFIG, "json"):
        ("285142f786d2c6067da79c7e1a0566d562ae7016e3b8d726d2f5ef67192aa4ec", ""),
    ("mc", DET_CONFIG, "csv"):
        ("8be434496ccdaacef509f1641fcbd59f916718048a9a599123ae49aa1402a53d", ""),
    ("mc", DET_CONFIG, "json"):
        ("5071bf87ae01a513adbac37bb3c67c6b626fc30bb910e99adc9735cd55d1ca3b", ""),
    ("sweep", INFEASIBLE_CONFIG, "csv"):
        ("e9b6c3b44e104049ef112dff32e617971fc242cd895f339fef181923cb6f3468",
         "argmin k=2 t_L=2 t_R=2 normalized=0.7467775651927437\n"),
    ("sweep", INFEASIBLE_CONFIG, "json"):
        ("4af110abf102de86416b112de8f3f91b5a0c8411a468603d3a58e37aff09643e",
         "argmin k=2 t_L=2 t_R=2 normalized=0.7467775651927437\n"),
    ("sweep", NO_FEASIBLE_CONFIG, "csv"):
        ("f7bff80b3362d8f8b1fb859bff60e906e30bc48208d09b0c8d195f6d8f619fe7",
         "argmin none (no feasible k)\n"),
    ("sweep", NO_FEASIBLE_CONFIG, "json"):
        ("f99b08303e49c8c0ce7f6e169ec73dc0eccf559d6a1331d094b03ebcbf6293fa",
         "argmin none (no feasible k)\n"),
}
PINNED_NO_FEASIBLE_CSV = """\
# crossbar-lowrank sweep v1
# config m=2 n=2 r=2 lambda=1.0 sigma_e_sq=0.05 sigma_L_sq=0.05 sigma_R_sq=0.05 \
sigma_b_sq=3.0 dist=gaussian rho=1.0 r_T=1.0 trials=0 seed=12345
k,t_L,t_R,feasible,analytic_total,analytic_truncation,analytic_stage1,analytic_stage2,\
analytic_accumulated,mc_mean,mc_stderr,baseline_analytic,normalized
2,0,0,false,,,,,,,,0.6000000000000001,
# argmin none (no feasible k)
"""


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY,
                    reason=f"tables pinned with numpy {PINNED_NUMPY}")
class TestPinnedTables:
    @pytest.mark.parametrize("command,body,fmt", list(PINNED_TABLES))
    def test_out_bytes_and_echo(self, tmp_path, capsys, command, body, fmt):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(body)
        out = tmp_path / "p.out"
        assert main([command, "--config", str(cfg), "--format", fmt, "--out", str(out)]) == 0
        digest, echo = PINNED_TABLES[command, body, fmt]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out == echo

    def test_no_feasible_k_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "p.cfg"
        cfg.write_text(NO_FEASIBLE_CONFIG)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == PINNED_NO_FEASIBLE_CSV


# (valid, odd) values per config key; an example takes valid values for
# some keys and then overrides up to three keys with odd ones, so that most
# examples get past the config checks to the code behind them
_NOISE = (["0", "0.05", "1"], ["1e-300", "1e300", "-1", "nan", "inf", "x"])
_ODD_SCALE = ["1e-200", "1e200"]
_DEVICE = (["0.5", "1", "2"], ["0", "1e-300", "1e300", "-1", "nan", "inf"])
_HUGE_GRID = " ".join(str(10 ** e) for e in range(400, 404))
_SIZE = (["1", "2", "3", "5", "8"], ["0", "-1", "2.5", "9000", "200000", "1000000000000"])
CONFIG_VALUES = {
    "m": _SIZE, "n": _SIZE,
    "r": (["1", "2", "3"], ["0", "-1", "16"]),
    "lambda": (["max", "0.5", "3"],
               ["0", "-1", "nan", "inf", "1e300", "1e170", "1e-300", "x"]),
    "sigma_e_sq": (_NOISE[0], _NOISE[1] + _ODD_SCALE), "sigma_L_sq": _NOISE,
    "sigma_R_sq": _NOISE,
    "sigma_b_sq": (["0.5", "3"], ["0", "1e-300", "1e300", "-1", "nan", "inf"] + _ODD_SCALE),
    "rho": _DEVICE, "r_T": _DEVICE,
    "trials": (["0", "2", "7", "50"], ["1", "-1", "1e3"]),
    "master_seed": (["0", "7", "12345"], ["-1", str(2 ** 64)]),
    "dist": (["gaussian", "uniform"], ["poisson"]),
    "k_range": (["all", "1", "1,2"], ["2,1", "0", "1,9", "a"]),
    "alpha": (["1", "0.5"], ["0", "2", "nan", "inf"]),
    "beta": (["optimal", "0.5", "1"], ["0", "2", "nan"]),
    "c1": (["0.5", "1"], ["0", "2", "nan"]), "c2": (["0.5", "1"], ["0", "2", "nan"]),
    "n_grid": (["16 32 64 128", "2 4 8 16"],
               ["16 32 64", "16 32 48 128", "0 1 2 3", "128 64 32 16", "16,32,64,128",
                _HUGE_GRID]),
}
# trials is always set and at most 50, so no example runs the default
# 10,000 trials
_valid = st.fixed_dictionaries(
    {"trials": st.sampled_from(CONFIG_VALUES["trials"][0])},
    optional={key: st.sampled_from(valid) for key, (valid, _) in CONFIG_VALUES.items()
              if key != "trials"})
_odd = st.lists(st.sampled_from([(key, value) for key, (_, odd) in CONFIG_VALUES.items()
                                 for value in odd]), max_size=3)
_configs = st.builds(lambda valid, odd: {**valid, **dict(odd)}, _valid, _odd)


class TestExitCodesProperty:
    """Any config, however odd, ends in a documented exit code and at most
    an `error:` line, never a traceback, and a table written with exit 0
    holds no inf or NaN."""

    # holes once, each now one `error:` line: a baseline that underflows
    # to 0, normalized = inf, and an SVD check whose residual's square
    # overflows (it called a correct SVD "not its SVD")
    @example(command="sweep", lanes="1", config={
        "m": "8", "n": "8", "r": "2", "sigma_e_sq": "1e-200", "sigma_b_sq": "1e-200",
        "k_range": "1,2", "trials": "0"})
    @example(command="scaling", lanes="1", config={
        "m": "8", "n": "8", "r": "2", "sigma_e_sq": "1e-300", "sigma_L_sq": "1e10",
        "sigma_R_sq": "1e10", "trials": "0"})
    @example(command="mc", lanes="1", config={
        "m": "12", "n": "12", "r": "3", "lambda": "1e170", "trials": "50"})
    # sizes past float64 (an OverflowError traceback once)
    @example(command="scaling", lanes="1", config={"n_grid": _HUGE_GRID, "trials": "0"})
    @settings(max_examples=150)
    @given(command=st.sampled_from(["sweep", "scaling", "gen", "validate", "mc"]),
           config=_configs, lanes=st.sampled_from(["1", "2"]))
    def test_exit_code_is_documented(self, tmp_path_factory, command, config, lanes):
        work = tmp_path_factory.mktemp("prop")
        cfg = work / "p.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in config.items()))
        argv = [command, "--config", str(cfg), "--out", str(work / "out")]
        if command == "validate":
            argv.insert(1, str(work / "a.mat"))
            write_matrix(np.diag([3.0, 1.0, 0.0]), str(work / "a.mat"))
        if command in ("sweep", "mc"):
            argv += ["--lanes", lanes]
        real = experiments.prescribed_factors

        def small_only(m, n, *rest):
            # sizes above the cap must never reach the generator; the
            # largest size drawn below it is the default 100
            assert max(m, n) <= 100, f"built a {m}x{n} target"
            return real(m, n, *rest)

        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "prescribed_factors", small_only)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), lines
        assert "Traceback" not in err.getvalue()
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines), lines
        assert lines or code != 2
        # a rank that does not fit is a config error in every command
        assert code == 2 or not any("does not fit the budget" in line for line in lines)
        if code == 0 and command in ("sweep", "scaling", "mc"):
            tokens = re.split(r"[\s,:=\[\]{}]+", (work / "out").read_text() + out.getvalue())
            assert not {"inf", "-inf", "nan", "Infinity", "-Infinity", "NaN"} & set(tokens)


class TestModuleProcess:
    """The CLI run as its own interpreter, as `python -m crossbar_lowrank.cli`."""

    @staticmethod
    def run(*argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run([sys.executable, "-m", "crossbar_lowrank.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_gen_then_validate(self, tmp_path, small_config):
        mat = str(tmp_path / "a.mat")
        gen = self.run("gen", "--config", small_config, "--out", mat)
        assert gen.returncode == 0, gen.stderr
        val = self.run("validate", mat, "--config", small_config)
        assert val.returncode == 0, val.stderr
        assert val.stdout.startswith("rows 20\ncols 20\nrank 5\n")

    def test_oversized_header_is_one_error_line(self, tmp_path):
        big = tmp_path / "big.mat"
        big.write_text(OVERSIZED_HEADER)
        proc = self.run("validate", str(big))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: {big}: line 2: expected 100000000000 values, found 1"]


def test_readme_cli_block_parses():
    # every command line of README's CLI block is one the parser accepts
    readme = open(os.path.join(os.path.dirname(SRC), "README.md")).read()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("crossbar-lowrank ")]
    assert len(lines) == 5
    parser = build_parser()
    assert {parser.parse_args(shlex.split(line)[1:]).command for line in lines} == {
        "sweep", "scaling", "gen", "validate", "mc"}


class TestConsoleScript:
    def test_entry_point_in_pyproject(self, capsys, monkeypatch):
        # the script an install writes calls module:function with no
        # arguments, so the function reads sys.argv
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"crossbar-lowrank": "crossbar_lowrank.cli:main"}
        module, function = scripts["crossbar-lowrank"].split(":")
        entry = getattr(importlib.import_module(module), function)
        monkeypatch.setattr(sys, "argv", ["crossbar-lowrank", "--help"])
        assert entry() == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: crossbar-lowrank ")
        assert re.findall(r"^    (\w+) ", out, re.M) == [
            "sweep", "scaling", "gen", "validate", "mc"]

    def test_installed_entry_point(self):
        exe = shutil.which("crossbar-lowrank")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
