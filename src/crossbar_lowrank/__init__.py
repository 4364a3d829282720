"""Noisy crossbar VMM simulation and low-rank two-step error analysis."""

from .core import DeviceParams, MagnitudeCheck, magnitude_check
from .lowrank import LrFactors, SvdResult, factor_lr, svd
from .schemes import NoiseSpec, baseline_noisy_vmm, budget_feasible, two_step_vmm
from .analysis import (
    AsymptoticParams,
    ErrorBreakdown,
    InfeasibleBudgetError,
    asymptotic_bound,
    baseline_error_analytic,
    lambda_max,
    optimal_beta,
    optimize_rank,
    optimize_repetitions,
    two_step_error_analytic,
)
from .matrixgen import harmonic_matrix, harmonic_spectrum, random_orthogonal
from .matrixio import MatrixFormatError, read_matrix, write_matrix
from .montecarlo import (CheckedTarget, TrialBatchResult, check_target, compare,
                         run_baseline_trials, run_two_step_trials)
from .experiments import ExperimentConfig, fit_loglog_slope, run_mc, run_scaling, run_sweep
from .rng import child_stream

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "CheckedTarget",
    "DeviceParams",
    "ErrorBreakdown",
    "ExperimentConfig",
    "InfeasibleBudgetError",
    "LrFactors",
    "MagnitudeCheck",
    "MatrixFormatError",
    "NoiseSpec",
    "SvdResult",
    "TrialBatchResult",
    "asymptotic_bound",
    "baseline_error_analytic",
    "baseline_noisy_vmm",
    "budget_feasible",
    "check_target",
    "child_stream",
    "compare",
    "factor_lr",
    "fit_loglog_slope",
    "harmonic_matrix",
    "harmonic_spectrum",
    "lambda_max",
    "magnitude_check",
    "optimal_beta",
    "optimize_rank",
    "optimize_repetitions",
    "random_orthogonal",
    "read_matrix",
    "run_baseline_trials",
    "run_mc",
    "run_scaling",
    "run_sweep",
    "run_two_step_trials",
    "svd",
    "two_step_error_analytic",
    "two_step_vmm",
    "write_matrix",
]
