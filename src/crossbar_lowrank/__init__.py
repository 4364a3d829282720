"""Noisy crossbar VMM simulation and low-rank two-step error analysis."""

from .core import DeviceParams, MagnitudeCheck, conductance_map, magnitude_check
from .lowrank import LrFactors, SvdResult, factor_lr, svd, truncate, truncation_error_sq
from .schemes import NoiseSpec, baseline_noisy_vmm, budget_feasible, two_step_vmm
from .analysis import (
    AsymptoticParams,
    ErrorBreakdown,
    InfeasibleBudgetError,
    asymptotic_bound,
    baseline_error_analytic,
    harmonic_trace,
    lambda_max,
    optimal_beta,
    optimize_rank,
    optimize_repetitions,
    tail_bound,
    two_step_error_analytic,
)
from .matrixgen import SingularProfile, harmonic_matrix, prescribed_matrix, random_orthogonal
from .matrixio import MatrixFormatError, dumps_matrix, loads_matrix, read_matrix, write_matrix
from .montecarlo import TrialBatchResult, compare, run_baseline_trials, run_two_step_trials
from .experiments import ExperimentConfig, fit_loglog_slope, run_mc, run_scaling, run_sweep
from .rng import child_seed, child_stream

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "DeviceParams",
    "ErrorBreakdown",
    "ExperimentConfig",
    "InfeasibleBudgetError",
    "LrFactors",
    "MagnitudeCheck",
    "MatrixFormatError",
    "NoiseSpec",
    "SingularProfile",
    "SvdResult",
    "TrialBatchResult",
    "asymptotic_bound",
    "baseline_error_analytic",
    "baseline_noisy_vmm",
    "budget_feasible",
    "child_seed",
    "child_stream",
    "compare",
    "conductance_map",
    "dumps_matrix",
    "factor_lr",
    "fit_loglog_slope",
    "harmonic_matrix",
    "harmonic_trace",
    "lambda_max",
    "loads_matrix",
    "magnitude_check",
    "optimal_beta",
    "optimize_rank",
    "optimize_repetitions",
    "prescribed_matrix",
    "random_orthogonal",
    "read_matrix",
    "run_baseline_trials",
    "run_mc",
    "run_scaling",
    "run_sweep",
    "run_two_step_trials",
    "svd",
    "tail_bound",
    "truncate",
    "truncation_error_sq",
    "two_step_error_analytic",
    "two_step_vmm",
    "write_matrix",
]
