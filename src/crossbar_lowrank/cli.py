"""Command-line front end.

Subcommands:
  sweep     per-k error table for one config (analytic + Monte Carlo)
  scaling   analytic error growth along a geometric n grid, with slopes
  gen       write a harmonic-class matrix in the text format
  validate  report dims, spectrum, rank and the magnitude budget check
  mc        single-config Monte Carlo vs analytic comparison

Exit codes: 0 success, 1 validation failure, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Iterable

from .analysis import lambda_max
from .core import DeviceParams, magnitude_check
from .experiments import (
    ConfigError,
    ExperimentConfig,
    load_config,
    mc_csv,
    mc_json,
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
from .lowrank import numerical_rank, singular_values
from .matrixio import MatrixFormatError, matrix_lines, read_matrix

__all__ = ["main", "build_parser"]


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if v < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {v}")
        return v
    return parse


def _add_common(sp, with_trials: bool = True, with_format: bool = True,
                with_lanes: bool = True) -> None:
    sp.add_argument("--config", metavar="PATH", help="key=value config file")
    sp.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    sp.add_argument("--seed", type=int, help="override master_seed")
    if with_trials:
        sp.add_argument("--trials", type=int, help="override trial count")
    if with_format:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_lanes:
        sp.add_argument("--lanes", type=_int_at_least(1), default=1,
                        help="accepted for compatibility; has no effect "
                             "(trials run on one thread)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crossbar-lowrank",
        description="Noisy crossbar VMM simulation and low-rank error analysis.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("sweep", help="per-k error sweep"))
    _add_common(sub.add_parser("scaling", help="asymptotic scaling study"),
                with_trials=False, with_lanes=False)
    _add_common(sub.add_parser("gen", help="generate a harmonic-class matrix"),
                with_trials=False, with_format=False, with_lanes=False)
    vp = sub.add_parser("validate", help="validate a matrix file")
    vp.add_argument("matrix", metavar="MATRIX_PATH")
    _add_common(vp, with_trials=False, with_format=False, with_lanes=False)
    _add_common(sub.add_parser("mc", help="Monte Carlo vs analytic check"))
    return p


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(lines)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.writelines(lines)


def _load(args) -> ExperimentConfig:
    config = load_config(getattr(args, "config", None))
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_sweep(args) -> int:
    config = _load(args)
    result = run_sweep(config, lanes=args.lanes)
    text = sweep_csv(result) if args.format == "csv" else sweep_json(result)
    _emit([text], args.out)
    if args.out is not None:
        print(sweep_summary(result).lstrip("# "))
    return 0


def _cmd_scaling(args) -> int:
    config = _load(args)
    result = run_scaling(config)
    text = scaling_csv(result) if args.format == "csv" else scaling_json(result)
    _emit([text], args.out)
    return 0


def _cmd_gen(args) -> int:
    _emit(matrix_lines(target(_load(args))), args.out)
    return 0


def _cmd_validate(args) -> int:
    config = _load(args)
    dev = config.device()
    A = read_matrix(args.matrix)
    s = singular_values(A)
    rank = numerical_rank(s)
    check = magnitude_check(A, dev)
    singulars = " ".join(repr(float(v)) for v in s[:rank])
    report = "\n".join([
        f"rows {A.shape[0]}",
        f"cols {A.shape[1]}",
        f"rank {rank}",
        f"singular_values {singulars}",
        f"lambda_max {lambda_max(A.shape[0], A.shape[1], dev)!r}",
        f"magnitude_total {check.total!r}",
        f"magnitude_budget {check.budget!r}",
        f"magnitude_ok {'true' if check.satisfied else 'false'}",
    ]) + "\n"
    _emit([report], args.out)
    return 0 if check.satisfied else 1


def _cmd_mc(args) -> int:
    config = _load(args)
    result = run_mc(config, lanes=args.lanes)
    text = mc_csv(result) if args.format == "csv" else mc_json(result)
    _emit([text], args.out)
    return 0 if result.all_passed else 1


_COMMANDS = {
    "sweep": _cmd_sweep,
    "scaling": _cmd_scaling,
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors as code 2
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatrixFormatError as exc:
        print(f"error: {args.matrix}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
