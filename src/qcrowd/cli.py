"""Experiment runner: parse flat key=value configs, run trials at one k
(`--mode run`) or over the sweep k, 2k, 4k (`--mode sweep`), and write
deterministic CSV outputs. The invariant checks live in the test suite."""

from __future__ import annotations

import csv
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import analysis, world
from .analysis import run_trial
from .core import (
    CONFIG_KEYS,
    REQUIRED_KEYS,
    SOLVER_KEYS,
    ConfigError,
    ExperimentConfig,
    SolverSettings,
    scalar_fields,
)

# Thread counts of the BLAS builds numpy may use; set by the user, they are
# left alone.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESULT_COLUMNS = (
    "seed", "quality_gap", "solver_iters", "solver_obj", "feas_box",
    "feas_row", "feas_nuc", "round_iters", "accepted", "opnorm",
)

# strategy name -> (class, {settable parameter: int or float})
_ADVERSARIES = {cls.__name__: (cls, scalar_fields(cls))
                for cls in world.STRATEGIES}


def _convert(raw: str, kind, key: str, line_no: int):
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: value for '{key}' is not a valid {kind.__name__}: {raw!r}"
        ) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat `key = value` configuration text and validate it.

    One pair per line, '#' starts a comment, keys are the experiment
    parameter names; the adversary is named by `adversary = <Strategy>` with
    its parameters as dotted keys (e.g. `adversary.block_low = 0.8`), and
    solver knobs likewise under `solver.`. Raises ConfigError for malformed
    lines, duplicate, unknown or missing keys, and constraint violations.
    """
    pairs = {}
    lines = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq and value):
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key '{key}'")
        pairs[key] = value
        lines[key] = line_no

    base = {}
    adversary_name = None
    adversary_params = {}
    solver_params = {}
    for key, value in pairs.items():
        if key in CONFIG_KEYS:
            base[key] = _convert(value, CONFIG_KEYS[key], key, lines[key])
        elif key == "adversary":
            adversary_name = value
        elif key.startswith("adversary."):
            adversary_params[key[len("adversary."):]] = (key, value)
        elif key.startswith("solver."):
            name = key[len("solver."):]
            if name not in SOLVER_KEYS:
                raise ConfigError(f"line {lines[key]}: unknown solver key '{key}'")
            solver_params[name] = _convert(value, SOLVER_KEYS[name], key, lines[key])
        else:
            raise ConfigError(f"line {lines[key]}: unknown key '{key}'")

    missing = [k for k in REQUIRED_KEYS if k not in base]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    adversary = None
    if adversary_name is not None:
        if adversary_name not in _ADVERSARIES:
            raise ConfigError(
                f"unknown adversary strategy '{adversary_name}' "
                f"(known: {', '.join(sorted(_ADVERSARIES))})"
            )
        cls, param_types = _ADVERSARIES[adversary_name]
        kwargs = {}
        for name, (key, value) in adversary_params.items():
            if name not in param_types:
                raise ConfigError(
                    f"line {lines[key]}: unknown parameter '{key}' for {adversary_name}"
                )
            kwargs[name] = _convert(value, param_types[name], key, lines[key])
        adversary = cls(**kwargs)
    elif adversary_params:
        key, _ = next(iter(adversary_params.values()))
        raise ConfigError(
            f"line {lines[key]}: adversary parameters given without 'adversary ='"
        )

    return ExperimentConfig(adversary=adversary,
                            solver=SolverSettings(**solver_params), **base)


@dataclass(frozen=True)
class RunSpec:
    """What to execute and where to put the outputs."""

    mode: str
    config_path: Optional[Path]
    out_dir: Path
    trials: int = 1
    jobs: int = 1
    allow_nonconverged: bool = False
    rho_scale: Optional[float] = None  # overrides the config's rho_scale

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trial count must be at least 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _result_row(r: analysis.TrialResult):
    return (r.seed, r.quality_gap, r.solver_iters, r.solver_obj,
            r.residual_box, r.residual_row, r.residual_nuc, r.round_iters,
            r.accepted, r.opnorm)


@contextmanager
def _one_blas_thread_each():
    """Set every BLAS thread count to 1 for the processes started inside,
    unless the user has set one of them."""
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        yield
        return
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name in BLAS_THREAD_VARS:
            os.environ.pop(name, None)


def _run_trials(cfg: ExperimentConfig, trials: int, jobs: int) -> list:
    seeds = [cfg.seed + t for t in range(trials)]
    workers = min(jobs, trials)  # a worker beyond the trial count idles
    if workers > 1:
        # imported here so that a one-process run never loads the pool
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # Workers are spawned, so that numpy loads in each of them after the
        # thread count is set: several workers with a BLAS pool each
        # oversubscribe the cores.
        with _one_blas_thread_each(), ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(run_trial, [cfg] * trials, seeds))
    return [run_trial(cfg, seed) for seed in seeds]


def _summary_row(k: int, results: list) -> list:
    gaps = np.array([r.quality_gap for r in results])
    half = 1.96 * gaps.std(ddof=1) / math.sqrt(len(gaps)) if len(gaps) > 1 else 0.0
    return [
        k, len(results), float(np.median(gaps)), float(gaps.mean()),
        float(gaps.mean() - half), float(gaps.mean() + half),
        float(np.median([r.opnorm / math.sqrt(k) for r in results])),
        float(np.mean([r.max_dev > r.dev_bound for r in results])),
        sum(not r.solver_converged for r in results),
    ]


_SUMMARY_HEADER = (
    "k", "trials", "gap_median", "gap_mean", "gap_ci95_lo", "gap_ci95_hi",
    "opnorm_sqrtk_median", "dev_violation_rate", "nonconverged",
)


def run_experiment(spec: RunSpec) -> int:
    """Execute a RunSpec; returns the process exit code (0 ok, 2
    non-converged trials without the allow flag). Malformed input raises."""
    if spec.mode not in ("run", "sweep"):
        raise ConfigError(f"unknown mode '{spec.mode}'")
    if spec.config_path is None:
        raise ConfigError(f"--config is required for mode '{spec.mode}'")
    cfg = parse_config(Path(spec.config_path).read_text())
    if spec.rho_scale is not None:
        cfg = replace(cfg, rho_scale=spec.rho_scale)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    if spec.mode == "run":
        grid = [cfg.k]
    else:
        grid = sorted({min(cfg.k * 2 ** i, cfg.m) for i in range(3)})
    all_results = []
    summary_rows = []
    for k in grid:
        results = _run_trials(replace(cfg, k=k), spec.trials, spec.jobs)
        all_results.extend(results)
        summary_rows.append(_summary_row(k, results))
    _write_csv(spec.out_dir / "results.csv", RESULT_COLUMNS,
               [_result_row(r) for r in all_results])
    _write_csv(spec.out_dir / "summary.csv", _SUMMARY_HEADER, summary_rows)
    bad = sum(not r.solver_converged for r in all_results)
    if bad and not spec.allow_nonconverged:
        click.echo(f"{bad}/{len(all_results)} trials did not converge", err=True)
        return 2
    return 0


class _Command(click.Command):
    """A bad flag is malformed input like any other: one `error:` line and
    exit code 1, not click's usage text and its exit code 2."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            ctx.exit(1)


@click.command(cls=_Command)
@click.option("--config", "config_path", type=click.Path(path_type=Path),
              default=None, help="Experiment configuration file.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default=Path("qcrowd-out"), show_default=True,
              help="Output directory for CSV files.")
@click.option("--trials", default=1, show_default=True, help="Trials per grid point.")
@click.option("--jobs", default=1, show_default=True, help="Worker processes.")
@click.option("--mode", type=click.Choice(["run", "sweep"]),
              default="run", show_default=True)
@click.option("--allow-nonconverged", is_flag=True,
              help="Exit 0 even when some solves do not certify within max_iters.")
@click.option("--rho-scale", type=float, default=None,
              help="Nuclear-norm bound multiplier; overrides rho_scale.")
def main(config_path, out_dir, trials, jobs, mode, allow_nonconverged, rho_scale):
    """Robust crowdsourced quantile recovery experiment runner."""
    try:
        spec = RunSpec(mode=mode, config_path=config_path, out_dir=out_dir,
                       trials=trials, jobs=jobs,
                       allow_nonconverged=allow_nonconverged,
                       rho_scale=rho_scale)
        code = run_experiment(spec)
    except (ConfigError, UnicodeDecodeError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
