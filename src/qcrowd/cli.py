"""Experiment runner: parse flat key=value configs, execute single runs,
k-sweeps, the invariant check suite, or a rounding demo, and write
deterministic CSV outputs."""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

import click
import numpy as np

from . import analysis, quantile, solver, world
from .analysis import run_trial
from .assignment import draw_assignment
from .core import (
    ConfigError,
    ExperimentConfig,
    GroundTruth,
    SolverSettings,
    TOL_FEAS,
    derive_rng,
)

SEED_ENV_VAR = "QCROWD_SEED"

RESULT_COLUMNS = (
    "seed", "quality_gap", "solver_iters", "solver_obj", "feas_box",
    "feas_row", "feas_nuc", "round_iters", "accepted", "opnorm",
)

_REQUIRED_KEYS = ("n", "m", "alpha", "beta", "epsilon", "delta", "k", "k0")
_INT_KEYS = {"n", "m", "k", "k0", "seed"}
_FLOAT_KEYS = {"alpha", "beta", "epsilon", "delta", "L", "epsilon0", "rho_scale"}

# strategy name -> (class, {settable parameter: int or float})
_ADVERSARIES = {
    cls.__name__: (cls, {name: kind for name, kind in get_type_hints(cls).items()
                         if kind in (int, float)})
    for cls in world.STRATEGIES
}

_SOLVER_KEYS = {"max_iters": int, "eta0": float}


class ParseError(ValueError):
    """Raised for malformed configuration text."""


def _convert(raw: str, kind, key: str, line_no: int):
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ParseError(
            f"line {line_no}: value for '{key}' is not a valid {kind.__name__}: {raw!r}"
        ) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat `key = value` configuration text and validate it.

    One pair per line, '#' starts a comment, keys are the experiment
    parameter names; the adversary is named by `adversary = <Strategy>` with
    its parameters as dotted keys (e.g. `adversary.block_low = 0.8`), and
    solver knobs likewise under `solver.`. Raises ParseError for malformed
    lines, duplicate or unknown keys; ConfigError for missing keys or
    constraint violations.
    """
    pairs = {}
    lines = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"line {line_no}: expected 'key = value', got {raw_line!r}")
        if key in pairs:
            raise ParseError(f"line {line_no}: duplicate key '{key}'")
        pairs[key] = value
        lines[key] = line_no

    base = {}
    adversary_name = None
    adversary_params = {}
    solver_params = {}
    for key, value in pairs.items():
        if key in _INT_KEYS:
            base[key] = _convert(value, int, key, lines[key])
        elif key in _FLOAT_KEYS:
            base[key] = _convert(value, float, key, lines[key])
        elif key == "adversary":
            adversary_name = value
        elif key.startswith("adversary."):
            adversary_params[key[len("adversary."):]] = (key, value)
        elif key.startswith("solver."):
            name = key[len("solver."):]
            if name not in _SOLVER_KEYS:
                raise ParseError(f"line {lines[key]}: unknown solver key '{key}'")
            solver_params[name] = _convert(value, _SOLVER_KEYS[name], key, lines[key])
        else:
            raise ParseError(f"line {lines[key]}: unknown key '{key}'")

    missing = [k for k in _REQUIRED_KEYS if k not in base]
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
                raise ParseError(
                    f"line {lines[key]}: unknown parameter '{key}' for {adversary_name}"
                )
            kwargs[name] = _convert(value, param_types[name], key, lines[key])
        adversary = cls(**kwargs)
    elif adversary_params:
        key, _ = next(iter(adversary_params.values()))
        raise ParseError(
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


def _run_trials(cfg: ExperimentConfig, trials: int, jobs: int) -> list:
    seeds = [cfg.seed + t for t in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    """Execute a RunSpec; returns the process exit code (0 ok, 1 config
    problems or failed checks, 2 non-converged trials without the
    allow flag)."""
    if spec.mode in ("run", "sweep"):
        if spec.config_path is None:
            raise ConfigError(f"--config is required for mode '{spec.mode}'")
        cfg = parse_config(Path(spec.config_path).read_text())
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise ConfigError(
                    f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
            cfg = replace(cfg, seed=seed)
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

    if spec.mode == "check":
        return run_check_suite()

    if spec.mode == "round-demo":
        spec.out_dir.mkdir(parents=True, exist_ok=True)
        return run_round_demo(spec.out_dir)

    raise ConfigError(f"unknown mode '{spec.mode}'")


# ---------------------------------------------------------------------------
# check suite: fast, deterministic invariant battery
# ---------------------------------------------------------------------------

def _require(cond, what: str) -> None:
    """Fail the current check with `what`; unlike assert, this also holds
    under python -O."""
    if not cond:
        raise AssertionError(what)


def _check_config_examples():
    cfg = ExperimentConfig(
        n=10, m=12, alpha=0.4, beta=1 / 6, epsilon=0.2, delta=0.1, k=6, k0=6,
        adversary=world.RandomSpam())
    _require(cfg.alpha_n == 4 and cfg.beta_m == 2,
             f"alpha_n, beta_m = {cfg.alpha_n}, {cfg.beta_m}, expected 4, 2")
    try:
        ExperimentConfig(
            n=10, m=5, alpha=0.5, beta=0.5, epsilon=0.5, delta=0.1, k=2, k0=2)
    except ConfigError:
        pass
    else:
        raise AssertionError("m < n must be rejected")


def _check_rng_streams():
    a = derive_rng(7, "assign").random(100)
    b = derive_rng(7, "assign").random(100)
    c = derive_rng(7, "self-ratings").random(100)
    _require(np.array_equal(a, b), "same seed and label gave different streams")
    _require(not np.array_equal(a, c), "different labels gave the same stream")


def _check_ground_truth():
    rng = derive_rng(11, "gt")
    for _ in range(5):
        r = rng.random(40)
        gt = GroundTruth.from_ratings(r, 7)
        order = np.argsort(-r, kind="stable")[:7]
        _require(set(np.flatnonzero(gt.t_star)) == set(order),
                 "t_star does not mark the top entries of r_star")


def _check_assignment_degrees():
    cfg = ExperimentConfig(
        n=60, m=80, alpha=0.5, beta=0.25, epsilon=0.5, delta=0.1, k=8, k0=8,
        adversary=world.RandomSpam())
    for s in range(5):
        plan = draw_assignment(cfg, derive_rng(s, "assign"))
        _require(plan.row_degrees.max() <= 2 * cfg.k, "row degree above 2k")
        _require(plan.col_degrees.max() <= 2 * cfg.k, "column degree above 2k")


def _check_projections():
    rng = derive_rng(3, "proj")
    v = rng.random(12) * 3 - 1
    proj = solver.project_capped_box_simplex(v, 4)
    again = solver.project_capped_box_simplex(proj, 4)
    _require(np.abs(proj - again).max() < 1e-8,
             "box-simplex projection is not idempotent")
    _require(np.allclose(solver.project_capped_box_simplex(np.array([2.0, 2.0]), 1),
                         [0.5, 0.5], atol=1e-9),
             "projection of (2, 2) onto the cap-1 simplex is not (0.5, 0.5)")
    M = rng.random((6, 9))
    _require(np.array_equal(solver.project_nuclear_ball(M, 1e6), M),
             "nuclear projection moved a point inside the ball")
    W = rng.standard_normal((6, 15))  # wide, the bound binds
    U, s, Vt = np.linalg.svd(W, full_matrices=False)
    want = (U * solver._simplex_threshold(s, 0.5 * s.sum())) @ Vt
    _require(np.abs(solver.project_nuclear_ball(W, 0.5 * s.sum()) - want).max() <= 1e-9,
             "nuclear projection of a wide binding point differs from the SVD one")
    feasible = solver._project_rows(M, 3.0)
    moved = solver.dykstra_project(feasible, 3.0, 1e6, 10)
    _require(np.linalg.norm(moved - feasible) < 1e-8,
             "Dykstra projection moved a feasible point")
    B = rng.standard_normal((8, 10)) * 4  # nuclear bound binds: sweeps loop
    bound = solver.dykstra_project(B, 2.0, 3.0, 30)
    _require(np.linalg.svd(bound, compute_uv=False).sum() <= 3.0 * (1 + 1e-9),
             "Dykstra projection left the nuclear ball")
    _require(not np.array_equal(bound, solver._project_rows(B, 2.0)),
             "Dykstra projection stopped at the row projection of a binding point")


def _check_solver_small():
    cfg = ExperimentConfig(
        n=8, m=12, alpha=0.5, beta=0.25, epsilon=0.5, delta=0.1, k=12, k0=12,
        adversary=world.RandomSpam(), solver=SolverSettings(max_iters=400))
    rng = derive_rng(5, "solve")
    values = rng.random((8, 12))
    from .core import ObservedRatings
    obs = ObservedRatings(values=values, mask=np.ones((8, 12), dtype=np.int8))
    _, report = solver.solve_recover_M(obs, cfg)
    greedy = solver.greedy_row_oracle(values, cfg.beta_m)
    _require(report.objective <= float(np.vdot(values, greedy)) + 1e-9,
             "solver objective exceeds the greedy upper bound")
    _require(report.residual_box <= TOL_FEAS and report.residual_row <= TOL_FEAS,
             "solver output violates the box or row-sum constraints")


def _check_rounding():
    rng = derive_rng(9, "round")
    T0 = rng.random(20) * 0.6
    draws = quantile.round_offsets(T0, rng.random(20000))
    freq = draws.mean(axis=0)
    sigma = np.sqrt(np.maximum(T0 * (1 - T0), 1e-12) / 20000)
    _require(np.all(np.abs(freq - T0) <= 4 * sigma + 1e-9),
             "rounding frequencies stray more than 4 sigma from T0")
    _require(draws.sum(axis=1).max() <= math.ceil(T0.sum()),
             "a rounded set exceeds ceil(sum T0) items")


def _check_recover_exact():
    cfg = ExperimentConfig(
        n=20, m=20, alpha=1.0, beta=0.2, epsilon=0.2, delta=0.1, k=20, k0=20,
        noise="noiseless", truth=("two_level", 0.0, 1.0),
        solver=SolverSettings(max_iters=600))
    res = run_trial(cfg, 123)
    _require(res.quality_gap == 0.0, f"quality gap {res.quality_gap}, expected 0")
    _require(res.cardinality_ok and res.feasibility_ok,
             "selection too large or solver output infeasible")
    _require(res.gap_r <= cfg.L * res.gap_a + cfg.epsilon0 + 1e-9,
             "monotone transfer inequality violated")


_CHECKS = (
    ("config validation examples", _check_config_examples),
    ("rng stream determinism and separation", _check_rng_streams),
    ("ground truth marks the top entries", _check_ground_truth),
    ("assignment degree bounds", _check_assignment_degrees),
    ("projection identities", _check_projections),
    ("solver feasibility and oracle dominance", _check_solver_small),
    ("rounding unbiasedness and cardinality", _check_rounding),
    ("honest-world exact recovery", _check_recover_exact),
)


def run_check_suite() -> int:
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures += 1
            click.echo(f"FAIL {name}: {exc}")
        else:
            click.echo(f"ok   {name}")
    click.echo(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 0 if failures == 0 else 1


def run_round_demo(out_dir: Path, draws: int = 20000) -> int:
    rng = derive_rng(2024, "round-demo")
    T0 = rng.random(30)
    T0 *= 8.0 / T0.sum()
    T0 = np.clip(T0, 0.0, 1.0)
    picks = quantile.round_offsets(T0, rng.random(draws))
    freq = picks.mean(axis=0)
    _write_csv(out_dir / "round_demo.csv", ("item", "t0", "frequency"),
               [(j, T0[j], freq[j]) for j in range(T0.size)])
    worst = float(np.abs(freq - T0).max())
    click.echo(f"rounded {draws} draws; max |frequency - target| = {worst:.4g}")
    click.echo(f"max cardinality = {int(picks.sum(axis=1).max())}, "
               f"bound = {math.ceil(T0.sum())}")
    return 0


@click.command()
@click.option("--config", "config_path", type=click.Path(path_type=Path),
              default=None, help="Experiment configuration file.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path),
              default=Path("qcrowd-out"), show_default=True,
              help="Output directory for CSV files.")
@click.option("--trials", default=1, show_default=True, help="Trials per grid point.")
@click.option("--jobs", default=1, show_default=True, help="Worker processes.")
@click.option("--mode", type=click.Choice(["run", "sweep", "check", "round-demo"]),
              default="run", show_default=True)
@click.option("--allow-nonconverged", is_flag=True,
              help="Exit 0 even when some solves hit the iteration limit.")
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
    except (ConfigError, ParseError, world.ProfileError, UnicodeDecodeError,
            OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
