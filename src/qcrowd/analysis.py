"""Metrics and empirical verification: quality gap, denoised comparison
matrix, operator-norm concentration, deviation concentration, and the
per-trial pipeline: simulate_trial builds a trial's record, run_trial
scores it for the experiment runner."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .assignment import (
    AssignmentPlan,
    draw_assignment,
    draw_self_ratings,
    realize_observations,
    realize_requester,
)
from .core import (
    ExperimentConfig,
    GroundTruth,
    ObservedRatings,
    QuantileMatrix,
    RequesterRatings,
    SelectionSet,
    derive_rng,
    operator_norm,
)
from .quantile import RoundingTrace, recover_quantile
from .solver import SolveReport, solve_recover_M
from .world import WorldModel, build_world


@dataclass(frozen=True)
class TrialResult:
    """Per-trial metrics recorded by the experiment runner."""

    seed: int
    quality_gap: float
    solver_iters: int
    solver_obj: float
    residual_box: float
    residual_row: float
    residual_nuc: float
    solver_converged: bool
    round_iters: int
    accepted: bool
    opnorm: float
    gap_a: float
    gap_r: float
    max_dev: float
    selection_size: int


@dataclass(frozen=True)
class Trial:
    """One simulated trial: its config, every stage's output, the solve's
    report and the rounding's trace (trace.selection is the selection)."""

    cfg: ExperimentConfig
    world: WorldModel
    plan: AssignmentPlan
    observed: ObservedRatings
    requester: RequesterRatings
    matrix: QuantileMatrix
    report: SolveReport
    trace: RoundingTrace


def quality_gap(selection: SelectionSet, gt: GroundTruth, beta_m: int) -> float:
    """Average per-item shortfall of the selected set against the true top
    set: (1/beta_m) * (sum_{j in T*} r*_j - sum_{j in T} r*_j)."""
    t = np.asarray(selection.t, dtype=float)
    r = gt.r_star
    return float((gt.t_star @ r - t @ r) / beta_m)


def denoised_matrix(world: WorldModel, observed: ObservedRatings,
                    cfg: ExperimentConfig) -> np.ndarray:
    """Observed matrix with reliable rows replaced by their scaled
    expectations (k/m) * a_star; other rows are copied through unchanged."""
    B = observed.values.copy()
    B[world.reliable_set] = (cfg.k / cfg.m) * world.a_star
    return B


def deviations(M: np.ndarray, r_tilde: np.ndarray, r_star: np.ndarray,
               k0: int, m: int) -> np.ndarray:
    """Per-row deviation D_i = sum_j M_ij * (r_tilde_j - (k0/m) r*_j)."""
    M = np.asarray(M, dtype=float)
    return M @ (np.asarray(r_tilde, dtype=float) - (k0 / m) * np.asarray(r_star, dtype=float))


def max_set_deviation(D: np.ndarray, v_min: int) -> float:
    """Exact max over row sets V with |V| >= v_min of |mean_{i in V} D_i|.

    For each size s the extreme averages are the means of the s largest and
    s smallest entries, so sorted prefix sums give the adversarial set
    directly; no sampling is needed.
    """
    D = np.sort(np.asarray(D, dtype=float))
    n = D.size
    if not 1 <= v_min <= n:
        raise ValueError("need 1 <= v_min <= len(D)")
    sizes = np.arange(v_min, n + 1)
    bottom = np.cumsum(D)[sizes - 1] / sizes
    top = np.cumsum(D[::-1])[sizes - 1] / sizes
    return float(max(np.abs(top).max(), np.abs(bottom).max()))


def monotone_transfer_gaps(M: np.ndarray, world: WorldModel,
                           cfg: ExperimentConfig) -> Tuple[float, float]:
    """Average reliable-row gaps of M against the true top set, measured in
    the raters' expected ratings (gap_a) and in the true ratings (gap_r)."""
    M = np.asarray(M, dtype=float)
    gt = world.ground_truth
    diff = gt.t_star.astype(float)[None, :] - M[world.reliable_set]
    scale = world.reliable_set.size * cfg.beta_m
    gap_a = float((diff * world.a_star).sum() / scale)
    gap_r = float((diff * gt.r_star[None, :]).sum() / scale)
    return gap_a, gap_r


def chernoff_budget(n: int, v: int, delta: float, epsilon: float,
                    beta: float) -> Tuple[int, int]:
    """Requester budgets sufficient for the deviation bound, without and
    with the beta factor in the denominator (the second is the weaker,
    larger requirement; the harness tests against that one)."""
    base = 3.0 * math.log(2.0 * n / (v * delta)) / min(epsilon, epsilon ** 2)
    return int(math.ceil(base)), int(math.ceil(base / beta))


def simulate_trial(cfg: ExperimentConfig, trial_seed: int) -> Trial:
    """Build a world, collect ratings, solve for the quantile matrix and
    round a selection, each stage drawing from its own derive_rng(trial_seed,
    label) stream. A solve that hits its iteration limit still yields its
    last iterate; report.converged records whether it certified."""
    world = build_world(cfg, derive_rng(trial_seed, "world"))
    plan = draw_assignment(cfg, derive_rng(trial_seed, "assign"))
    observed = realize_observations(plan, world, derive_rng(trial_seed, "values"))
    rng_requester = derive_rng(trial_seed, "requester")
    masks = draw_self_ratings(cfg, rng_requester)
    requester = realize_requester(world, masks, rng_requester)
    matrix, report = solve_recover_M(observed, cfg)
    trace = recover_quantile(matrix.M, requester.r_tilde,
                             requester.r_tilde_prime, cfg,
                             derive_rng(trial_seed, "round"))
    return Trial(cfg, world, plan, observed, requester, matrix, report, trace)


def run_trial(cfg: ExperimentConfig, trial_seed: int) -> TrialResult:
    """One end-to-end experiment: simulate_trial, then score its selection
    and matrix against the world."""
    trial = simulate_trial(cfg, trial_seed)
    world, observed, M = trial.world, trial.observed, trial.matrix.M
    report, trace = trial.report, trial.trace

    gt = world.ground_truth
    gap = quality_gap(trace.selection, gt, cfg.beta_m)
    # denoised_matrix copies the other rows through, so the difference is
    # zero outside the reliable rows and they alone carry its norm
    reliable = world.reliable_set
    B = denoised_matrix(world, observed, cfg)
    opnorm = operator_norm(observed.values[reliable] - B[reliable])
    gap_a, gap_r = monotone_transfer_gaps(M, world, cfg)
    D = deviations(M, trial.requester.r_tilde, gt.r_star, cfg.k0, cfg.m)
    max_dev = max_set_deviation(D, cfg.alpha_n)

    return TrialResult(
        seed=trial_seed,
        quality_gap=gap,
        solver_iters=report.iterations,
        solver_obj=report.objective,
        residual_box=report.residual_box,
        residual_row=report.residual_row,
        residual_nuc=report.residual_nuc,
        solver_converged=report.converged,
        round_iters=trace.iterations,
        accepted=trace.accepted,
        opnorm=opnorm,
        gap_a=gap_a,
        gap_r=gap_r,
        max_dev=max_dev,
        selection_size=trace.selection.size,
    )
