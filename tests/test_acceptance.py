"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcrowd import (
    DenseHalfPositive,
    ExperimentConfig,
    ObservedRatings,
    RandomSpam,
    SolverSettings,
    SymmetricBlocks,
    accept_loop,
    chernoff_budget,
    denoised_matrix,
    derive_rng,
    draw_assignment,
    greedy_row_oracle,
    operator_norm,
    project_capped_box_simplex,
    project_nuclear_ball,
    realize_observations,
    round_offsets,
    run_trial,
)
from qcrowd.solver import _solve
from qcrowd.world import build_world

from oracles import capped_box_oracle, nuclear_oracle

# every experiment selection produced anywhere in this suite lands here as
# (selection size, allowed size); the final criterion audits them all
CARDINALITY_LOG = []


def _report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _track(results, cfg):
    for r in results:
        CARDINALITY_LOG.append((r.selection_size, cfg.beta_m))


def test_criterion_01_rounding_unbiasedness():
    # 20 random fractional vectors, 100k draws each: every coordinate's
    # frequency within 3 binomial sigma, cardinality bounded on every draw
    rng = derive_rng(6, "unbiasedness")
    draws = 100_000
    worst_z = 0.0
    for _ in range(20):
        T0 = rng.random(50)
        picks = round_offsets(T0, rng.random(draws))
        freq = picks.mean(axis=0)
        sigma = np.sqrt(T0 * (1.0 - T0) / draws)
        z = np.abs(freq - T0) / np.maximum(sigma, 1e-300)
        worst_z = max(worst_z, float(z.max()))
        assert picks.sum(axis=1).max() <= math.ceil(T0.sum())
    _report(1, worst_z <= 3.0,
            f"rounding unbiased, worst |z| = {worst_z:.2f} <= 3")


def test_criterion_03_solver_oracle_equivalence():
    # 50 random instances with the nuclear ball inflated to inactivity: the
    # program separates across rows and the greedy oracle is exact
    rng = derive_rng(3, "oracle-instances")
    cfg = ExperimentConfig(
        n=20, m=30, alpha=0.5, beta=0.25, epsilon=0.5, delta=0.1, k=30, k0=30,
        adversary=RandomSpam(), solver=SolverSettings(max_iters=200, eta0=1e8))
    # solve_recover_M would start at the row program's optimum here, so the
    # ascent runs from beta * ones through the private entry point
    rho_slack = cfg.beta_m * math.sqrt(cfg.n * cfg.m)
    slack_cfg = replace(cfg, rho_scale=rho_slack / cfg.rho)
    worst_rel = 0.0
    steps = []
    for _ in range(50):
        A = rng.random((20, 30))
        obs = ObservedRatings(values=A, mask=np.ones((20, 30), dtype=np.int8))
        matrix, report = _solve(obs, slack_cfg, face_start=False)
        greedy_obj = float(np.vdot(A, greedy_row_oracle(A, cfg.beta_m)))
        worst_rel = max(worst_rel, abs(report.objective - greedy_obj) / greedy_obj)
        steps.append(report.iterations)
        assert report.residual_box <= 1e-6
        assert report.residual_row <= 1e-6
        assert report.residual_nuc <= 1e-4
    _report(3, worst_rel <= 1e-5,
            f"solver matches greedy oracle, worst rel diff = {worst_rel:.2e} "
            f"after {min(steps)}-{max(steps)} ascent steps")


def test_criterion_04_projection_correctness():
    rng = derive_rng(4, "projections")
    worst_box = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 11))
        v = rng.uniform(-1.5, 2.5, size=m) * rng.uniform(0.5, 2.0)
        cap = int(rng.integers(1, max(m // 2, 2)))
        got = project_capped_box_simplex(v, cap)
        want = capped_box_oracle(v, cap)
        worst_box = max(worst_box, float(np.abs(got - want).max()))
    worst_nuc = 0.0
    for _ in range(100):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 13))
        M = rng.standard_normal((rows, cols))
        rho = float(rng.uniform(0.3, 0.9)) * float(
            np.linalg.svd(M, compute_uv=False).sum())
        got = project_nuclear_ball(M, rho)
        want = nuclear_oracle(M, rho)
        worst_nuc = max(worst_nuc, float(np.linalg.norm(got - want)))
        assert np.linalg.svd(got, compute_uv=False).sum() <= rho + 1e-8
    ok = worst_box <= 1e-6 and worst_nuc <= 1e-6
    _report(4, ok, "projections match enumeration/bisection oracles "
            f"(box {worst_box:.2e}, nuclear {worst_nuc:.2e})")


def test_criterion_05_honest_world_exactness():
    cfg = ExperimentConfig(
        n=60, m=60, alpha=1.0, beta=0.2, epsilon=0.2, delta=0.1, k=60, k0=60,
        noise="noiseless", truth=("two_level", 0.0, 1.0))
    results = [run_trial(cfg, 1000 + s) for s in range(20)]
    _track(results, cfg)
    exact = sum(r.quality_gap == 0.0 for r in results)
    _report(5, exact == 20, f"honest noiseless recovery exact on {exact}/20 seeds")


TREND_K_GRID = (25, 50, 100, 200)
TREND_ADVERSARIES = (SymmetricBlocks(block_low=0.8), DenseHalfPositive())


@pytest.fixture(scope="module")
def trend_results():
    """Criterion 6 trials, shared with criterion 10."""
    out = {}
    for adv in TREND_ADVERSARIES:
        for k in TREND_K_GRID:
            cfg = ExperimentConfig(
                n=200, m=200, alpha=0.3, beta=0.2, epsilon=0.2, delta=0.1,
                k=k, k0=100, noise="noiseless", truth="uniform", adversary=adv,
                solver=SolverSettings(max_iters=400))
            results = [run_trial(cfg, 60000 + s) for s in range(20)]
            _track(results, cfg)
            out[(type(adv).__name__, k)] = results
    return out


def test_criterion_06_adversarial_trend(trend_results):
    ok = True
    lines = []
    for adv in TREND_ADVERSARIES:
        name = type(adv).__name__
        medians = [float(np.median([r.quality_gap
                                    for r in trend_results[(name, k)]]))
                   for k in TREND_K_GRID]
        decreasing = all(b < a for a, b in zip(medians, medians[1:]))
        final_ok = medians[-1] <= 0.15
        ok = ok and decreasing and final_ok
        lines.append(f"{name} medians {[round(x, 4) for x in medians]}")
    _report(6, ok, "; ".join(lines))


def test_criterion_07_accept_loop_frequency():
    cfg = ExperimentConfig(
        n=10, m=100, alpha=0.5, beta=0.4, epsilon=0.5, delta=0.1, k=10, k0=50,
        adversary=SymmetricBlocks())
    slack = cfg.epsilon / 4 * cfg.beta * cfg.k0
    total_iters = accepts = exhausted = used = 0
    for s in range(500):
        rng = derive_rng(80000 + s, "accept")
        T0 = rng.random(cfg.m)
        T0 = np.clip(T0 * (cfg.beta * cfg.m) / T0.sum(), 0.0, 1.0)
        r_prime = (rng.random(cfg.m) < cfg.k0 / cfg.m) * rng.random(cfg.m)
        if float(T0 @ r_prime) < slack:
            continue
        trace = accept_loop(T0, r_prime, cfg, rng)
        used += 1
        total_iters += trace.iterations
        accepts += int(trace.accepted)
        exhausted += int(not trace.accepted)
        CARDINALITY_LOG.append((trace.selection.size, cfg.beta_m))
    p0 = cfg.epsilon * cfg.beta / 4
    p_hat = accepts / total_iters
    sigma_p = math.sqrt(p0 * (1 - p0) / total_iters)
    exhaust_rate = exhausted / used
    sigma_e = math.sqrt(cfg.delta * (1 - cfg.delta) / used)
    ok = (p_hat >= p0 - 3 * sigma_p
          and exhaust_rate <= cfg.delta + 3 * sigma_e)
    _report(7, ok, f"acceptance rate {p_hat:.3f} >= {p0 - 3 * sigma_p:.3f}, "
            f"cap exhaustion {exhaust_rate:.3f} <= "
            f"{cfg.delta + 3 * sigma_e:.3f} ({used} non-degenerate runs)")


def test_criterion_08_deviation_concentration():
    n, alpha, beta, eps, delta = 40, 0.5, 0.5, 0.5, 0.1
    _, k0 = chernoff_budget(n, int(alpha * n), delta, eps, beta)
    cfg = ExperimentConfig(
        n=n, m=600, alpha=alpha, beta=beta, epsilon=eps, delta=delta,
        k=30, k0=k0, adversary=SymmetricBlocks(),
        solver=SolverSettings(max_iters=60))
    trials = 200
    results = [run_trial(cfg, 81000 + s) for s in range(trials)]
    _track(results, cfg)
    violations = sum(r.max_dev > r.dev_bound for r in results)
    rate = violations / trials
    bound = delta + 3 * math.sqrt(delta * (1 - delta) / trials)
    _report(8, rate <= bound,
            f"max-set deviation above eps*beta*k0 in {rate:.3f} of trials "
            f"<= {bound:.3f} (k0 = {k0})")


def test_criterion_09_operator_norm_scaling():
    medians = {}
    for k in (25, 100, 400):
        cfg = ExperimentConfig(
            n=400, m=400, alpha=1.0, beta=0.2, epsilon=0.2, delta=0.1,
            k=k, k0=100)
        vals = []
        for s in range(11):
            seed = 70000 + s
            world = build_world(cfg, derive_rng(seed, "world"))
            plan = draw_assignment(cfg, derive_rng(seed, "assign"))
            obs = realize_observations(plan, world, derive_rng(seed, "values"))
            B = denoised_matrix(world, obs, cfg)
            vals.append(operator_norm(obs.values - B) / math.sqrt(k))
        medians[k] = float(np.median(vals))
    spread = max(medians.values()) / min(medians.values())
    _report(9, spread < 2.0,
            "median opnorm/sqrt(k) spread across k grid = "
            f"{spread:.3f} < 2 ({ {k: round(v, 3) for k, v in medians.items()} })")


def test_criterion_10_monotonicity_transfer(trend_results):
    worst = -math.inf
    checked = 0
    for results in trend_results.values():
        for r in results:
            worst = max(worst, r.gap_r - (1.0 * r.gap_a + 0.0))
            checked += 1
    # additionally exercise a profile with slope genuinely below 1 (L = 2)
    cfg = ExperimentConfig(
        n=60, m=60, alpha=0.5, beta=0.2, epsilon=0.2, delta=0.1, k=30, k0=30,
        L=2.0, noise="noiseless", adversary=SymmetricBlocks(block_low=0.8),
        solver=SolverSettings(max_iters=300))
    affine = [run_trial(cfg, 62000 + s) for s in range(10)]
    _track(affine, cfg)
    worst_affine = max(r.gap_r - cfg.L * r.gap_a for r in affine)
    checked += len(affine)
    ok = worst <= 1e-9 and worst_affine <= 1e-9
    _report(10, ok, f"rating-gap transfer holds on all {checked} trials "
            f"(worst slack {max(worst, worst_affine):.2e})")


def test_criterion_02_cardinality_hard_bound():
    # defined last: audits every selection produced by the suite above
    # (a full run collects several hundred; never let it pass vacuously)
    assert len(CARDINALITY_LOG) >= 1
    violations = sum(size > allowed for size, allowed in CARDINALITY_LOG)
    _report(2, violations == 0,
            f"{len(CARDINALITY_LOG)} selections, {violations} cardinality "
            "violations")
