import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcrowd import (
    ConfigError,
    GroundTruth,
    RandomSpam,
    SelectionSet,
    SolverSettings,
    SymmetricBlocks,
    TOL_FEAS,
    TOL_NUC,
    WorldModel,
    chernoff_budget,
    denoised_matrix,
    derive_rng,
    deviations,
    build_world,
    draw_assignment,
    draw_self_ratings,
    max_set_deviation,
    operator_norm,
    quality_gap,
    realize_observations,
    realize_requester,
    recover_quantile,
    run_trial,
    simulate_trial,
)
from qcrowd import analysis, assignment
from qcrowd.world import STRATEGIES

from conftest import make_config, readme_config


class TestQualityGap:
    def _gt(self):
        return GroundTruth.from_ratings(
            [0.9, 0.1, 0.8, 0.4, 0.6, 0.3, 0.2, 0.5, 0.7, 0.0], beta_m=3)

    def test_true_set_has_zero_gap(self):
        gt = self._gt()
        assert quality_gap(SelectionSet(gt.t_star), gt, 3) == 0.0

    def test_empty_selection(self):
        gt = self._gt()
        want = (0.9 + 0.8 + 0.7) / 3
        assert quality_gap(SelectionSet(np.zeros(10, dtype=int)), gt, 3) == \
            pytest.approx(want)

    def test_matches_direct_sum_oracle(self):
        gt = self._gt()
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = (rng.random(10) < 0.3).astype(int)
            want = (sum(gt.r_star[j] for j in range(10) if gt.t_star[j])
                    - sum(gt.r_star[j] for j in range(10) if t[j])) / 3
            assert quality_gap(SelectionSet(t), gt, 3) == pytest.approx(want)

    def test_nonnegative_for_bounded_selections(self):
        gt = self._gt()
        rng = np.random.default_rng(1)
        for _ in range(50):
            idx = rng.choice(10, size=3, replace=False)
            t = np.zeros(10, dtype=int)
            t[idx] = 1
            assert quality_gap(SelectionSet(t), gt, 3) >= 0.0

    def test_monotone_when_swapping_in_a_true_item(self):
        gt = self._gt()
        t = np.zeros(10, dtype=int)
        t[[1, 3, 5]] = 1  # poor picks
        base = quality_gap(SelectionSet(t), gt, 3)
        t2 = t.copy()
        t2[1] = 0
        t2[0] = 1  # swap a junk item for a true-top item
        assert quality_gap(SelectionSet(t2), gt, 3) < base


def _world(cfg, noise="noiseless", seed=0):
    rng = derive_rng(seed, "w")
    r = rng.random(cfg.m)
    gt = GroundTruth.from_ratings(r, cfg.beta_m)
    return WorldModel(ground_truth=gt, reliable_set=np.arange(cfg.alpha_n),
                      a_star=np.tile(r, (cfg.alpha_n, 1)),
                      adversary=RandomSpam(), noise=noise)


class TestDenoisedMatrix:
    def test_full_noiseless_observation_matches_on_reliable_rows(self):
        cfg = make_config(n=6, m=8, alpha=0.5, beta=0.25, k=8, k0=8)
        world = _world(cfg)
        plan = draw_assignment(cfg, derive_rng(1, "a"))
        obs = realize_observations(plan, world, derive_rng(1, "v"))
        B = denoised_matrix(world, obs, cfg)
        diff = obs.values - B
        assert np.allclose(diff[world.reliable_set], 0.0)

    def test_adversary_rows_contribute_nothing(self):
        cfg = make_config(n=6, m=8, alpha=0.5, beta=0.25, k=4, k0=4)
        world = _world(cfg, noise="bernoulli")
        plan = draw_assignment(cfg, derive_rng(2, "a"))
        obs = realize_observations(plan, world, derive_rng(2, "v"))
        B = denoised_matrix(world, obs, cfg)
        adv = np.setdiff1d(np.arange(cfg.n), world.reliable_set)
        assert np.array_equal((obs.values - B)[adv], np.zeros((3, 8)))

    def test_observation_mean_matches_scaled_expectation(self):
        # E[observed cell] = (k/m) * a_star: mask Bernoulli(k/m) times a
        # Bernoulli(a_star) value
        cfg = make_config(n=2, m=6, alpha=1.0, beta=0.5, k=3, k0=3)
        world = _world(cfg, noise="bernoulli", seed=3)
        total = np.zeros((2, 6))
        reps = 10_000
        for s in range(reps):
            plan = draw_assignment(cfg, derive_rng(s, "a"))
            obs = realize_observations(plan, world, derive_rng(s, "v"))
            total += obs.values
        mean = total / reps
        expect = (cfg.k / cfg.m) * world.a_star
        sigma = np.sqrt(np.maximum(expect * (1 - expect), 1e-4) / reps)
        assert np.all(np.abs(mean - expect) <= 4 * sigma)


@st.composite
def _opnorm_inputs(draw):
    """Tall, wide and square matrices up to 12 x 40, some of them of lower
    rank than their shape allows (a product of thin factors)."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.standard_normal((n, m))
    r = draw(st.integers(0, min(n, m)))
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, m))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-9)

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(7)
        v = rng.standard_normal(9)
        M = np.outer(u, v)
        want = np.linalg.norm(u) * np.linalg.norm(v)
        assert operator_norm(M) == pytest.approx(want, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(_opnorm_inputs())
    @example(np.zeros((3, 4)))
    @example(np.outer([1.0, -2.0, 3.0], [0.5, 0.0, 1.5, -1.0]) * 2.0 ** 600)
    @example(np.outer([1.0, -2.0, 3.0], [0.5, 0.0, 1.5, -1.0]) * 2.0 ** -600)
    @example(np.array([[3e-320, -1e-321, 0.0], [5e-324, 2e-320, 7e-321]]))
    @example(np.array([[1e300, 1e-300], [2e-300, -1e300], [0.0, 1e299]]))
    @example(np.array([[1.7e308, 1.0]]))  # c = 2**1024 is not a float
    def test_matches_full_svd(self, M):
        want = np.linalg.svd(M, compute_uv=False)[0]
        assert operator_norm(M) == pytest.approx(want, rel=1e-12)

    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 4))) == 0.0

    def test_overflows_to_inf(self):
        assert operator_norm(np.full((2, 2), 1.7e308)) == math.inf

    def test_empty_matrix(self):
        assert operator_norm(np.zeros((0, 4))) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entry(self, bad):
        M = np.ones((3, 4))
        M[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            operator_norm(M)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match="2-D matrix"):
            operator_norm(np.ones(shape))


    def test_is_the_core_function(self):
        # one sigma_1 kernel, shared with the acceptance criteria
        from qcrowd import core
        assert analysis.operator_norm is core.operator_norm


class TestMaxSetDeviation:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        D = rng.standard_normal(12)
        v_min = 4
        best = 0.0
        for size in range(v_min, 13):
            for combo in itertools.combinations(range(12), size):
                best = max(best, abs(D[list(combo)].mean()))
        assert max_set_deviation(D, v_min) == pytest.approx(best)

    def test_invalid_v(self):
        with pytest.raises(ValueError):
            max_set_deviation(np.ones(3), 4)


class TestDeviations:
    def test_zero_noise_full_observation_gives_zero_deviation(self):
        cfg = make_config(n=6, m=8, alpha=1.0, beta=0.25, k=8, k0=8)
        world = _world(cfg)
        r_star = world.ground_truth.r_star
        r_tilde = r_star.copy()  # fully observed, noiseless, k0 = m
        M = np.full((6, 8), 0.25)
        D = deviations(M, r_tilde, r_star, cfg.k0, cfg.m)
        assert np.allclose(D, 0.0)
        assert max_set_deviation(D, cfg.alpha_n) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        M = rng.random((4, 6))
        r_tilde = rng.random(6)
        r_star = rng.random(6)
        D = deviations(M, r_tilde, r_star, k0=3, m=6)
        want = M @ (r_tilde - 0.5 * r_star)
        assert np.allclose(D, want)


class TestChernoffBudget:
    def test_weaker_threshold_is_larger(self):
        lo, hi = chernoff_budget(n=40, v=20, delta=0.1, epsilon=0.5, beta=0.5)
        assert hi >= lo
        base = 3 * math.log(2 * 40 / (20 * 0.1)) / min(0.5, 0.25)
        assert lo == math.ceil(base)
        assert hi == math.ceil(base / 0.5)


class TestMonotoneTransfer:
    def test_affine_world_satisfies_transfer_inequality(self):
        cfg = make_config(n=12, m=16, alpha=1.0, beta=0.25, k=16, k0=16, L=2.0,
                          noise="noiseless", solver=SolverSettings(max_iters=150))
        for s in range(5):
            res = run_trial(cfg, 500 + s)
            assert res.gap_r <= cfg.L * res.gap_a + 1e-9

    def test_identity_world_gaps_coincide(self):
        cfg = make_config(n=8, m=10, alpha=1.0, beta=0.3, k=10, k0=10,
                          noise="noiseless", solver=SolverSettings(max_iters=100))
        res = run_trial(cfg, 42)
        assert res.gap_r == pytest.approx(res.gap_a, abs=1e-12)


class TestExpectedRatingGapTrend:
    def test_median_gap_a_shrinks_with_larger_budget(self):
        # among solver-converged trials, a 4x rating budget strictly shrinks
        # the median reliable-row gap measured in expected-rating space
        from qcrowd import SymmetricBlocks
        medians = {}
        for k in (10, 40):
            cfg = make_config(
                n=60, m=80, alpha=0.4, beta=0.2, epsilon=0.3, k=k, k0=40,
                noise="noiseless", truth="uniform",
                adversary=SymmetricBlocks(block_low=0.8),
                solver=SolverSettings(max_iters=600, eta0=1e6))
            results = [run_trial(cfg, 90000 + s) for s in range(10)]
            converged = [r.gap_a for r in results if r.solver_converged]
            assert converged, "expected converged trials at these settings"
            medians[k] = float(np.median(converged))
        assert medians[40] < medians[10]


class TestRunTrial:
    def test_deterministic_given_seed(self):
        cfg = make_config(adversary=RandomSpam(0.7),
                          solver=SolverSettings(max_iters=120))
        a = run_trial(cfg, 9)
        b = run_trial(cfg, 9)
        assert a == b

    def test_reports_feasibility_and_cardinality(self, monkeypatch):
        cfg = make_config(adversary=RandomSpam(0.7),
                          solver=SolverSettings(max_iters=120))
        res = run_trial(cfg, 10)
        assert res.residual_box <= TOL_FEAS and res.residual_row <= TOL_FEAS
        assert res.residual_nuc <= TOL_NUC
        assert res.selection_size <= cfg.beta_m
        assert -1.0 <= res.quality_gap <= 1.0
        # the residuals are the solver's, copied through
        solve = analysis.solve_recover_M

        def off_by(*args, **kwargs):
            matrix, report = solve(*args, **kwargs)
            return matrix, dataclasses.replace(
                report, residual_box=1.0, residual_row=2.0, residual_nuc=3.0)

        monkeypatch.setattr(analysis, "solve_recover_M", off_by)
        res = run_trial(cfg, 10)
        assert (res.residual_box, res.residual_row, res.residual_nuc) == (
            1.0, 2.0, 3.0)

    @pytest.mark.parametrize("rho_scale,max_iters", [(1.0, 400), (0.2, 20)],
                             ids=["slack", "binding"])
    def test_record_follows_the_hand_built_streams(self, rho_scale, max_iters):
        # criterion 9 builds the world, plan and observations by hand from
        # these labels, so a relabelled or reordered stream fails here
        cfg = readme_config(rho_scale, max_iters)
        trial = simulate_trial(cfg, 42)
        world = build_world(cfg, derive_rng(42, "world"))
        plan = draw_assignment(cfg, derive_rng(42, "assign"))
        observed = realize_observations(plan, world, derive_rng(42, "values"))
        rng = derive_rng(42, "requester")
        requester = realize_requester(world, draw_self_ratings(cfg, rng), rng)
        trace = recover_quantile(trial.matrix.M, requester.r_tilde,
                                 requester.r_tilde_prime, cfg,
                                 derive_rng(42, "round"))
        for got, want in [
                (trial.world.ground_truth.r_star, world.ground_truth.r_star),
                (trial.world.reliable_set, world.reliable_set),
                (trial.plan.mask, plan.mask),
                (trial.observed.values, observed.values),
                (trial.requester.r_tilde, requester.r_tilde),
                (trial.requester.r_tilde_prime, requester.r_tilde_prime),
                (trial.trace.selection.t, trace.selection.t)]:
            assert np.array_equal(got, want)
        res = run_trial(cfg, 42)
        assert (res.solver_obj, res.solver_iters, res.round_iters,
                res.selection_size) == (
            trial.report.objective, trial.report.iterations,
            trial.trace.iterations, trial.trace.selection.size)

    def test_not_converged_propagates_when_disallowed(self):
        # the iterate is kept; non-convergence shows in the result only
        # (at rho_scale 0.05 rho is 3.5 against 6.7 for the nuclear norm of
        # the row program's face point, so the ball binds and 2 steps cannot
        # certify)
        cfg = make_config(adversary=RandomSpam(0.7), rho_scale=0.05,
                          solver=SolverSettings(max_iters=2))
        res = run_trial(cfg, 11)
        assert not res.solver_converged


    @pytest.mark.parametrize("L", [1.0, 2.0])
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda c: c.__name__)
    def test_opnorm_of_reliable_rows_is_the_full_norm(self, strategy, L):
        cfg = make_config(adversary=strategy(), L=L)
        trial = simulate_trial(cfg, 12)
        world, observed = trial.world, trial.observed
        diff = observed.values - denoised_matrix(world, observed, cfg)
        others = np.setdiff1d(np.arange(diff.shape[0]), world.reliable_set)
        assert others.size > 0
        assert np.all(diff[others] == 0.0)
        res = run_trial(cfg, 12)
        assert res.opnorm > 0.0
        assert res.opnorm == pytest.approx(operator_norm(diff), rel=1e-12)

    def test_calls_each_traced_function_once(self, monkeypatch):
        # the bench tracer times these through their module attributes
        counts = {}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for module, name in ((analysis, "operator_norm"),
                             (analysis, "denoised_matrix"),
                             (assignment, "adversary_fill")):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
        run_trial(make_config(adversary=SymmetricBlocks()), 13)
        assert counts == {"operator_norm": 1, "denoised_matrix": 1,
                          "adversary_fill": 1}


class TestReplaceConfig:
    def test_revalidates(self):
        cfg = make_config()
        cfg2 = dataclasses.replace(cfg, k=3)
        assert cfg2.k == 3 and cfg2.beta_m == cfg.beta_m
        with pytest.raises(ConfigError, match="k must be at most m"):
            dataclasses.replace(cfg, k=cfg.m + 1)

    def test_recomputes_derived_values(self):
        cfg = make_config(n=10, m=12, beta=1 / 6)
        wider = dataclasses.replace(cfg, m=24)
        assert (cfg.beta_m, wider.beta_m) == (2, 4)
        assert wider.rho == pytest.approx(cfg.rho * math.sqrt(2))
        assert wider == make_config(n=10, m=24, beta=1 / 6)

    def test_survives_pickle(self):
        # --jobs > 1 sends the config to worker processes
        cfg = make_config(adversary=RandomSpam(0.7))
        assert pickle.loads(pickle.dumps(cfg)) == cfg
