import numpy as np
import pytest
from scipy import stats

from qcrowd import (
    GroundTruth,
    MirroredCopy,
    WorldModel,
    derive_rng,
    draw_assignment,
    draw_self_ratings,
    realize_observations,
    realize_requester,
)

from conftest import make_config


class TestDrawAssignment:
    def test_full_budget_includes_every_pair(self):
        # k = m gives inclusion probability 1 and degree m <= 2k: no pruning
        cfg = make_config(n=6, m=8, k=8, k0=8)
        plan = draw_assignment(cfg, derive_rng(0, "assign"))
        assert plan.mask.sum() == cfg.n * cfg.m
        assert plan.pruned_rows == 0 and plan.pruned_cols == 0

    def test_degree_bounds_hold_for_every_seed(self):
        cfg = make_config(n=50, m=60, k=5, k0=5)
        for seed in range(20):
            plan = draw_assignment(cfg, derive_rng(seed, "assign"))
            assert plan.mask.sum(axis=1).max() <= 2 * cfg.k
            assert plan.mask.sum(axis=0).max() <= 2 * cfg.k

    def test_zero_budget_rejected_by_validation(self):
        from qcrowd import ConfigError
        with pytest.raises(ConfigError):
            make_config(k=0)

    def test_binomial_statistics_at_scale(self):
        # oracle: exact Binomial(m, k/m) moments and tail
        n = m = 2000
        k = 20
        seeds = 200
        cfg = make_config(n=n, m=m, k=k, k0=k, beta=0.05)
        p_heavy = stats.binom.sf(2 * k, m, k / m)  # P(row needs pruning)
        total_rows = 0
        degree_sum = 0.0
        pruned = 0
        for seed in range(seeds):
            plan = draw_assignment(cfg, derive_rng(seed, "assign"))
            pruned += plan.pruned_rows
            degree_sum += plan.mask.sum()
            total_rows += n
        pruned_fraction = pruned / total_rows
        assert pruned_fraction <= 5 * np.exp(-k / 3) + 1e-3
        assert pruned_fraction <= p_heavy + 3 * np.sqrt(p_heavy / total_rows) + 1e-6
        mean_degree = degree_sum / total_rows
        sigma = np.sqrt(m * (k / m) * (1 - k / m) / total_rows)
        # pruning only ever removes cells, hence the one-sided slack
        assert k - 3 * sigma - p_heavy * 2 * k <= mean_degree <= k + 3 * sigma


class TestDrawSelfRatings:
    def test_full_budget_gives_all_ones(self):
        cfg = make_config(n=6, m=8, k=8, k0=8)
        a, b = draw_self_ratings(cfg, derive_rng(1, "req"))
        assert a.sum() == cfg.m and b.sum() == cfg.m

    def test_counts_match_binomial_moments(self):
        m, k0, seeds = 1000, 50, 1000
        cfg = make_config(n=10, m=m, k=50, k0=k0, beta=0.05)
        counts = np.empty((seeds, 2))
        for s in range(seeds):
            a, b = draw_self_ratings(cfg, derive_rng(s, "req"))
            counts[s] = a.sum(), b.sum()
        sigma = np.sqrt(m * 0.05 * 0.95)
        assert abs(counts.mean() - k0) <= 3 * sigma / np.sqrt(2 * seeds)
        # independence of the two masks: per-seed count covariance near 0
        prods = (counts[:, 0] - k0) * (counts[:, 1] - k0)
        assert abs(prods.mean()) <= 3 * prods.std(ddof=1) / np.sqrt(seeds)


def _honest_world(cfg, a_star_value=None, noise="noiseless"):
    rng = derive_rng(5, "gt")
    r_star = rng.random(cfg.m)
    gt = GroundTruth.from_ratings(r_star, cfg.beta_m)
    if a_star_value is None:
        a_star = np.tile(r_star, (cfg.n, 1))
    else:
        a_star = np.full((cfg.n, cfg.m), a_star_value)
    return WorldModel(ground_truth=gt, reliable_set=np.arange(cfg.n),
                      a_star=a_star, adversary=None, noise=noise)


class TestRealizeObservations:
    def test_noiseless_reproduces_expectations_on_mask(self):
        cfg = make_config(n=6, m=8, k=4, k0=4)
        world = _honest_world(cfg)
        plan = draw_assignment(cfg, derive_rng(2, "assign"))
        obs = realize_observations(plan, world, derive_rng(2, "values"))
        assert np.array_equal(obs.mask, plan.mask)
        expect = world.a_star * plan.mask
        assert np.allclose(obs.values, expect)

    def test_bernoulli_mean_matches(self):
        # A* = 0.6 everywhere; empirical mean of rated draws within 3 sigma
        cfg = make_config(n=1, m=100_000, alpha=1.0, k=100_000, k0=100_000,
                          beta=0.01)
        world = _honest_world(cfg, a_star_value=0.6, noise="bernoulli")
        plan = draw_assignment(cfg, derive_rng(3, "assign"))
        obs = realize_observations(plan, world, derive_rng(3, "values"))
        draws = obs.values[obs.mask == 1]
        sigma = np.sqrt(0.6 * 0.4 / draws.size)
        assert abs(draws.mean() - 0.6) <= 3 * sigma

    def test_mirrored_copy_replays_reliable_rows(self):
        # full observation: adversary rows equal the permuted reliable rows
        cfg = make_config(n=8, m=8, alpha=0.5, beta=0.25, k=8, k0=8,
                          adversary=MirroredCopy(perm_seed=13))
        rng = derive_rng(4, "gt")
        gt = GroundTruth.from_ratings(rng.random(8), cfg.beta_m)
        world = WorldModel(ground_truth=gt, reliable_set=np.arange(4),
                           a_star=np.tile(gt.r_star, (4, 1)),
                           adversary=cfg.adversary, noise="bernoulli")
        plan = draw_assignment(cfg, derive_rng(4, "assign"))
        obs = realize_observations(plan, world, derive_rng(4, "values"))
        perm = derive_rng(13, "mirror-perm").permutation(8)
        for a in range(4):
            assert np.array_equal(obs.values[4 + a], obs.values[a][perm])

    def test_mirrored_copy_identity_duplicates(self):
        cfg = make_config(n=8, m=8, alpha=0.5, beta=0.25, k=8, k0=8,
                          adversary=MirroredCopy(perm_seed=13))
        rng = derive_rng(6, "gt")
        gt = GroundTruth.from_ratings(rng.random(8), cfg.beta_m)
        world = WorldModel(ground_truth=gt, reliable_set=np.arange(4),
                           a_star=np.tile(gt.r_star, (4, 1)),
                           adversary=cfg.adversary, noise="bernoulli")
        plan = draw_assignment(cfg, derive_rng(6, "assign"))
        obs = realize_observations(plan, world, derive_rng(6, "values"))
        perm = derive_rng(13, "mirror-perm").permutation(8)
        undo = np.argsort(perm)
        assert np.array_equal(obs.values[4:], obs.values[:4][:, perm])
        assert np.array_equal(obs.values[4:][:, undo], obs.values[:4])


class TestRealizeRequester:
    def test_noiseless_full_masks_reproduce_r_star(self):
        cfg = make_config(n=6, m=8, k=8, k0=8)
        world = _honest_world(cfg)
        masks = (np.ones(8, dtype=np.int8), np.ones(8, dtype=np.int8))
        req = realize_requester(world, masks, derive_rng(7, "req"))
        assert np.allclose(req.r_tilde, world.ground_truth.r_star)
        assert np.allclose(req.r_tilde_prime, world.ground_truth.r_star)

    def test_zero_outside_mask(self):
        cfg = make_config(n=6, m=8, k=4, k0=4)
        world = _honest_world(cfg, noise="bernoulli")
        masks = draw_self_ratings(cfg, derive_rng(8, "req"))
        req = realize_requester(world, masks, derive_rng(8, "req2"))
        assert np.all(req.r_tilde[masks[0] == 0] == 0)
        assert np.all(req.r_tilde_prime[masks[1] == 0] == 0)
