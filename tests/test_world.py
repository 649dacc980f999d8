import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcrowd import (
    AntiCorrelated,
    ConfigError,
    DenseHalfPositive,
    GroundTruth,
    MirroredCopy,
    RandomSpam,
    SymmetricBlocks,
    WorldModel,
    affine_monotone_profile,
    build_world,
    derive_rng,
    generate_ground_truth,
)
from qcrowd.assignment import AssignmentPlan
from qcrowd.world import (
    adversary_fill,
    check_monotonicity,
    monotonicity_violation,
    random_affine_profile,
)

from conftest import make_config


def full_plan(n, m):
    return AssignmentPlan(mask=np.ones((n, m), dtype=np.int8),
                          pruned_rows=0, pruned_cols=0)


def exhaustive_violation_oracle(r_star, a_star, L):
    """Pairwise reference for monotonicity_violation: m x m slacks per row."""
    r = np.asarray(r_star, dtype=float)
    a = np.atleast_2d(np.asarray(a_star, dtype=float))
    ge = r[:, None] >= r[None, :]
    r_diff = r[:, None] - r[None, :]
    worst = -np.inf
    for row in a:
        slack = r_diff - L * (row[:, None] - row[None, :])
        worst = max(worst, float(slack[ge].max()))
    return worst


def symmetric_blocks_oracle(strategy, plan, reliable_set, gt):
    """Per-row reference for the SymmetricBlocks fill: adversary a (in
    rater order) joins group a // alpha_n, the remainder joining the last
    full group, and group b rates the beta_m items from position
    (b + 1) * beta_m of the descending r_star order (cyclically) with 1."""
    n, m = plan.mask.shape
    adv_rows = np.setdiff1d(np.arange(n), reliable_set)
    alpha_n = len(reliable_set)
    beta_m = int(gt.t_star.sum())
    desc = np.argsort(-gt.r_star, kind="stable")
    n_full = max(adv_rows.size // alpha_n, 1)
    values = np.full((adv_rows.size, m), strategy.block_low)
    for a in range(adv_rows.size):
        block = 1 + min(a // alpha_n, n_full - 1)
        start = (block * beta_m) % m
        values[a, desc[np.arange(start, start + beta_m) % m]] = 1.0
    return values * plan.mask[adv_rows]


@st.composite
def _monotonicity_inputs(draw):
    m = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0)
    r_kind = draw(st.sampled_from(["ties", "all_equal", "continuous"]))
    if r_kind == "ties":
        r = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                          min_size=m, max_size=m))
    elif r_kind == "all_equal":
        r = [draw(unit)] * m
    else:
        r = draw(st.lists(unit, min_size=m, max_size=m))
    r = np.array(r)
    L = draw(st.floats(1.0, 10.0))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            # near-monotone row: affine in r plus a small perturbation
            slope = draw(st.floats(1.0 / L, 1.0))
            noise = np.array(draw(st.lists(st.floats(-0.1, 0.1),
                                           min_size=m, max_size=m)))
            rows.append(np.clip(slope * r + noise, 0.0, 1.0))
        else:
            rows.append(np.array(draw(st.lists(unit, min_size=m, max_size=m))))
    return r, np.array(rows), L


class TestGenerateGroundTruth:
    def test_two_level_marks_the_high_items(self):
        gt = generate_ground_truth(12, ("two_level", 0.0, 1.0),
                                   derive_rng(0, "gt"), beta_m=2)
        assert gt.t_star.sum() == 2
        assert np.all(gt.r_star[gt.t_star == 1] == 1.0)
        assert np.all(gt.r_star[gt.t_star == 0] == 0.0)

    def test_uniform_threshold_is_order_statistic(self):
        gt = generate_ground_truth(40, "uniform", derive_rng(1, "gt"), beta_m=7)
        cut = np.sort(gt.r_star)[::-1][6]
        assert np.all(gt.r_star[gt.t_star == 1] >= cut)
        assert np.all(gt.r_star[gt.t_star == 0] <= cut)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            generate_ground_truth(5, "triangular", derive_rng(0, "gt"), beta_m=1)


class TestAffineProfile:
    def test_binary_accuracy_three_fifths_example(self):
        # a rater agreeing with binary truth 3/5 of the time has expected
        # ratings 2/5 + (1/5) r and tracks the truth with L = 5, slack 0
        r = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        a = affine_monotone_profile(r, slopes=[0.2], intercepts=[0.4])
        assert np.allclose(a, 0.4 + 0.2 * r)
        assert monotonicity_violation(r, a, L=5.0) <= 1e-12

    def test_identity_profile(self):
        r = np.linspace(0, 1, 9)
        a = affine_monotone_profile(r, slopes=[1.0], intercepts=[0.0])
        assert np.allclose(a[0], r)
        assert monotonicity_violation(r, a, L=1.0) <= 1e-12

    def test_random_slopes_are_monotone_with_zero_slack(self):
        rng = derive_rng(2, "profile")
        r = rng.random(200)
        L = 3.0
        a = random_affine_profile(r, n_raters=12, L=L, rng=rng)
        assert monotonicity_violation(r, a, L) <= 1e-12
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_profile_leaving_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            affine_monotone_profile(np.array([1.0]), slopes=[0.8], intercepts=[0.4])
        with pytest.raises(ValueError):
            affine_monotone_profile(np.array([1.0]), slopes=[0.5], intercepts=[-0.1])

    def test_violation_matches_brute_force(self):
        rng = derive_rng(3, "prof")
        r = rng.random(15)
        a = rng.random((2, 15))
        L = 2.0
        worst = -np.inf
        for row in a:
            for j in range(15):
                for jp in range(15):
                    if r[j] >= r[jp]:
                        worst = max(worst, r[j] - r[jp] - L * (row[j] - row[jp]))
        assert monotonicity_violation(r, a, L) == pytest.approx(worst)

    @settings(max_examples=300, deadline=None)
    @given(_monotonicity_inputs())
    @example((np.array([0.0, 0.5, 0.5, 1.0]),
              np.array([[0.0, 0.4, 0.6, 1.0]]), 1.0))  # needs the later tie
    @example((np.array([0.3]), np.array([[0.9], [0.1]]), 10.0))  # m = 1
    def test_matches_exhaustive_oracle(self, case):
        r, a, L = case
        fast = monotonicity_violation(r, a, L)
        assert fast >= 0.0
        assert abs(fast - exhaustive_violation_oracle(r, a, L)) <= 1e-12 * (1 + L)

    def test_columns_must_match_ratings(self):
        with pytest.raises(ValueError, match="column"):
            monotonicity_violation(np.linspace(0, 1, 5), np.zeros((2, 7)), 1.0)

    @pytest.mark.parametrize("where", ["profile", "rating"])
    def test_nan_fails_check(self, where):
        r = np.linspace(0, 1, 6)
        a = np.tile(r, (2, 1))
        (a[1] if where == "profile" else r)[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_monotonicity(r, a, L=1.0)

    @pytest.mark.parametrize("viol,ok", [(0.5e-9, True), (2e-9, False)],
                             ids=["within-tol", "above-tol"])
    def test_check_monotonicity_allows_only_rounding(self, viol, ok):
        r = np.array([0.0, 1.0])
        a = np.array([[0.0, 1.0 - viol]])  # violation viol at L = 1
        assert monotonicity_violation(r, a, 1.0) == pytest.approx(viol, rel=1e-6)
        if ok:
            check_monotonicity(r, a, L=1.0)
        else:
            with pytest.raises(ValueError, match="monotonicity"):
                check_monotonicity(r, a, L=1.0)

    def test_check_monotonicity_raises_on_violation(self):
        r = np.array([1.0, 0.0])
        a = np.array([[0.0, 1.0]])  # decreasing in r
        with pytest.raises(ValueError, match="monotonicity"):
            check_monotonicity(r, a, L=1.0)


def _descending_gt(m, beta_m, lo=0.8):
    # strictly descending two-level-ish ratings: item blocks in index order
    levels = np.concatenate([np.ones(beta_m), np.full(m - beta_m, lo)])
    r = 0.05 + 0.9 * levels - np.arange(m) * (0.04 / m)  # tie-break, stay in [0,1]
    return GroundTruth.from_ratings(r, beta_m)


class TestSymmetricBlocks:
    def test_block_matrix_structure(self):
        # alpha = beta, n = m: full matrix is J on the diagonal blocks and
        # block_low off the diagonal
        n = m = 8
        block = 2
        eps = 0.25
        gt = _descending_gt(m, block, lo=1 - eps)
        plan = full_plan(n, m)
        fill = adversary_fill(SymmetricBlocks(block_low=1 - eps), plan,
                              np.tile(gt.r_star, (block, 1)),
                              np.arange(block, n), gt, derive_rng(0, "adv"))
        reliable_rows = np.where(gt.t_star[None, :] == 1, 1.0, 1 - eps)
        A = np.vstack([np.tile(reliable_rows, (block, 1)), fill])
        for rb in range(4):
            for ib in range(4):
                sub = A[2 * rb:2 * rb + 2, 2 * ib:2 * ib + 2]
                want = 1.0 if rb == ib else 1 - eps
                assert np.allclose(sub, want), (rb, ib)

    def test_invariant_under_simultaneous_block_permutation(self):
        n = m = 8
        gt = _descending_gt(m, 2)
        plan = full_plan(n, m)
        fill = adversary_fill(SymmetricBlocks(block_low=0.75), plan,
                              np.tile(gt.r_star, (2, 1)), np.arange(2, n), gt,
                              derive_rng(0, "adv"))
        reliable_rows = np.where(gt.t_star[None, :] == 1, 1.0, 0.75)
        A = np.vstack([np.tile(reliable_rows, (2, 1)), fill])
        # swap adversary blocks 1 and 2 together with item blocks 1 and 2
        rows = np.array([0, 1, 4, 5, 2, 3, 6, 7])
        cols = np.array([0, 1, 4, 5, 2, 3, 6, 7])
        assert np.array_equal(A[rows][:, cols], A)

    def test_remainder_raters_join_last_block(self):
        n, m = 10, 12
        gt = _descending_gt(m, 2)
        plan = full_plan(n, m)
        fill = adversary_fill(SymmetricBlocks(block_low=0.5), plan,
                              np.tile(gt.r_star, (3, 1)), np.arange(3, n), gt,
                              derive_rng(0, "adv"))
        # 7 adversaries in groups of 3: [0,1,2], [3,4,5], remainder 6 joins last
        assert np.array_equal(fill[6], fill[5])

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConfigError):
            SymmetricBlocks(block_low=1.5)

    @pytest.mark.parametrize("n, m, alpha_n, beta_m", [
        (8, 8, 2, 2),     # n = m, blocks tile the items exactly
        (10, 10, 2, 3),   # m not a multiple of beta_m; block 3 wraps (9 + 3 > 10)
        (10, 12, 3, 2),   # 7 adversaries in groups of 3: one remainder rater
        (11, 13, 2, 5),   # wrap-around plus a remainder rater
        (5, 7, 3, 4),     # fewer adversaries than reliable raters; wraps
        (4, 4, 1, 4),     # beta_m = m: every block is every item
    ])
    def test_matches_per_row_loop(self, n, m, alpha_n, beta_m):
        rng = derive_rng(n * 1000 + m, "blocks")
        gt = GroundTruth.from_ratings(rng.uniform(size=m), beta_m)
        reliable = np.sort(rng.choice(n, size=alpha_n, replace=False))
        mask = (rng.random((n, m)) < 0.7).astype(np.int8)
        plan = AssignmentPlan(mask=mask, pruned_rows=0, pruned_cols=0)
        strategy = SymmetricBlocks(block_low=0.6)
        fill = adversary_fill(strategy, plan, np.zeros((alpha_n, m)),
                              np.setdiff1d(np.arange(n), reliable), gt,
                              derive_rng(0, "adv"))
        assert np.array_equal(
            fill, symmetric_blocks_oracle(strategy, plan, reliable, gt))


# 0-indexed halves of the 10x12 spam example: three blocks of two raters,
# each rating a shared half of the items 1 and the rest 0
PAPER_HALVES = ((1, 4, 8, 9, 10, 11), (1, 2, 4, 5, 7, 10), (0, 2, 3, 6, 9, 11))
PAPER_BAD_ROWS = np.array([
    [0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1],
    [0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
    [0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
    [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
    [1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1],
], dtype=float)


class TestDenseHalfPositive:
    def test_reproduces_documented_spam_pattern(self):
        n, m = 10, 12
        gt = _descending_gt(m, 2, lo=0.0)
        # four reliable raters, alpha = 2/5
        fill = adversary_fill(DenseHalfPositive(halves=PAPER_HALVES),
                              full_plan(n, m), np.tile(gt.r_star, (4, 1)),
                              np.arange(4, n), gt, derive_rng(0, "adv"))
        assert np.array_equal(fill, PAPER_BAD_ROWS)

    def test_default_block_size_and_shared_halves(self):
        n, m = 10, 12
        gt = _descending_gt(m, 2, lo=0.0)
        fill = adversary_fill(DenseHalfPositive(), full_plan(n, m),
                              np.tile(gt.r_star, (4, 1)), np.arange(4, n), gt,
                              derive_rng(1, "adv"))
        # derived block size 3 * alpha * beta * n = 2: three blocks of two
        for b in range(3):
            assert np.array_equal(fill[2 * b], fill[2 * b + 1])
            assert fill[2 * b].sum() == m // 2
        assert not np.array_equal(fill[0], fill[2])

    def test_too_few_halves_rejected(self):
        gt = _descending_gt(12, 2, lo=0.0)
        with pytest.raises(ConfigError, match="halves"):
            adversary_fill(DenseHalfPositive(halves=((0, 1),)),
                           full_plan(10, 12), np.tile(gt.r_star, (4, 1)),
                           np.arange(4, 10), gt, derive_rng(0, "adv"))

    # an index of m used to raise IndexError in the trial, and a negative
    # one to wrap around to the last items
    @pytest.mark.parametrize("bad", [12, -1], ids=["m", "negative"])
    def test_out_of_range_halves_rejected(self, bad):
        gt = _descending_gt(12, 2, lo=0.0)
        halves = PAPER_HALVES[:2] + ((0, 2, 3, 6, 9, bad),)
        with pytest.raises(ConfigError, match="halves must index items 0 to 11"):
            adversary_fill(DenseHalfPositive(halves=halves),
                           full_plan(10, 12), np.tile(gt.r_star, (4, 1)),
                           np.arange(4, 10), gt, derive_rng(0, "adv"))


class TestStrategyParameters:
    @pytest.mark.parametrize("cls,name,value", [
        (RandomSpam, "p_high", -0.1),
        (RandomSpam, "p_high", 1.5),
        (RandomSpam, "p_high", float("nan")),
        (SymmetricBlocks, "block_low", -0.1),
        (SymmetricBlocks, "block_low", float("nan")),
        (DenseHalfPositive, "block_size", -1),
    ], ids=lambda v: str(v) if not isinstance(v, type) else v.__name__)
    def test_out_of_range_rejected_as_config_error(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("cls,name,value", [
        (RandomSpam, "p_high", "0.5"),
        (SymmetricBlocks, "block_low", "x"),
        (DenseHalfPositive, "block_size", 2.5),
        (DenseHalfPositive, "block_size", True),
        (DenseHalfPositive, "halves", ((0, 1.5),)),
        (DenseHalfPositive, "halves", 5),
        (MirroredCopy, "perm_seed", 2.5),
    ], ids=lambda v: repr(v) if not isinstance(v, type) else v.__name__)
    def test_bad_type_rejected_as_config_error(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

    def test_numpy_scalars_accepted(self):
        assert RandomSpam(p_high=np.float32(0.25)).p_high == 0.25
        assert MirroredCopy(perm_seed=np.int64(3)).perm_seed == 3
        halves = DenseHalfPositive(halves=(np.arange(6),)).halves
        assert np.array_equal(halves[0], np.arange(6))

    def test_range_ends_accepted(self):
        assert RandomSpam(p_high=0.0).p_high == 0.0
        assert RandomSpam(p_high=1.0).p_high == 1.0
        assert SymmetricBlocks(block_low=0.0).block_low == 0.0
        assert SymmetricBlocks(block_low=1.0).block_low == 1.0
        assert DenseHalfPositive(block_size=0).block_size == 0


class TestSimpleStrategies:
    def test_anti_correlated(self):
        gt = _descending_gt(6, 2)
        fill = adversary_fill(AntiCorrelated(), full_plan(4, 6),
                              np.tile(gt.r_star, (2, 1)), np.arange(2, 4), gt,
                              derive_rng(0, "adv"))
        assert np.allclose(fill, 1.0 - gt.r_star[None, :])

    def test_random_spam_mean(self):
        gt = _descending_gt(2000, 100, lo=0.3)
        fill = adversary_fill(RandomSpam(p_high=0.3), full_plan(4, 2000),
                              np.tile(gt.r_star, (2, 1)), np.arange(2, 4), gt,
                              derive_rng(0, "adv"))
        assert set(np.unique(fill)) <= {0.0, 1.0}
        sigma = np.sqrt(0.3 * 0.7 / fill.size)
        assert abs(fill.mean() - 0.3) <= 3 * sigma

    def test_values_zeroed_outside_plan(self):
        gt = _descending_gt(6, 2)
        mask = np.zeros((4, 6), dtype=np.int8)
        mask[:, :3] = 1
        plan = AssignmentPlan(mask=mask, pruned_rows=0, pruned_cols=0)
        fill = adversary_fill(AntiCorrelated(), plan,
                              np.tile(gt.r_star, (2, 1)), np.arange(2, 4), gt,
                              derive_rng(0, "adv"))
        assert np.all(fill[:, 3:] == 0.0)


class TestBuildWorld:
    def test_symmetric_blocks_default_ground_truth(self):
        cfg = make_config(adversary=SymmetricBlocks(block_low=0.7))
        world = build_world(cfg, derive_rng(0, "world"))
        assert set(np.unique(world.ground_truth.r_star)) == {0.7, 1.0}

    def test_affine_profile_used_when_L_above_one(self):
        cfg = make_config(alpha=1.0, L=2.0)
        world = build_world(cfg, derive_rng(1, "world"))
        assert monotonicity_violation(world.ground_truth.r_star,
                                      world.a_star, 2.0) <= 1e-12
        # rows genuinely differ from the truth
        assert not np.allclose(world.a_star[0], world.ground_truth.r_star)

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan],
                             ids=["above", "below", "nan"])
    def test_world_model_validates_a_star(self, bad):
        gt = _descending_gt(6, 2)
        a = np.full((2, 6), 0.5)
        a[1, 3] = bad
        with pytest.raises(ValueError, match=r"a_star entries must lie in \[0, 1\]"):
            WorldModel(ground_truth=gt, reliable_set=np.arange(2),
                       a_star=a, adversary=None)
