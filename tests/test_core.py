import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcrowd import (
    ConfigError,
    ExperimentConfig,
    GroundTruth,
    ObservedRatings,
    RequesterRatings,
    SelectionSet,
    SolverSettings,
    derive_rng,
    feasibility_residuals,
)
from qcrowd.core import _frobenius_certifies, round_half_up, top_indices

from conftest import make_config


# a NaN compares false both ways, so a range check written as two
# rejections (v < 0 or v > 1) lets it through
NON_FINITE = [np.nan, np.inf, -np.inf]
NON_FINITE_IDS = ["nan", "+inf", "-inf"]


class TestValidateConfig:
    def test_paper_scale_counts(self):
        cfg = make_config(n=10, m=12, alpha=2 / 5, beta=1 / 6)
        assert cfg.alpha_n == 4
        assert cfg.beta_m == 2

    def test_all_ones_fractions(self):
        cfg = make_config(n=4, m=4, alpha=1.0, beta=1.0, epsilon=0.5, k=4, k0=4)
        assert cfg.alpha_n == 4
        assert cfg.beta_m == 4
        assert cfg.rho == pytest.approx((2 / 0.5) * 4.0)

    def test_m_smaller_than_n_rejected(self):
        with pytest.raises(ConfigError, match="m must be at least n"):
            make_config(n=10, m=5)

    @pytest.mark.parametrize("field,value,msg", [
        ("alpha", 0.0, "alpha"),
        ("alpha", 1.5, "alpha"),
        ("beta", 0.0, "beta"),
        ("epsilon", 0.0, "epsilon"),
        ("delta", 1.0, "delta"),
        ("k", 0, "k"),
        ("k", 13, "k must be at most m"),
        ("k0", 0, "k0"),
        ("k0", 99, "k0 must be at most m"),
        ("L", 0.5, "L"),
        ("L", float("nan"), "L"),
        ("L", float("inf"), "L"),
        ("rho_scale", 0.0, "rho scale"),
        ("rho_scale", float("nan"), "rho scale"),
        ("rho_scale", float("inf"), "rho scale"),
        # a product or quotient of valid values that underflows or overflows
        ("epsilon", 5e-324, "nuclear-norm bound"),
        ("epsilon", 1e-308, "nuclear-norm bound"),
        ("delta", 1e-320, "rounding cap"),
        ("rho_scale", 1e308, "nuclear-norm bound"),
        ("n", 0, "n"),
        ("solver", None, "solver must be a SolverSettings"),
        pytest.param("n,m", 10**10, "n \\* m is too large", id="n=m=1e10"),
        pytest.param("n,m", 10**200, "n \\* m is too large", id="n=m=1e200"),
    ])
    def test_rejections_name_the_constraint(self, field, value, msg):
        # "n,m" sets both fields to the value
        with pytest.raises(ConfigError, match=msg):
            make_config(**dict.fromkeys(field.split(","), value))

    @pytest.mark.parametrize("build,msg", [
        pytest.param(lambda: make_config(adversary="SymmetricBlocks"),
                     "adversary", id="adversary=str"),
        pytest.param(lambda: SolverSettings(max_iters=2.5), "max_iters",
                     id="max_iters=2.5"),
        pytest.param(lambda: SolverSettings(max_iters=True), "max_iters",
                     id="max_iters=True"),
        pytest.param(lambda: SolverSettings(eta0=True), "eta0", id="eta0=True"),
        pytest.param(lambda: make_config(alpha="0.4"), "alpha", id="alpha=str"),
        # truncating 2.5 to 2 would give two seeds one trial
        pytest.param(lambda: make_config(seed=2.5), "seed", id="seed=2.5"),
        pytest.param(lambda: make_config(seed=True), "seed", id="seed=True"),
    ])
    def test_bad_type_rejected_when_built(self, build, msg):
        with pytest.raises(ConfigError, match=msg):
            build()

    def test_numpy_scalars_accepted_by_solver_settings(self):
        settings = SolverSettings(max_iters=np.int64(5), eta0=np.float32(0.5))
        assert settings.max_iters == 5 and settings.eta0 == 0.5

    def test_tiny_quantile_rejected(self):
        # round(beta * m) = 0
        with pytest.raises(ConfigError, match="beta"):
            make_config(beta=0.01)

    def test_rho_formula(self):
        cfg = make_config(n=10, m=12, alpha=0.4, beta=1 / 6, epsilon=0.2)
        expected = 2 / (0.4 * 0.2) * np.sqrt(0.4 * (1 / 6) * 10 * 12)
        assert cfg.rho == pytest.approx(expected)

    def test_rho_scale_multiplies_rho_exactly(self):
        # the same float as scaling the unscaled bound afterwards
        cfg = make_config()
        scaled = make_config(rho_scale=0.2)
        assert scaled.rho == cfg.rho * 0.2
        assert type(make_config(rho_scale=1).rho_scale) is float

    def test_requires_strategy_when_alpha_below_one(self):
        with pytest.raises(ConfigError, match="adversary strategy is required"):
            make_config(alpha=0.5, adversary=None)
        assert make_config(alpha=1.0, adversary=None).adversary is None

    def test_round_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(2.49) == 2
        assert round_half_up(2.0) == 2


class TestDeriveRng:
    def test_same_seed_label_identical(self):
        a = derive_rng(7, "assign").random(100)
        b = derive_rng(7, "assign").random(100)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = derive_rng(7, "assign").random(100)
        b = derive_rng(7, "self-ratings").random(100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = derive_rng(7, "x").random(100)
        b = derive_rng(8, "x").random(100)
        assert not np.array_equal(a, b)


class TestGroundTruth:
    def test_marks_largest_entries(self):
        gt = GroundTruth.from_ratings([0.1, 0.9, 0.5, 0.9, 0.2], beta_m=2)
        assert list(gt.t_star) == [0, 1, 0, 1, 0]

    def test_ties_toward_smaller_index(self):
        gt = GroundTruth.from_ratings([0.5, 0.5, 0.5, 0.5], beta_m=2)
        assert list(gt.t_star) == [1, 1, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=40),
           st.integers(1, 5))
    def test_sort_reproduces_indicator(self, values, count):
        count = min(count, len(values))
        gt = GroundTruth.from_ratings(values, beta_m=count)
        expect = np.zeros(len(values), dtype=int)
        expect[np.argsort(-np.asarray(values), kind="stable")[:count]] = 1
        assert np.array_equal(gt.t_star, expect)
        assert gt.t_star.sum() == count

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GroundTruth.from_ratings([0.5, 1.2], beta_m=1)
        for bad in (2, np.nan):
            with pytest.raises(ValueError, match="t_star must be binary"):
                GroundTruth(r_star=np.array([0.5, 0.2]),
                            t_star=np.array([bad, 0.0]))

    @pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_rating(self, bad):
        with pytest.raises(ValueError, match=r"r_star entries must lie in \[0, 1\]"):
            GroundTruth(r_star=np.array([0.5, bad]), t_star=np.array([1, 0]))


class TestObservedRatings:
    def test_rejects_values_outside_mask(self):
        with pytest.raises(ValueError, match="unrated"):
            ObservedRatings(values=np.array([[0.5]]), mask=np.array([[0]]))

    def test_rejects_nonbinary_mask(self):
        with pytest.raises(ValueError, match="binary"):
            ObservedRatings(values=np.array([[0.5]]), mask=np.array([[2]]))

    @pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_rated_value(self, bad):
        values = np.array([[0.5, 0.0], [1.0, 0.0]])
        values[1, 0] = bad
        mask = np.array([[1, 0], [1, 1]])
        with pytest.raises(ValueError, match=r"values must lie in \[0, 1\]"):
            ObservedRatings(values=values, mask=mask)


class TestRequesterRatings:
    @pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
    @pytest.mark.parametrize("bad", NON_FINITE, ids=NON_FINITE_IDS)
    def test_rejects_non_finite_masked_rating(self, bad, second):
        good = np.array([0.5, 0.0, 1.0])
        mask = np.array([1, 0, 1])
        broken = good.copy()
        broken[2] = bad
        vectors = (good, broken) if second else (broken, good)
        with pytest.raises(ValueError, match=r"ratings must lie in \[0, 1\]"):
            RequesterRatings(r_tilde=vectors[0], mask=mask,
                             r_tilde_prime=vectors[1], mask_prime=mask)


class TestSelectionSet:
    def test_binary_enforced(self):
        for bad in (0.5, np.nan):
            with pytest.raises(ValueError, match="selection must be a binary"):
                SelectionSet(np.array([bad, 1.0]))

    def test_size_and_indices(self):
        s = SelectionSet(np.array([1, 0, 1, 0]))
        assert s.size == 2
        assert list(np.flatnonzero(s.t)) == [0, 2]


class TestFeasibility:
    def test_residuals_zero_on_feasible(self):
        M = np.full((3, 4), 0.25)
        res = feasibility_residuals(M, beta_m=2, rho=10.0)
        assert res == {"box": 0.0, "row": 0.0, "nuc": 0.0}

    def test_box_violation_reported(self):
        M = np.array([[1.5, 0.0]])
        assert feasibility_residuals(M, 1, 10.0)["box"] == pytest.approx(0.5)
        assert feasibility_residuals(-M, 1, 10.0)["box"] == pytest.approx(1.5)

    def test_row_violation_reported(self):
        M = np.array([[1.0, 1.0, 1.0]])
        assert feasibility_residuals(M, 2, 10.0)["row"] == pytest.approx(1.0)

    def test_nuclear_violation_relative(self):
        M = np.diag([3.0, 1.0])
        res = feasibility_residuals(M, 4, 2.0)
        assert res["nuc"] == pytest.approx((4.0 - 2.0) / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_has_infinite_residuals(self, bad):
        M = np.full((3, 4), 0.25)
        M[2, 1] = bad
        res = feasibility_residuals(M, beta_m=2, rho=10.0)
        assert res == {"box": np.inf, "row": np.inf, "nuc": np.inf}


class TestFrobeniusCertificate:
    @pytest.mark.parametrize("bound,want", [(1e301, True), (1.5e200, True),
                                            (1.4e200, False)])
    def test_entries_past_1e154_decide_without_overflow(self, bound, want):
        M = np.array([[1e200, 1e200]])  # ||M||_F = 1.414e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _frobenius_certifies(M, bound) is want

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_certifies_nothing(self, bad):
        assert not _frobenius_certifies(np.array([[1e200, bad]]), 1e308)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=6,
                    max_size=6),
           st.floats(1e-300, 1e300))
    def test_decision_unchanged_where_the_norm_is_finite(self, entries, bound):
        M = np.array(entries).reshape(2, 3)
        fro = float(np.linalg.norm(M))
        want = np.sqrt(2) * fro <= bound and (fro > 1e-150 or not M.any())
        assert _frobenius_certifies(M, bound) == want


class TestTopIndices:
    def test_stable_ordering(self):
        assert list(top_indices([1.0, 3.0, 3.0, 2.0], 3)) == [1, 2, 3]

    def test_all_equal_takes_first(self):
        assert list(top_indices(np.ones(5), 3)) == [0, 1, 2]

    def test_matches_sort_oracle(self):
        scores = np.random.default_rng(2).random(30)
        want = sorted(range(30), key=lambda i: -scores[i])[:10]
        assert list(top_indices(scores, 10)) == want
