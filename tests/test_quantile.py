import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcrowd import (
    accept_loop,
    average_rows,
    derive_rng,
    randomized_round,
    recover_quantile,
    round_offsets,
    score_rows,
    select_top_rows,
)

from conftest import make_config


class TestScoreRows:
    def test_zero_ratings_zero_scores(self):
        M = np.random.default_rng(0).random((4, 6))
        assert np.array_equal(score_rows(M, np.zeros(6)), np.zeros(4))

    def test_indicator_row_sums_selected_ratings(self):
        r = np.array([0.9, 0.2, 0.7, 0.4])
        M = np.array([[1.0, 0.0, 1.0, 0.0]])
        assert score_rows(M, r)[0] == pytest.approx(1.6)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        M = rng.random((5, 7))
        r = rng.random(7)
        want = [sum(M[i, j] * r[j] for j in range(7)) for i in range(5)]
        assert np.allclose(score_rows(M, r), want)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score_rows(np.ones((2, 3)), np.ones(4))


class TestSelectTopRows:
    def test_decreasing_scores(self):
        assert list(select_top_rows(np.array([5.0, 4.0, 3.0, 2.0]), 2)) == [0, 1]

    def test_all_equal_takes_first(self):
        assert list(select_top_rows(np.ones(5), 3)) == [0, 1, 2]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        scores = rng.random(30)
        got = select_top_rows(scores, 10)
        want = np.argsort(-scores, kind="stable")[:10]
        assert np.array_equal(got, want)

    def test_count_too_large(self):
        with pytest.raises(ValueError):
            select_top_rows(np.ones(3), 4)


class TestAverageRows:
    def test_single_row(self):
        M = np.array([[0.1, 0.9], [0.5, 0.5]])
        assert np.array_equal(average_rows(M, [1]), [0.5, 0.5])

    def test_symmetric_pair(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(average_rows(M, [0, 1]), [0.5, 0.5])

    def test_matches_recomputation(self):
        rng = np.random.default_rng(3)
        M = rng.random((6, 9))
        idx = [0, 2, 5]
        assert np.allclose(average_rows(M, idx), M[idx].sum(axis=0) / 3)

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            average_rows(np.ones((2, 2)), [])


class TestRandomizedRound:
    def test_binary_input_is_fixed_point_for_every_offset(self):
        T0 = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        for u in (0.0, 0.25, 0.5, 0.999):
            picked = round_offsets(T0, np.array([u]))[0]
            assert np.array_equal(picked.astype(float), T0)

    def test_half_half_at_quarter_offset(self):
        # intervals [0, 0.5) and [0.5, 1): u = 0.25 falls in the first
        picked = round_offsets(np.array([0.5, 0.5]), np.array([0.25]))[0]
        assert list(picked) == [True, False]

    def test_unbiased_marginals(self):
        rng = derive_rng(4, "round")
        T0 = rng.random(30) * 0.8
        draws = 100_000
        picked = round_offsets(T0, rng.random(draws))
        freq = picked.mean(axis=0)
        sigma = np.sqrt(T0 * (1 - T0) / draws)
        assert np.all(np.abs(freq - T0) <= 3 * sigma + 1e-9)

    def test_cardinality_bounds_every_draw(self):
        rng = derive_rng(5, "round")
        T0 = rng.random(25)
        sizes = round_offsets(T0, rng.random(5000)).sum(axis=1)
        assert sizes.max() <= math.ceil(T0.sum())
        assert sizes.min() >= math.floor(T0.sum())

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20),
           st.floats(0, 1, exclude_max=True, allow_nan=False))
    def test_never_selects_twice_and_respects_ceiling(self, t0, u):
        T0 = np.array(t0)
        picked = round_offsets(T0, np.array([u]))[0]
        assert picked.dtype == bool
        assert picked.sum() <= math.ceil(T0.sum())

    def test_selection_set_interface(self):
        sel = randomized_round(np.array([1.0, 0.0, 1.0]), derive_rng(6, "r"))
        assert list(sel.t) == [1, 0, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            round_offsets(np.array([1.2]), np.array([0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.1])
    def test_rejects_entry_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="must lie in"):
            round_offsets(np.array([bad, 0.5, 0.5]), np.array([0.3]))


class TestAcceptLoop:
    def test_binary_average_accepts_immediately(self):
        cfg = make_config()
        T0 = np.zeros(cfg.m)
        T0[:cfg.beta_m] = 1.0
        r_prime = np.ones(cfg.m)
        trace = accept_loop(T0, r_prime, cfg, derive_rng(7, "acc"))
        assert trace.accepted and trace.iterations == 1
        assert not trace.early_accept
        assert np.array_equal(trace.selection.t.astype(float), T0)

    def test_zero_second_vector_early_accepts(self):
        cfg = make_config()
        T0 = np.full(cfg.m, cfg.beta_m / cfg.m)
        trace = accept_loop(T0, np.zeros(cfg.m), cfg, derive_rng(8, "acc"))
        assert trace.early_accept and trace.accepted and trace.iterations == 1

    def test_iteration_cap_formula(self):
        cfg = make_config(epsilon=0.5, beta=0.4, delta=0.1, m=10, n=5, k=5, k0=5)
        T0 = np.full(10, 0.4)
        trace = accept_loop(T0, np.zeros(10), cfg, derive_rng(9, "acc"))
        want = math.ceil(4 * math.log(1 / 0.1) / (0.5 * 0.4))
        assert trace.iteration_cap == want

    def test_cap_expiry_returns_best_seen(self):
        # drive the rounding offsets directly so every draw misses the
        # acceptance threshold and the loop runs to its cap
        class OffsetStub:
            def __init__(self, values):
                self._values = iter(values)

            def random(self):
                return next(self._values)

        cfg = make_config(n=2, m=4, beta=0.5, epsilon=0.5, delta=0.9,
                          k=2, k0=2)
        T0 = np.array([0.5, 0.5, 0.0, 0.0])
        r_prime = np.array([1.0, 0.0, 0.0, 0.0])
        # base 0.5, slack 0.125: offsets in [0.5, 1) select item 1, value 0
        trace = accept_loop(T0, r_prime, cfg, OffsetStub([0.6] * 100))
        assert not trace.accepted
        assert trace.iterations == trace.iteration_cap
        assert float(trace.selection.t @ r_prime) == max(trace.inner_products)

    def test_acceptance_frequency_lower_bound(self):
        # per-iteration acceptance probability at least epsilon*beta/4 when
        # the candidate inner products are bounded by k0
        cfg = make_config(n=10, m=100, beta=0.4, epsilon=0.5, delta=0.1,
                          k=10, k0=50)
        total = accepts = 0
        for s in range(200):
            rng = derive_rng(s, "freq")
            T0 = rng.random(100)
            T0 *= (cfg.beta * cfg.m) / T0.sum()
            T0 = np.clip(T0, 0, 1)
            r_prime = (rng.random(100) < 0.5) * rng.random(100)
            if float(T0 @ r_prime) < cfg.epsilon / 4 * cfg.beta * cfg.k0:
                continue
            trace = accept_loop(T0, r_prime, cfg, rng)
            total += trace.iterations
            accepts += int(trace.accepted)
        p0 = cfg.epsilon * cfg.beta / 4
        sigma = math.sqrt(p0 * (1 - p0) / total)
        assert accepts / total >= p0 - 3 * sigma


class TestRecoverQuantile:
    def test_identical_rows_average_to_common_row(self):
        cfg = make_config(n=4, m=8, alpha=1.0, beta=0.25, k=8, k0=8)
        row = np.zeros(8)
        row[[1, 5]] = 1.0
        M = np.tile(row, (4, 1))
        r = np.linspace(1, 0.3, 8)
        sel, trace = recover_quantile(M, r, r, cfg, derive_rng(11, "rq"))
        assert np.array_equal(sel.t.astype(float), row)

    def test_deterministic_given_seed(self):
        cfg = make_config(n=6, m=10, alpha=0.5, beta=0.3, k=10, k0=10)
        rng = np.random.default_rng(12)
        M = rng.random((6, 10)) * 0.5
        r1 = rng.random(10)
        r2 = rng.random(10)
        a, _ = recover_quantile(M, r1, r2, cfg, derive_rng(13, "rq"))
        b, _ = recover_quantile(M, r1, r2, cfg, derive_rng(13, "rq"))
        assert np.array_equal(a.t, b.t)

    def test_cardinality_bound_always(self):
        cfg = make_config(n=6, m=10, alpha=0.5, beta=0.3, k=10, k0=10)
        rng = np.random.default_rng(14)
        for s in range(20):
            M = np.clip(rng.random((6, 10)), 0, 1) * 0.3
            sel, _ = recover_quantile(M, rng.random(10), rng.random(10), cfg,
                                      derive_rng(s, "rq"))
            assert sel.size <= cfg.beta_m
