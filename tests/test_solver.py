import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcrowd import (
    ObservedRatings,
    SolverSettings,
    greedy_row_oracle,
    project_capped_box_simplex,
    project_nuclear_ball,
    solve_recover_M,
)
from qcrowd import SymmetricBlocks, simulate_trial, solver
from qcrowd.core import feasibility_residuals
from qcrowd.solver import (
    _face_point,
    _project_rows,
    _solve,
    dykstra_project,
)

from conftest import make_config, readme_config
from oracles import capped_box_oracle, nuclear_oracle


# --- independent oracles -----------------------------------------------------

def bisection_rows_oracle(M, cap):
    """Row projection by bisection on the Lagrange shift theta, the rule the
    solver used before its Newton search. All 80 halvings run, so the bracket
    closes to adjacent floats even for entries near 1e6, where a width floor
    of 1e-13 * (1 + max v) would stop it up to 1e-7 short."""
    M = np.asarray(M, dtype=float)
    X = np.clip(M, 0.0, 1.0)
    over = X.sum(axis=1) > cap
    if not np.any(over):
        return X
    V = M[over]
    lo = np.zeros(V.shape[0])
    hi = V.max(axis=1)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_big = np.clip(V - mid[:, None], 0.0, 1.0).sum(axis=1) > cap
        lo = np.where(too_big, mid, lo)
        hi = np.where(too_big, hi, mid)
    X[over] = np.clip(V - hi[:, None], 0.0, 1.0)
    return X


# entries for row-projection inputs: small reals, integers (ties), entries
# up to 1e6, and a few values whose ties give flat pieces with no free entry
_ENTRIES = st.one_of(
    st.floats(-3, 3, allow_nan=False),
    st.integers(-3, 4).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 999999.5, 1e6]),
)


@st.composite
def _row_projection_inputs(draw):
    """(M, cap): a few rows, each mixed or all-equal, as floats or integers."""
    m = draw(st.integers(1, 10))
    row = st.one_of(st.lists(_ENTRIES, min_size=m, max_size=m),
                    _ENTRIES.map(lambda x: [x] * m))
    M = np.array(draw(st.lists(row, min_size=1, max_size=5)))
    if draw(st.booleans()):
        M = np.rint(M).astype(np.int64)
    cap = draw(st.integers(0, m) | st.floats(0.5, m))
    return M, cap


@st.composite
def _nuclear_inputs(draw):
    """(M, frac): a tall, wide or square matrix, dense, with zero rows, or
    of rank one, and rho / ||M||_* below one, down to just below it, where
    the shift is tiny."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    entries = st.floats(-10, 10, allow_nan=False)
    kind = draw(st.sampled_from(["dense", "zero_rows", "rank_one"]))
    if kind == "rank_one":
        u = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
        v = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
        M = np.outer(u, v)
    else:
        M = np.array(draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
        if kind == "zero_rows":
            M[np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))] = 0.0
    frac = draw(st.floats(0.01, 0.99) | st.sampled_from([1 - 1e-9, 1 - 1e-12]))
    return M, frac


@contextmanager
def counted_projections():
    """Count the calls of the solver's two projections, and keep the last
    row projection y, nuclear projection input u and output x, for the
    duration."""
    calls = Counter()
    last = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, key in (("_project_rows", "y"), ("project_nuclear_ball", "x")):
            def counted(*args, _f=getattr(solver, name), _name=name, _key=key):
                calls[_name] += 1
                if _key == "x":
                    last["u"] = args[0]
                last[_key] = _f(*args)
                return last[_key]
            mp.setattr(solver, name, counted)
        yield calls, last


def zero_start_dykstra_oracle(M, cap, rho, max_sweeps, tol=1e-9):
    """Plain Dykstra: both corrections start at zero, the row correction p
    is carried beside the nuclear correction q, and the tol test runs after
    every sweep. Returns (x, q, certified), calling the solver's two
    projections by module attribute so that counted_projections sees them."""
    x = np.asarray(M, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_sweeps):
        y = solver._project_rows(x + p, cap)
        p = x + p - y
        x = solver.project_nuclear_ball(y + q, rho)
        q = y + q - x
        if float(np.linalg.norm(x - y)) <= tol * (1.0 + float(np.linalg.norm(x))):
            return x, q, True
    return x, q, False


def chained_sweeps(M, cap, rho, max_sweeps, q=None, last=None, tol=1e-9):
    """Dykstra's algorithm built from one-sweep calls: dykstra_project gets
    back the correction its last call returned, up to max_sweeps times,
    from q. Given the last dict of an enclosing counted_projections, it
    stops after the first sweep that passes plain Dykstra's tol test.
    Returns (x, q')."""
    x = np.asarray(M, dtype=float)
    for _ in range(max_sweeps):
        x, q = dykstra_project(M, cap, rho, q)
        if last is not None and certified(last, tol):
            break
    return x, q


def certified(last, tol):
    """Whether the last sweep passes plain Dykstra's stop test."""
    x, y = last["x"], last["y"]
    return float(np.linalg.norm(x - y)) <= tol * (1.0 + float(np.linalg.norm(x)))


def distance_bound(Z, last):
    """A bound on ||x - x*||, x* the exact projection of Z, from the last
    sweep. Z - x = p + F, where p = Z - u lies in the row set's normal cone
    at y and F = u - x in the ball's at x. With r = y - x, testing both
    cones at x*, and x* against the feasible point min(1, rho/||y||_*) * y,
    gives ||x - x*||^2 <= ||p|| ||r|| + ||Z|| (||r|| + ||r||_*)."""
    x, y, u = last["x"], last["y"], last["u"]
    r = y - x
    nr = np.linalg.norm(r)
    return np.sqrt(np.linalg.norm(Z - u) * nr + np.linalg.norm(Z) * (
        nr + np.linalg.svd(r, compute_uv=False).sum()))


@st.composite
def _dykstra_inputs(draw):
    """Small matrices, a cap of at most the row length, and a radius below
    the nuclear norm of the row projection, so that the ball usually binds."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    M = np.array(draw(st.lists(st.lists(st.floats(-10, 10, allow_nan=False),
                                        min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    cap = draw(st.floats(0.25, m))
    nuc = float(np.linalg.svd(_project_rows(M, cap), compute_uv=False).sum())
    rho = max(draw(st.floats(0.05, 0.95)) * nuc, 1e-3)
    return M, cap, rho


def greedy_enumeration_oracle(values, cap):
    """Per-row exhaustive search over all binary patterns with <= cap ones."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    m = values.shape[1]
    for i, row in enumerate(values):
        best, best_val = None, -np.inf
        for bits in itertools.product((0, 1), repeat=m):
            if sum(bits) > cap:
                continue
            val = float(np.dot(bits, row))
            if val > best_val:
                best, best_val = bits, val
        out[i] = best
    return out


# --- capped box-simplex projection -------------------------------------------

class TestCappedBoxProjection:
    def test_feasible_vector_unchanged(self):
        v = np.array([0.2, 0.3, 0.1])
        assert np.array_equal(project_capped_box_simplex(v, 2), v)

    def test_two_dimensional_analytic_case(self):
        out = project_capped_box_simplex(np.array([2.0, 2.0]), 1)
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_integer_input_handled(self):
        out = project_capped_box_simplex(np.array([2, 2]), 1)
        assert np.allclose(out, [0.5, 0.5], atol=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            v = rng.uniform(-1.5, 2.5, size=8)
            got = project_capped_box_simplex(v, 3)
            want = capped_box_oracle(v, 3)
            assert np.abs(got - want).max() <= 1e-6

    def test_row_sum_tolerance(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.5, 3.0, size=50)
        out = project_capped_box_simplex(v, 10)
        assert abs(out.sum() - 10) <= 1e-9
        assert out.min() >= 0.0 and out.max() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(_row_projection_inputs())
    @example((np.array([[3.0, 3.0, 0.5]]), 2))
    # a row under the cap, rows done after one and two Newton steps, and a
    # row with no free entry that ends by bisection many steps later
    @example((np.array([[0.1, 0.2, 0.3, 0.0, -1.0, 0.5, 0.4],
                        [3.0, 3.0, 0.5, 0.0, 0.0, 0.0, 0.0],
                        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3],
                        [2.5, -0.5, 1.7, 0.2, 3.1, 0.9, 1.3],
                        np.full(7, 1e300)]), 2.0))
    def test_matches_bisection_oracle_and_never_exceeds_cap(self, case):
        M, cap = case
        got = _project_rows(M, cap)
        assert np.abs(got - bisection_rows_oracle(M, cap)).max() <= 1e-9
        assert np.all(got.sum(axis=1) <= cap)
        # rows leave the search as they finish; the others' bits stay the same
        alone = np.vstack([_project_rows(row[None, :], cap) for row in M])
        assert got.tobytes() == alone.tobytes()

    def test_bad_rows_end_and_leave_other_rows_alone(self):
        # three infinite entries keep the clipped sum at 3 > cap for every
        # finite shift, so that row ends only at the step limit; the 1e300
        # row has no free entry anywhere and ends by bisection
        rng = np.random.default_rng(23)
        good = rng.uniform(-1.0, 3.0, size=(4, 7))
        bad = np.array([[np.inf, np.inf, np.inf, 0.5, 2.0, 0.3, 0.0],
                        np.full(7, 1e300)])
        M = np.vstack([good[:2], bad, good[2:]])
        with np.errstate(invalid="ignore"):  # inf - inf in the infinite row
            out = _project_rows(M, 2.0)
        assert np.array_equal(out[[0, 1, 4, 5]], _project_rows(good, 2.0))
        assert out[3].sum() <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=12),
           st.integers(1, 6))
    def test_output_always_in_set_and_idempotent(self, values, cap):
        v = np.array(values)
        out = project_capped_box_simplex(v, cap)
        assert out.min() >= -1e-12 and out.max() <= 1.0 + 1e-12
        assert out.sum() <= cap + 1e-9
        again = project_capped_box_simplex(out, cap)
        assert np.abs(out - again).max() <= 1e-8


# --- nuclear-ball projection --------------------------------------------------

class TestNuclearProjection:
    def test_inside_ball_unchanged(self):
        rng = np.random.default_rng(0)
        M = rng.random((5, 7)) * 0.1
        rho = np.linalg.svd(M, compute_uv=False).sum() + 1.0
        assert np.array_equal(project_nuclear_ball(M, rho), M)

    def test_rank_one_scales(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(9)
        v /= np.linalg.norm(v)
        M = 5.0 * np.outer(u, v)
        out = project_nuclear_ball(M, 2.0)
        assert np.allclose(out, (2.0 / 5.0) * M, atol=1e-8)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            M = rng.standard_normal((6, 9))
            rho = 0.5 * np.linalg.svd(M, compute_uv=False).sum()
            got = project_nuclear_ball(M, rho)
            want = nuclear_oracle(M, rho)
            assert np.linalg.norm(got - want) <= 1e-6
            assert np.linalg.svd(got, compute_uv=False).sum() == pytest.approx(
                rho, abs=1e-8)

    def test_closest_point_against_shift_grid(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 9))
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        rho = 0.5 * s.sum()
        got = project_nuclear_ball(M, rho)
        d_got = np.linalg.norm(got - M)
        for tau in np.linspace(0, s[0], 2001):
            s_tau = np.maximum(s - tau, 0.0)
            if s_tau.sum() <= rho:
                cand = (U * s_tau) @ Vt
                assert d_got <= np.linalg.norm(cand - M) + 1e-9

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            project_nuclear_ball(np.eye(2), 0.0)

    def test_eigh_failure_raises_linalg_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(np.linalg.LinAlgError, match="no convergence"):
            project_nuclear_ball(np.eye(3) * 100, 1.0)

    def test_subnormal_matrix_inside_a_large_ball_is_returned(self):
        # rho / 2**e is past the largest float for this matrix
        M = np.array([[2.22507386e-313, 0.0]])
        assert project_nuclear_ball(M, 1e-3) is M

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        M = np.eye(3) * 100
        M[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            project_nuclear_ball(M, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(_nuclear_inputs())
    @example((np.zeros((3, 4)), 1 - 1e-12))  # zero matrix: returned as is
    @example((np.array([[1e-300, 0.0]]), 0.5))  # ||M||_F underflows to 0
    @example((np.array([[8.52299733e-158]]), 0.03125))  # c * t would be subnormal
    @example((np.outer([1.0, 2.0, 3.0], [1.0, -1.0]), 1 - 1e-12))
    @example((np.random.default_rng(3).standard_normal((6, 15)), 0.5))  # wide
    @example((np.full((2, 1), 2e-323), 0.25))  # result entries subnormal
    @example((np.array([[1e308, 1.0]]), 1e-308))  # 2**e is past the largest float
    # radius below the float spacing of s_1: the top component alone
    @example((np.array([[1.0, 0.0], [0.0, 0.0]]), 1e-20))
    @example((np.array([[3.0, 1.0], [1.0, 2.0]]), 2e-18))
    def test_matches_svd_oracle(self, case):
        M, frac = case
        nuc = float(np.linalg.svd(M, compute_uv=False).sum())
        rho = frac * nuc or 1.0  # the zero matrix, any radius
        got = project_nuclear_ball(M, rho)
        want = nuclear_oracle(M, rho)
        c = np.abs(M).max()  # ||M||_F = c * ||M / c||_F, which does not overflow
        fro = c * np.linalg.norm(M / c) if c else 0.0
        assert np.abs(got - want).max() <= 1e-9 * (1.0 + fro)
        assert np.linalg.svd(got, compute_uv=False).sum() <= rho * (1.0 + 1e-9)


class TestDykstra:
    def test_idempotent_on_feasible_point(self):
        rng = np.random.default_rng(4)
        M = _project_rows(rng.random((6, 9)), 3.0)
        out, q = dykstra_project(M, 3.0, 1e6)
        assert np.linalg.norm(out - M) < 1e-8
        assert q is None  # the zero correction

    @pytest.mark.parametrize("shape", [(8, 10), (10, 8)], ids=["wide", "tall"])
    @pytest.mark.parametrize("warm", [False, True], ids=["zero", "warm"])
    @pytest.mark.parametrize("rho", [1e6, 3.0], ids=["slack", "binding"])
    def test_is_one_sweep_from_the_correction(self, rho, warm, shape):
        # X = Pi_rows(Z - q), x = Pi_nuc(X + q), q' = X + q - x, to the bit
        rng = np.random.default_rng(5)
        Z = rng.standard_normal(shape) * 4
        q = rng.standard_normal(shape) if warm else None
        before = [a.tobytes() for a in (Z, q) if a is not None]
        with counted_projections() as (calls, _):
            got, got_q = dykstra_project(Z, 2.0, rho, q)
        assert [a.tobytes() for a in (Z, q) if a is not None] == before
        # the bench counts Dykstra sweeps and nuclear projections by these calls
        assert calls == {"_project_rows": 1, "project_nuclear_ball": 1}
        q0 = np.zeros_like(Z) if q is None else q
        X = _project_rows(Z - q0, 2.0)
        x = project_nuclear_ball(X + q0, rho)
        assert got.tobytes() == x.tobytes()
        if got_q is None:  # the zero correction
            assert q is None and not (X + q0 - x).any()
        else:
            assert got_q.tobytes() == (X + q0 - x).tobytes()

    @pytest.mark.parametrize("shape", [(8, 10), (10, 8)], ids=["wide", "tall"])
    @pytest.mark.parametrize("rho", [1e6, 3.0], ids=["slack", "binding"])
    def test_sweep_from_a_correction_is_relaxed_toward_prev(self, rho, shape):
        # u = X + q + (RELAX - 1) * (X - prev), to the bit; from q = None,
        # prev changes nothing
        rng = np.random.default_rng(6)
        Z, q, prev = (rng.standard_normal(shape) * 4 for _ in range(3))
        before = [a.tobytes() for a in (Z, q, prev)]
        with counted_projections() as (calls, _):
            got, got_q = dykstra_project(Z, 2.0, rho, q, prev)
        # _solve passes its own iterate as prev
        assert [a.tobytes() for a in (Z, q, prev)] == before
        assert calls == {"_project_rows": 1, "project_nuclear_ball": 1}
        X = _project_rows(Z - q, 2.0)
        u = X + q + (solver.RELAX - 1.0) * (X - prev)
        x = project_nuclear_ball(u, rho)
        assert got.tobytes() == x.tobytes()
        assert got_q.tobytes() == (u - x).tobytes()
        plain = dykstra_project(Z, 2.0, rho)
        from_zero = dykstra_project(Z, 2.0, rho, None, prev)
        assert from_zero[0].tobytes() == plain[0].tobytes()
        assert (from_zero[1] is None) == (plain[1] is None)

    @pytest.mark.parametrize("sweeps", [1, 2, 5, 30])
    @pytest.mark.parametrize("shape", [(8, 10), (10, 8)], ids=["wide", "tall"])
    @pytest.mark.parametrize("rho", [1e6, 3.0], ids=["slack", "binding"])
    def test_chained_sweeps_are_plain_dykstra(self, rho, shape, sweeps):
        # the row correction of plain Dykstra is M - x - q, so carrying q
        # alone loses nothing: the two agree up to rounding, and to the bit
        # while the ball is slack or for the first sweep
        M = np.random.default_rng(5).standard_normal(shape) * 4
        want, want_q, _ = zero_start_dykstra_oracle(M, 2.0, rho, sweeps, tol=0.0)
        with counted_projections() as (calls, _):
            got, got_q = chained_sweeps(M, 2.0, rho, sweeps)
        # the bench counts Dykstra sweeps and nuclear projections by these calls
        assert calls == {"_project_rows": sweeps, "project_nuclear_ball": sweeps}
        if got_q is None:  # the zero correction
            assert not want_q.any()
            got_q = np.zeros_like(M)
        if rho > 1e3 or sweeps == 1:
            assert got.tobytes() == want.tobytes()
            assert got_q.tobytes() == want_q.tobytes()
        scale = 1e-12 * (1.0 + np.linalg.norm(M))
        assert np.abs(got - want).max() <= scale
        assert np.abs(got_q - want_q).max() <= scale

    def test_chained_sweeps_approach_the_intersection(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 10)) * 4
        rho = 3.0
        out, _ = chained_sweeps(M, 2.0, rho, 300)
        # each sweep ends on the nuclear projection: inside the ball exactly,
        # with the distance to the row set shrinking as sweeps increase (the
        # solver's final polish is what makes box/row exact)
        assert np.linalg.svd(out, compute_uv=False).sum() <= rho + 1e-9
        dist = np.linalg.norm(out - _project_rows(out, 2.0))
        coarse, _ = chained_sweeps(M, 2.0, rho, 5)
        dist5 = np.linalg.norm(coarse - _project_rows(coarse, 2.0))
        assert dist <= 0.05 * dist5

    @settings(max_examples=150, deadline=None)
    @given(_dykstra_inputs())
    # a flat stretch of Dykstra's dual
    @example((np.array([[1.0], [8.0]]), 0.5, 0.04419417382415922))
    @example((np.array([[2.22507386e-313]]), 1.0, 0.001))  # subnormal, slack
    # both certify 2.4e-6 apart: a residual of tol only bounds the distance
    # by about sqrt(tol)
    @example((np.array([[2.0, 0.0], [1e-4, 0.5]]), 1.0, 0.7500000016666666))
    def test_chained_sweeps_certify_wherever_plain_dykstra_does(self, case):
        M, cap, rho = case
        with counted_projections() as (_, last):
            want, _, want_ok = zero_start_dykstra_oracle(M, cap, rho, 200)
            want_bound = distance_bound(M, last)
            got, _ = chained_sweeps(M, cap, rho, 500, last=last)
            got_ok = certified(last, 1e-9)
            got_bound = distance_bound(M, last)
        if want_ok:
            assert got_ok
            assert np.linalg.norm(got - want) <= (
                want_bound + got_bound + 1e-12 * (1.0 + np.linalg.norm(want)))

    def test_chained_sweeps_from_an_unrelated_correction(self):
        # Dykstra is block coordinate ascent on the dual, so it reaches the
        # projection of M from any nuclear correction
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 7)) * 2
        q = rng.standard_normal((6, 7)) * 3
        with counted_projections() as (_, last):
            want, _, ok = zero_start_dykstra_oracle(M, 2.0, 3.0, 2000)
            assert ok
            want_bound = distance_bound(M, last)
            got, _ = chained_sweeps(M, 2.0, 3.0, 2000, q=q, last=last)
            assert certified(last, 1e-9)
            got_bound = distance_bound(M, last)
        assert np.linalg.norm(got - want) <= want_bound + got_bound <= 1e-3

    def test_polish_makes_box_and_rows_exact(self):
        from qcrowd.solver import _polish
        rng = np.random.default_rng(19)
        M = rng.standard_normal((8, 10)) * 4
        rho = 3.0
        out, res = _polish(dykstra_project(M, 2.0, rho)[0], 2.0, rho)
        assert res == feasibility_residuals(out, 2, rho)
        assert res == {"box": 0.0, "row": 0.0, "nuc": 0.0}

    def test_polish_scales_a_row_feasible_matrix_into_the_ball(self):
        from qcrowd.solver import _polish
        rng = np.random.default_rng(20)
        X = _project_rows(rng.random((8, 10)) * 2, 2.0)
        rho = 0.5 * float(np.linalg.svd(X, compute_uv=False).sum())
        out, res = _polish(X, 2.0, rho)
        assert res == feasibility_residuals(out, 2, rho)
        assert res == {"box": 0.0, "row": 0.0, "nuc": 0.0}
        # one scalar factor below 1, no smaller than the ball needs
        c = out.sum() / X.sum()
        assert 0.0 < c < 1.0
        assert np.allclose(out, c * X, rtol=1e-14, atol=0.0)
        assert np.linalg.svd(out, compute_uv=False).sum() >= rho * (1 - 1e-9)

    def test_polish_returns_a_feasible_matrix_unchanged(self):
        from qcrowd.solver import _polish
        X = np.full((6, 8), 0.25)  # row sums exactly 2, nuclear norm 1.73
        out, res = _polish(X, 2.0, 3.0)
        assert res == {"box": 0.0, "row": 0.0, "nuc": 0.0}
        assert np.array_equal(out, X)


# --- greedy oracle -------------------------------------------------------------

class TestGreedyRowOracle:
    def test_top_two_selection(self):
        out = greedy_row_oracle(np.array([[0.9, 0.1, 0.5]]), 2)
        assert np.array_equal(out, [[1.0, 0.0, 1.0]])

    def test_all_zero_row(self):
        out = greedy_row_oracle(np.zeros((2, 4)), 2)
        assert np.array_equal(out, np.zeros((2, 4)))

    def test_negative_entries_never_selected(self):
        out = greedy_row_oracle(np.array([[-0.5, 0.2, -0.1, 0.0]]), 3)
        assert np.array_equal(out, [[0.0, 1.0, 0.0, 0.0]])

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for cap in (1, 2, 3):
            values = rng.uniform(-0.5, 1.0, size=(4, 4))
            got = greedy_row_oracle(values, cap)
            want = greedy_enumeration_oracle(values, cap)
            assert np.array_equal(got, want)


# --- face point of the row program ---------------------------------------------

# ratings with ties, zeros and negatives: at small m many rows have fewer
# positive entries than the cap, or a tie straddling the cap-th place
_FACE_ENTRIES = st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0])


@st.composite
def _face_inputs(draw):
    """(A, cap, x0), with x0 = 0 or the uniform start cap / m."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    A = np.array(draw(st.lists(st.lists(_FACE_ENTRIES, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    cap = draw(st.integers(1, m))
    x0 = draw(st.sampled_from([0.0, cap / m]))
    return A, cap, x0


def long_ascent(A, cap, x0, max_steps=5000):
    """The solver's iteration with the ball slack, M <- Pi_rows(M + A) at the
    constant step 1, from x0 * ones, run until it returns to an earlier
    iterate; returns the cycle it has settled on, a list of matrices. At
    the constant step rounding can keep the iterate a float away from the
    fixed point: on ties the row search alternates between the floats on
    either side of cap / #ties, a cycle of two."""
    M = np.full(A.shape, x0)
    seen = [M]
    index = {M.tobytes(): 0}
    for _ in range(max_steps):
        M = _project_rows(M + A, cap)
        i = index.setdefault(M.tobytes(), len(seen))
        if i < len(seen):
            return seen[i:]
        seen.append(M)
    raise AssertionError("ascent did not settle")


def partition_face_point(A, cap, x0):
    """_face_point as first written, with tau read from np.partition."""
    m = A.shape[1]
    tau = np.maximum(np.partition(A, m - cap, axis=1)[:, m - cap], 0.0)[:, None]
    above = A > tau
    ties = A == tau
    share = (cap - above.sum(axis=1, keepdims=True)) / np.maximum(
        ties.sum(axis=1, keepdims=True), 1)
    share = np.where(tau > 0.0, share, np.minimum(x0, share))
    return np.where(above, 1.0, np.where(ties, share, 0.0))


@st.composite
def _normal_cone_inputs(draw):
    """(A, cap, x0, eta): rows of three kinds, mixed, uniform in [0, 1),
    tie-heavy over {0, 0.8, 1}, or sparse with fewer than cap positive
    entries; x0 = 0 or cap / m, and eta log-uniform in [1e-3, 1e3]."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 60))
    cap = draw(st.integers(1, m))
    x0 = draw(st.sampled_from([0.0, cap / m]))
    eta = 10.0 ** draw(st.floats(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = rng.integers(3, size=n)
    A = np.where((kinds == 1)[:, None], rng.choice([0.0, 0.8, 1.0], (n, m)),
                 rng.random((n, m)))
    for i in np.flatnonzero(kinds == 2):
        hot = rng.choice(m, size=rng.integers(cap), replace=False)
        A[i] = 0.0
        A[i, hot] = rng.random(hot.size)
    return A, cap, x0, eta


# shaped like the wide workload's ratings: 40 x 600, three values, cap m / 2
_WIDE_RATINGS = np.random.default_rng(19).choice(
    [0.0, 0.8, 1.0], size=(40, 600), p=[0.954, 0.011, 0.035])


class TestFacePoint:
    def test_ties_share_the_leftover(self):
        A = np.array([[2.0, 1.0, 1.0, 1.0, -1.0],    # tau = 1 > 0
                      [0.5, 0.0, 0.0, -1.0, 0.0],    # tau = 0: min(x0, l / 3)
                      [-1.0, -1.0, 0.0, 0.0, 0.0]])  # nothing positive
        got = _face_point(A, 3, 0.2)
        want = [[1.0, 2 / 3, 2 / 3, 2 / 3, 0.0],
                [1.0, 0.2, 0.2, 0.0, 0.2],
                [0.0, 0.0, 0.2, 0.2, 0.2]]
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(_face_inputs())
    def test_in_row_set_and_reaches_greedy_objective(self, case):
        A, cap, x0 = case
        L = _face_point(A, cap, x0)
        assert L.min() >= 0.0 and L.max() <= 1.0
        assert np.all(L.sum(axis=1) <= cap * (1 + 1e-15))
        greedy = float(np.vdot(A, greedy_row_oracle(A, cap)))
        assert float(np.vdot(A, L)) == pytest.approx(greedy, rel=1e-15, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(_face_inputs())
    @example((_WIDE_RATINGS, 300, 0.5))
    @example((_WIDE_RATINGS, 300, 0.0))
    def test_matches_the_partition_reference(self, case):
        A, cap, x0 = case
        assert np.array_equal(_face_point(A, cap, x0),
                              partition_face_point(A, cap, x0))

    @settings(max_examples=150, deadline=None)
    @given(_face_inputs())
    @example((np.array([[1.0, 1.0, 1.0, 0.0]]), 2, 0.5))  # a three-way tie
    @example((np.array([[0.5, 0.0, 0.0, 0.0]]), 3, 0.75))  # x0 * ties > l
    @example((np.array([[0.5, 0.0, 0.0, 0.0]]), 3, 0.0))
    # rounding: the ascent alternates a float to either side of 1 / 3
    @example((np.array([[0.5, 0.5, 0.5, 1.0, 1.0, 1.0]]), 1, 0.0))
    def test_is_the_limit_of_the_ascent(self, case):
        A, cap, x0 = case
        got = _face_point(A, cap, x0)
        for M in long_ascent(A, cap, x0):
            assert np.abs(got - M).max() <= 1e-9

    @settings(max_examples=300, deadline=None)
    @given(_normal_cone_inputs())
    @example((_WIDE_RATINGS, 300, 0.5, 1e-3))
    def test_step_from_the_face_point_row_projects_to_it(self, case):
        # L maximizes <A, .> over the row set, so eta * A lies in the set's
        # normal cone at L and Pi_rows(L + eta * A) = L: the solve's first
        # step row-projects L itself. In floats the two agree to a few ulps
        # of the row sum cap and of the largest entry, since a row's shift is
        # found to the rounding of its sum: at small eta the gap is typically
        # cap / 2 ulps of 1, 150 on the example below
        A, cap, x0, eta = case
        L = _face_point(A, cap, x0)
        gap = np.abs(_project_rows(L + eta * A, cap) - _project_rows(L, cap))
        assert gap.max() <= 4 * np.finfo(float).eps * (cap + eta * A.max())


# --- full solve ----------------------------------------------------------------

def _observed(values):
    values = np.asarray(values, dtype=float)
    return ObservedRatings(values=values, mask=np.ones(values.shape, dtype=np.int8))


def _record_dykstra(monkeypatch):
    """Wrap solver.dykstra_project; returns the lists of the matrices and
    corrections passed and of the corrections returned, one entry a call."""
    project = solver.dykstra_project
    inputs, passed, returned = [], [], []

    def recording(M, cap, rho, q=None, prev=None):
        inputs.append(np.array(M))
        passed.append(q)
        out = project(M, cap, rho, q, prev)
        returned.append(out[1])
        return out

    monkeypatch.setattr(solver, "dykstra_project", recording)
    return inputs, passed, returned


def _record_decompositions(monkeypatch, names=("svd",)):
    """Wrap the np.linalg functions names, by default svd alone; returns the
    list of the matrices they see."""
    seen = []

    def wrap(decompose):
        def recording(a, *args, **kwargs):
            seen.append(np.array(a, dtype=float))
            return decompose(a, *args, **kwargs)
        return recording

    for name in names:
        monkeypatch.setattr(np.linalg, name, wrap(getattr(np.linalg, name)))
    return seen


def _derived_step(A, L):
    """The solver's default step ||L||_F / ||A||_F, summed as it sums it."""
    return (math.sqrt(np.einsum("ij,ij->", L, L))
            / math.sqrt(np.einsum("ij,ij->", A, A)))


def _near_threshold(seed):
    """A sparse 8x12 instance whose nuclear ball binds on the ascent's path
    but not at its optimum: rho lies a fifth of the way (geometrically) from
    the nuclear norm of the face point L of beta * ones, outside the ball,
    down to that of the greedy point, inside it. The greedy point reaches
    the bound <A, L>, so the solve can certify; on these seeds it does
    within 3-5 steps from L, and within 4-11 from beta * ones."""
    rng = np.random.default_rng(seed)
    A = rng.random((8, 12)) * (rng.random((8, 12)) < 0.15)
    cfg = make_config(n=8, m=12, beta=0.25, k=12, k0=12,
                      solver=SolverSettings(max_iters=100))

    def nuclear(X):
        return np.linalg.svd(X, compute_uv=False).sum() / cfg.rho

    low = nuclear(greedy_row_oracle(A, cfg.beta_m))
    high = nuclear(_face_point(A, cfg.beta_m, cfg.beta))
    return A, replace(cfg, rho_scale=low ** 0.2 * high ** 0.8)


class TestSolveRecoverM:
    def test_matches_greedy_when_nuclear_slack(self):
        rng = np.random.default_rng(8)
        cfg = make_config(
            n=20, m=30, alpha=0.5, beta=0.25, epsilon=0.5, k=30, k0=30,
            solver=SolverSettings(max_iters=200, eta0=1e8))
        rho_huge = cfg.beta_m * np.sqrt(cfg.n * cfg.m)
        slack_cfg = replace(cfg, rho_scale=rho_huge / cfg.rho)
        for _ in range(5):
            A = rng.random((20, 30))
            matrix, report = solve_recover_M(_observed(A), slack_cfg)
            greedy_obj = float(np.vdot(A, greedy_row_oracle(A, cfg.beta_m)))
            assert report.objective == pytest.approx(greedy_obj, rel=1e-5)
            assert report.objective <= greedy_obj + 1e-9

    def test_zero_ratings_returns_feasible_zero_objective(self):
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8)
        matrix, report = solve_recover_M(_observed(np.zeros((6, 8))), cfg)
        assert report.objective == 0.0
        assert report.converged
        res = feasibility_residuals(matrix.M, cfg.beta_m, cfg.rho)
        assert res["box"] <= 1e-6 and res["row"] <= 1e-6 and res["nuc"] <= 1e-4

    def test_honest_two_level_rows_concentrate(self):
        # all rows equal a two-level truth: every row of the solution puts
        # essentially all its mass on the true top set
        rng = np.random.default_rng(9)
        n = m = 20
        cfg = make_config(n=n, m=m, alpha=1.0, beta=0.2, k=m, k0=m,
                          solver=SolverSettings(max_iters=800))
        r = np.zeros(m)
        r[rng.choice(m, size=cfg.beta_m, replace=False)] = 1.0
        A = np.tile(r, (n, 1))
        matrix, report = solve_recover_M(_observed(A), cfg)
        overlap = matrix.M @ r / cfg.beta_m
        assert np.all(overlap >= 0.99)

    @pytest.mark.parametrize("rho_scale,steps", [(1.0, 1), (0.05, 5)],
                             ids=["slack", "binding"])
    def test_objective_trace_has_each_iterate_objective(self, monkeypatch,
                                                        rho_scale, steps):
        # each step's iterate is its nuclear projection
        rng = np.random.default_rng(10)
        cfg = make_config(n=8, m=10, beta=0.3, k=10, k0=10, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=5))
        A = rng.random((8, 10))
        project = solver.project_nuclear_ball
        iterates = []

        def recording(*args):
            iterates.append(project(*args))
            return iterates[-1]

        monkeypatch.setattr(solver, "project_nuclear_ball", recording)
        _, report = solve_recover_M(_observed(A), cfg)
        assert report.iterations == steps
        assert report.objective_trace == tuple(
            float(np.vdot(A, X)) for X in iterates)

    def test_oracle_dominance_under_active_nuclear_constraint(self):
        rng = np.random.default_rng(11)
        cfg = make_config(n=10, m=12, alpha=0.8, beta=0.25, epsilon=1.0,
                          k=12, k0=12, rho_scale=0.2,
                          solver=SolverSettings(max_iters=250))
        # shrink the ball so it binds: greedy upper-bounds the solver
        for _ in range(3):
            A = rng.random((10, 12))
            _, report = solve_recover_M(_observed(A), cfg)
            greedy_obj = float(np.vdot(A, greedy_row_oracle(A, cfg.beta_m)))
            assert report.objective <= greedy_obj + 1e-9
            assert report.residual_nuc <= 1e-4

    def test_not_converged_carries_result(self):
        # at rho_scale 0.05 rho is 2.7, below the Frobenius norm 3.5 of the
        # row program's face point, so the ball binds and 3 steps cannot
        # certify
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=3))
        matrix, report = solve_recover_M(_observed(rng.random((6, 8))), cfg)
        assert report.iterations == 3
        assert not report.converged
        res = feasibility_residuals(matrix.M, cfg.beta_m, cfg.rho)
        assert res["box"] <= 1e-6 and res["row"] <= 1e-6

    def test_binding_solve_starts_at_the_face_point(self, monkeypatch):
        # the ball binds (as in test_not_converged_carries_result); the first
        # step still row-projects L itself, not L + eta * A, with the zero
        # correction, and no SVD asks whether L lies in the ball
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=3))
        A = rng.random((6, 8))
        L = _face_point(A, cfg.beta_m, cfg.beta)
        assert np.linalg.svd(L, compute_uv=False).sum() > cfg.rho
        inputs, passed, _ = _record_dykstra(monkeypatch)
        seen = _record_decompositions(monkeypatch)
        solve_recover_M(_observed(A), cfg)
        assert passed[0] is None
        assert inputs[0].tobytes() == L.tobytes()
        assert not any(np.array_equal(a, L) for a in seen)

    # where the removed start rule began at beta * ones, and the two cases
    # where it fell back to zeros
    @pytest.mark.parametrize("n,m,beta,rho_scale,over_rows,over_ball", [
        (6, 8, 0.25, 1.0, False, False), (6, 8, 0.3, 1.0, True, False),
        (10, 10, 0.5, 0.03, False, True)],
        ids=["uniform-feasible", "row-sum-over-cap", "nuclear-tight"])
    def test_every_solve_starts_at_the_face_point(self, monkeypatch, n, m, beta,
                                                  rho_scale, over_rows,
                                                  over_ball):
        rng = np.random.default_rng(21)
        cfg = make_config(n=n, m=m, beta=beta, k=m, k0=m, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=3))
        A = rng.random((n, m))
        L = _face_point(A, cfg.beta_m, cfg.beta)
        uniform = np.full((n, m), beta)
        assert (uniform.sum(axis=1).max() > cfg.beta_m) == over_rows
        assert (np.linalg.svd(uniform, compute_uv=False).sum() > cfg.rho
                ) == over_ball
        inputs, passed, _ = _record_dykstra(monkeypatch)
        seen = _record_decompositions(monkeypatch)
        solve_recover_M(_observed(A), cfg)
        assert passed[0] is None
        assert inputs[0].tobytes() == L.tobytes()
        assert not any(np.array_equal(a, L) or np.array_equal(a, uniform)
                       for a in seen)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([0.02, 0.1, 0.5, 1.0, 10.0]))
    def test_objective_never_above_row_program_bound(self, seed, rho_scale):
        # small rho_scale binds, large is slack; the bound holds either way,
        # the returned matrix is feasible, and converged certifies the gap
        rng = np.random.default_rng(seed)
        cfg = make_config(n=8, m=10, beta=0.3, k=10, k0=10, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=60))
        A = rng.random((8, 10)) * (rng.random((8, 10)) < 0.6)
        _, report = solve_recover_M(_observed(A), cfg)
        bound = float(np.vdot(A, greedy_row_oracle(A, cfg.beta_m)))
        assert report.objective <= bound + 1e-12 * max(1.0, bound)
        assert (report.residual_box, report.residual_row,
                report.residual_nuc) == (0.0, 0.0, 0.0)
        if report.converged:
            assert report.objective >= bound - 1e-6 * max(1.0, abs(bound))

    @pytest.mark.parametrize("rho_scale,certified", [(1.0, True), (0.05, False)],
                             ids=["slack", "binding"])
    def test_converged_iff_the_returned_matrix_certifies(self, rho_scale,
                                                        certified):
        # the binding ball (as in test_not_converged_carries_result) keeps 3
        # steps short of the bound; the slack solve starts at the face point
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=3))
        A = rng.random((6, 8))
        matrix, report = solve_recover_M(_observed(A), cfg)
        bound = float(np.vdot(A, _face_point(A, cfg.beta_m, cfg.beta)))
        res = feasibility_residuals(matrix.M, cfg.beta_m, cfg.rho)
        assert report.objective == float(np.vdot(A, matrix.M))
        assert report.converged == (
            report.objective >= bound - 1e-6 * max(1.0, abs(bound))
            and res == {"box": 0.0, "row": 0.0, "nuc": 0.0})
        assert report.converged == certified

    def test_default_step_is_the_norm_ratio_of_face_point_and_ratings(
            self, monkeypatch):
        # the binding config of test_not_converged_carries_result
        rng = np.random.default_rng(16)
        A = rng.random((6, 8))
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=4))
        L = _face_point(A, cfg.beta_m, cfg.beta)
        eta = _derived_step(A, L)
        # step 1 row-projects L itself; the step first shows in step 2's
        # input M_1 + eta * A
        M1 = project_nuclear_ball(_project_rows(L, cfg.beta_m), cfg.rho)
        inputs, _, _ = _record_dykstra(monkeypatch)
        seen = _record_decompositions(monkeypatch, ("eigh", "eigvalsh", "svd"))
        default = solve_recover_M(_observed(A), cfg)
        assert inputs[0].tobytes() == L.tobytes()
        assert inputs[1].tobytes() == (M1 + eta * A).tobytes()
        # no decomposition sees A: the solve at the same step, given, makes
        # exactly the same ones
        assert not any(np.array_equal(a, A) or np.array_equal(a, A.T)
                       for a in seen)
        decomposed = len(seen)
        explicit = solve_recover_M(_observed(A), replace(
            cfg, solver=SolverSettings(max_iters=4, eta0=eta)))
        assert len(seen) == 2 * decomposed
        assert all(np.array_equal(a, b)
                   for a, b in zip(seen[:decomposed], seen[decomposed:]))
        assert np.array_equal(default[0].M, explicit[0].M)
        assert default[1] == explicit[1]
        # a set eta0 is used as given
        inputs.clear()
        solve_recover_M(_observed(A), replace(
            cfg, solver=SolverSettings(max_iters=4, eta0=0.5)))
        assert inputs[0].tobytes() == L.tobytes()
        assert inputs[1].tobytes() == (M1 + 0.5 * A).tobytes()

    def test_slack_solve_starts_at_the_face_point(self):
        rng = np.random.default_rng(14)
        cfg = make_config(n=8, m=10, beta=0.3, k=10, k0=10,
                          solver=SolverSettings(max_iters=60))
        A = rng.random((8, 10))
        matrix, report = solve_recover_M(_observed(A), cfg)
        assert report.converged and report.iterations == 1
        L = _face_point(A, cfg.beta_m, cfg.beta)
        assert np.abs(matrix.M - L).max() <= 1e-12
        # from beta * ones the ascent takes more steps to the same point
        matrix, report = _solve(_observed(A), cfg, face_start=False)
        assert report.iterations > 1

    def test_final_matrix_is_decomposed_once(self, monkeypatch):
        # the ball binds (as in test_not_converged_carries_result), so the
        # final matrix's nuclear norm needs an SVD, and the report reuses it
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=3))
        seen = _record_decompositions(monkeypatch)
        matrix, _ = solve_recover_M(_observed(rng.random((6, 8))), cfg)
        assert sum(np.array_equal(a, matrix.M) for a in seen) == 1

    def test_dykstra_correction_carries_from_step_to_step(self, monkeypatch):
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=4))
        _, passed, returned = _record_dykstra(monkeypatch)
        ratings = _observed(rng.random((6, 8)))
        for _ in range(2):  # a second solve starts from zero again
            with counted_projections() as (calls, _):
                solve_recover_M(ratings, cfg)
            assert passed[0] is None
            assert all(a is not None and np.array_equal(a, b)
                       for a, b in zip(passed[1:], returned))
            # every step is one sweep: one row and one nuclear projection
            # (the polish adds the last row projection)
            assert len(passed) == calls["project_nuclear_ball"] == 4
            assert calls["_project_rows"] == 5
            passed.clear()
            returned.clear()

    def test_binding_solve_follows_the_relaxed_recurrence(self, monkeypatch):
        # the binding config of test_not_converged_carries_result; step 1
        # row-projects L itself, from q = None, and is not relaxed
        rng = np.random.default_rng(12)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=0.05,
                          solver=SolverSettings(max_iters=6))
        A = rng.random((6, 8))
        cap, rho = cfg.beta_m, cfg.rho
        L = _face_point(A, cap, cfg.beta)
        eta = _derived_step(A, L)
        X = _project_rows(L, cap)
        M = project_nuclear_ball(X, rho)
        q = X - M
        want = [q]
        for _ in range(5):
            X = _project_rows((M + eta * A) - q, cap)
            u = X + q + (solver.RELAX - 1.0) * (X - M)
            M = project_nuclear_ball(u, rho)
            q = u - M
            want.append(q)
        _, _, returned = _record_dykstra(monkeypatch)
        matrix, report = solve_recover_M(_observed(A), cfg)
        assert report.iterations == 6 and not report.converged
        assert [r.tobytes() for r in returned] == [w.tobytes() for w in want]
        assert matrix.M.tobytes() == solver._polish(M, cap, rho)[0].tobytes()

    def test_slack_solve_takes_no_relaxed_step(self, monkeypatch):
        # README config, trial seed 42: the ball is slack, q stays None, and
        # a relaxation factor that would poison any relaxed step changes no
        # byte
        cfg = readme_config(1.0, 400)
        trial = simulate_trial(cfg, 42)
        assert trial.report.converged and trial.report.iterations == 1
        monkeypatch.setattr(solver, "RELAX", math.nan)
        poisoned = simulate_trial(cfg, 42).matrix.M
        assert poisoned.tobytes() == trial.matrix.M.tobytes()

    def test_slack_solve_does_not_depend_on_the_step(self):
        # README config, trial seed 42: step 1 row-projects L itself, so no
        # eta reaches a solve that certifies there. Row-projecting the rounded
        # L + eta * A moves M at eta 1e8 and loses L altogether at 1e300.
        cfg = readme_config(1.0, 400)
        base = simulate_trial(cfg, 42)
        assert base.report.converged and base.report.iterations == 1
        assert round(base.report.objective, 6) == 7044.8
        for eta0 in (0.1, 1e8, 1e300):
            trial = simulate_trial(replace(
                cfg, solver=SolverSettings(max_iters=400, eta0=eta0)), 42)
            assert trial.report == base.report
            assert trial.matrix.M.tobytes() == base.matrix.M.tobytes()

    def test_slack_solve_makes_one_of_each_projection(self, monkeypatch):
        # README config, trial seed 42: one step (one sweep, one row and one
        # nuclear projection) and the polish's row projection; the benchmark's
        # per-layer metrics on its readme workload need each of these calls
        cfg = readme_config(1.0, 400)
        inputs, _, _ = _record_dykstra(monkeypatch)
        with counted_projections() as (calls, _):
            simulate_trial(cfg, 42)
        assert len(inputs) == 1
        assert calls == {"_project_rows": 2, "project_nuclear_ball": 1}

    @pytest.mark.parametrize("seed", [42, 43])
    def test_relaxation_raises_the_20_step_objective(self, seed):
        # the binding CI config (README config at rho_scale 0.2, 20 steps)
        # against plain ADMM from the same start at the same step: dykstra_
        # project chained without prev (4098.524 against 4091.020 at seed
        # 42, 4092.875 against 4085.016 at 43)
        cfg = readme_config(0.2, 20)
        trial = simulate_trial(cfg, seed)
        A, report = trial.observed.values, trial.report
        assert report.iterations == 20 and not report.converged
        cap, rho = cfg.beta_m, cfg.rho
        M = _face_point(A, cap, cfg.beta)
        eta = _derived_step(A, M)
        q = None
        for _ in range(20):
            M, q = dykstra_project(M + eta * A, cap, rho, q)
        plain = float(np.vdot(A, solver._polish(M, cap, rho)[0]))
        assert report.objective > plain

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 6, 11, 19, 23, 42])
    def test_certifies_near_the_nuclear_threshold(self, seed):
        A, cfg = _near_threshold(seed)
        _, report = solve_recover_M(_observed(A), cfg)
        assert report.converged

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5, 6, 11, 19, 23, 42])
    def test_face_start_certifies_near_the_threshold_sooner(self, seed):
        # the face point is the optimum of the row program, so the ascent
        # from it has less ground to cover than from beta * ones
        A, cfg = _near_threshold(seed)
        _, report = solve_recover_M(_observed(A), cfg)
        _, uniform = _solve(_observed(A), cfg, face_start=False)
        assert report.converged and report.iterations <= 10
        assert report.iterations < uniform.iterations

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_objective_is_within_the_admm_dual_bound(self, monkeypatch, seed):
        # tests/test_cli.py's GOOD_CONFIG at rho_scale 0.1, where the ball
        # binds. For any Z the program's optimum is at most
        # h_C(A - Z) + rho * sigma_1(Z), with h_C(B) = max <B, M> over the
        # row set (the top beta_m positive entries of each row); ADMM's dual
        # Z = q / eta makes the bound nearly tight.
        cfg = make_config(beta=0.1667, adversary=SymmetricBlocks(block_low=0.8),
                          rho_scale=0.1, solver=SolverSettings(max_iters=250))
        _, _, returned = _record_dykstra(monkeypatch)
        trial = simulate_trial(cfg, seed)
        A, report = trial.observed.values, trial.report
        assert report.iterations == 250 and not report.converged
        eta = _derived_step(A, _face_point(A, cfg.beta_m, cfg.beta))
        Z = returned[-1] / eta  # q / eta
        B = A - Z
        dual = (float(np.vdot(B, greedy_row_oracle(B, cfg.beta_m)))
                + cfg.rho * float(np.linalg.norm(Z, 2)))
        assert report.objective <= dual
        assert (dual - report.objective) / dual <= 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_permuting_rows_and_columns_permutes_the_solution(self, seed):
        rng = np.random.default_rng(seed)
        cfg = make_config(n=8, m=12, beta=0.25, k=12, k0=12, rho_scale=0.1,
                          solver=SolverSettings(max_iters=300))
        A = rng.random((8, 12))
        rows, cols = rng.permutation(8), rng.permutation(12)
        matrix, report = solve_recover_M(_observed(A), cfg)
        permuted, permuted_report = solve_recover_M(
            _observed(A[rows][:, cols]), cfg)
        assert np.abs(permuted.M - matrix.M[rows][:, cols]).max() <= 1e-9
        assert permuted_report.objective == pytest.approx(report.objective,
                                                          rel=1e-9)

    @pytest.mark.parametrize("rho_scale", [1.0, 0.05], ids=["slack", "binding"])
    def test_report_residuals_are_those_of_the_returned_matrix(self, rho_scale):
        rng = np.random.default_rng(15)
        cfg = make_config(n=6, m=8, beta=0.25, k=8, k0=8, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=3))
        matrix, report = solve_recover_M(_observed(rng.random((6, 8))), cfg)
        res = feasibility_residuals(matrix.M, cfg.beta_m, cfg.rho)
        assert (report.residual_box, report.residual_row,
                report.residual_nuc) == (res["box"], res["row"], res["nuc"])

    def test_feasibility_residuals_within_declared_tolerances(self):
        rng = np.random.default_rng(13)
        cfg = make_config(n=9, m=11, beta=0.3, k=11, k0=11,
                          solver=SolverSettings(max_iters=200))
        matrix, report = solve_recover_M(_observed(rng.random((9, 11))), cfg)
        assert report.residual_box <= 1e-6
        assert report.residual_row <= 1e-6
        assert report.residual_nuc <= 1e-4


    @pytest.mark.parametrize("rho_scale,steps", [(1.0, 1), (0.05, 30)],
                             ids=["slack", "binding"])
    @pytest.mark.parametrize("c", [0.5, 0.125])
    def test_scaling_the_ratings_by_a_power_of_two_scales_only_the_objective(
            self, rho_scale, steps, c):
        # the step ||L||_F / ||A||_F scales by 1 / c and L not at all, so
        # eta * A and every iterate keep their bits; with |<cA, L>| >= 1 the
        # stop target scales exactly too
        rng = np.random.default_rng(17)
        cfg = make_config(n=8, m=10, beta=0.3, k=10, k0=10, rho_scale=rho_scale,
                          solver=SolverSettings(max_iters=30))
        A = rng.random((8, 10))
        L = _face_point(A, cfg.beta_m, cfg.beta)
        assert c * float(np.vdot(A, L)) >= 1.0
        matrix, report = solve_recover_M(_observed(A), cfg)
        scaled, scaled_report = solve_recover_M(_observed(c * A), cfg)
        assert report.iterations == steps
        assert scaled.M.tobytes() == matrix.M.tobytes()
        assert scaled_report == replace(
            report, objective=c * report.objective,
            objective_trace=tuple(c * t for t in report.objective_trace))


# README config, trial seed 42; run in a fresh process per BLAS thread count
_BLAS_PROBE = """
import hashlib
from conftest import readme_config
from qcrowd import simulate_trial
trial = simulate_trial(readme_config({rho_scale}, {max_iters}), 42)
print(hashlib.sha256(trial.matrix.M.tobytes()).hexdigest(),
      trial.report.iterations)
"""


@pytest.mark.parametrize("rho_scale,max_iters,steps", [(1.0, 400, 1),
                                                      (0.2, 5, 5)],
                         ids=["slack", "binding"])
def test_solve_is_the_same_at_one_and_two_blas_threads(rho_scale, max_iters,
                                                       steps):
    # the step's norms are summed by einsum: BLAS's ddot splits a long sum
    # across threads, which moves its last bits and, through eta, M's
    code = _BLAS_PROBE.format(rho_scale=rho_scale, max_iters=max_iters)
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        out.append(run.stdout)
    assert out[0] == out[1]
    assert out[0].split()[1] == str(steps)
