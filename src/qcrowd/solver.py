"""Recovery of the per-rater quantile matrix.

Maximizes <A, M> over {0 <= M_ij <= 1, row sums <= beta_m, ||M||_* <= rho}
by scaled ADMM (Boyd et al. 2011, section 3) between the per-row capped
box-simplex and the nuclear-norm ball, at the scale-free constant step
eta = 1/penalty = ||L||_F / ||A||_F, started at the row program's face point
L (see _face_point). Each step is one Dykstra sweep (see dykstra_project)
from the carried nuclear correction q, which is ADMM's scaled dual variable;
once q is carried, the sweep is over-relaxed by the constant factor RELAX.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    ExperimentConfig,
    QuantileMatrix,
    SolverSettings,  # re-exported: qcrowd.solver.SolverSettings
    _frobenius_certifies,
    _scaled,
    feasibility_residuals,
)


# The solve stops once its polished iterate is within
# STOP_REL_OBJ * max(1, |bound|) of the row program's optimum bound.
STOP_REL_OBJ = 1e-6

# Over-relaxation factor of every ADMM step that carries a correction (Boyd
# et al. 2011, section 3.4.3; 1 is plain ADMM). A constant, not a setting:
# 1.5 took about a third fewer steps to a 1e-4 dual gap on every measured
# config, where 1.8 was faster on README-shaped ones and slower on wide ones.
RELAX = 1.5


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics for one solve, of the matrix it returns.

    objective and the residuals are that matrix's. converged is True exactly
    when the matrix is feasible (all three residuals 0) and its objective is
    within STOP_REL_OBJ * max(1, |<A, L>|) of the row program's optimum
    <A, L>, an upper bound on the program's: a certified relative gap.
    objective_trace holds the objective of each step's iterate, before the
    polish."""

    iterations: int
    objective: float
    residual_box: float
    residual_row: float
    residual_nuc: float
    converged: bool
    objective_trace: Tuple[float, ...] = ()


def _project_rows(M: np.ndarray, cap: float) -> np.ndarray:
    """Exact Euclidean projection of every row onto {x in [0,1]^m: sum x <= cap}.

    Rows whose clipped sum already satisfies the cap are just clipped. The
    rest get the Lagrange shift theta at which the piecewise-linear
    f(theta) = sum clip(v - theta, 0, 1) meets the cap, found by Newton
    steps theta += (f(theta) - cap) / #{j : 0 < v_j - theta < 1} inside a
    bracket [lo, hi] with f(lo) > cap >= f(hi); a row bisects the bracket
    when no entry is free or the step leaves it, and moves one float when
    rounding swallows the step. A row is done once
    cap - 1e-12 * cap <= f(theta) <= cap, or once no float lies strictly
    between lo and hi, and then takes theta = hi, so no row sum, as the
    search adds it, exceeds the cap. Rows leave the search as they finish;
    it stops after 80 steps, with theta = hi on any row still open.
    """
    M = np.asarray(M, dtype=float)
    X = np.clip(M, 0.0, 1.0)
    f = X.sum(axis=1)
    rows = np.flatnonzero(f > cap)  # rows still searching
    if rows.size == 0:
        return X
    V = M[rows]
    f = f[rows]  # f(0), with its free count below
    n_free = np.count_nonzero((V > 0.0) & (V < 1.0), axis=1)
    theta = np.zeros(rows.size)
    lo = theta.copy()
    hi = V.max(axis=1)  # at theta = max(v) the shifted sum is 0 <= cap
    narrow = np.nextafter(lo, hi) >= hi  # no float strictly inside
    for _ in range(80):
        step = theta + (f - cap) / np.maximum(n_free, 1)
        # a step lost to rounding moves theta one float toward the root
        step = np.where(step == theta,
                        np.nextafter(theta, np.where(f > cap, hi, lo)), step)
        newton = (n_free > 0) & (lo < step) & (step < hi)
        theta = np.where(newton, step, 0.5 * (lo + hi))
        theta = np.where(narrow, hi, theta)  # finish at the upper end
        W = np.clip(V - theta[:, None], 0.0, 1.0)
        f = W.sum(axis=1)
        n_free = np.count_nonzero((W > 0.0) & (W < 1.0), axis=1)
        above = f > cap
        lo = np.where(above, theta, lo)
        hi = np.where(above, hi, theta)
        narrow = np.nextafter(lo, hi) >= hi
        done = ~above & ((f >= cap - 1e-12 * cap) | narrow)
        if np.any(done):
            X[rows[done]] = W[done]  # theta == hi on these rows
            keep = ~done
            rows, V, lo, hi, theta, f, n_free, narrow = (
                a[keep] for a in (rows, V, lo, hi, theta, f, n_free, narrow))
            if rows.size == 0:
                return X
    X[rows] = np.clip(V - hi[:, None], 0.0, 1.0)
    return X


def project_capped_box_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Exact Euclidean projection of v onto {x in [0,1]^m : sum x <= cap}."""
    v = np.asarray(v, dtype=float)
    return _project_rows(v[None, :], cap)[0]


def _simplex_threshold(s: np.ndarray, radius: float) -> np.ndarray:
    """Project a descending non-negative vector onto {x >= 0, sum x = radius}
    via the sorted-threshold rule."""
    css = np.cumsum(s)
    idx = np.arange(1, s.size + 1)
    positive = np.flatnonzero(s - (css - radius) / idx > 0)
    if positive.size == 0:  # radius is below the float spacing of s[0]
        return np.concatenate(([radius], np.zeros(s.size - 1)))
    rank = int(positive[-1]) + 1
    theta = (css[rank - 1] - radius) / rank
    return np.maximum(s - theta, 0.0)


def project_nuclear_ball(M: np.ndarray, rho: float) -> np.ndarray:
    """Euclidean projection of M onto the nuclear-norm ball of radius rho.

    M is returned unchanged when already inside. Otherwise let Y be M, or
    M.T when M is wide, divided by the power of two c just above its largest
    absolute entry, so that its Gram matrix neither overflows nor
    underflows. The eigenvectors V of the smaller Gram matrix Y.T @ Y are
    Y's right singular vectors, and the column norms s of W = Y @ V are M's
    singular values divided by c. These norms stay accurate where the square
    root of a small Gram eigenvalue does not (its absolute error is about
    sqrt(eps) * s_max). In these units s is projected onto the l1 ball of
    radius (rho - slack) / c (sorted-threshold rule) to t, and only the kept
    components are rebuilt, as c * ((W_r * (t_r / s_r)) @ V_r.T); every kept
    s_r exceeds the shift, so the division is safe. Scaling by c is exact
    unless an entry lands among the subnormals, where it is rounded by at
    most 2**-1075, which moves the nuclear norm by at most n * m * 2**-1075.
    slack = n * m * 2**-1074 is twice that, so the result's singular values,
    rounded to subnormals in turn, also sum to at most rho; rho - slack
    equals rho for any rho above about 1e-300. When slack >= rho the zero
    matrix is returned.

    Raises ValueError for rho <= 0 or for a NaN or infinite entry (checked
    once the cheap inside-the-ball certificate has failed), and numpy's
    LinAlgError when the eigendecomposition does not converge.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    M = np.asarray(M, dtype=float)
    if _frobenius_certifies(M, rho):
        return M
    wide = M.shape[0] < M.shape[1]
    Y, e = _scaled(M.T if wide else M)
    V = np.linalg.eigh(Y.T @ Y)[1]
    W = Y @ V
    norms = np.sqrt(np.einsum("ij,ij->j", W, W))
    order = np.argsort(-norms, kind="stable")
    s = norms[order]
    try:
        inside = float(s.sum()) <= math.ldexp(rho, -e)
    except OverflowError:  # rho / c is past the largest float
        inside = True
    if inside:
        return M
    radius = rho - M.size * 2.0 ** -1074
    if radius <= 0.0:
        return np.zeros_like(M)
    t = _simplex_threshold(s, math.ldexp(radius, -e))
    r = np.count_nonzero(t)
    kept = order[:r]
    P = np.ldexp((W[:, kept] * (t[:r] / s[:r])) @ V[:, kept].T, e)
    return P.T if wide else P


def dykstra_project(M: np.ndarray, cap: float, rho: float,
                    q: Optional[np.ndarray] = None,
                    prev: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One sweep of Dykstra's algorithm between the per-row capped
    box-simplex and the nuclear ball, from the nuclear correction q;
    returns (x, q').

    The row correction is not carried, since it is a function of q. The
    sweep takes the row projection y of M - q, the nuclear projection x of
    u = y + q, and the next correction q' = u - x. q=None stands for the
    zero correction, on input and on output: from it u is y itself, and
    when y already lies in the ball, (y, None) is returned. x is always a
    nuclear projection, so it lies inside the ball.

    Given the previous iterate prev, a sweep from a correction q is
    over-relaxed: u = y + q + (RELAX - 1) * (y - prev), which is the relaxed
    ADMM step when M is prev + eta * A. prev is ignored when q is None, and
    without it chained calls are plain Dykstra.
    """
    if q is None:
        y = u = _project_rows(M, cap)
    else:
        y = _project_rows(M - q, cap)
        u = y + q if prev is None else y + q + (RELAX - 1.0) * (y - prev)
    x = project_nuclear_ball(u, rho)
    if x is y:  # zero correction, and y lies in the ball
        return y, None
    return x, u - x


def greedy_row_oracle(values: np.ndarray, cap: int) -> np.ndarray:
    """Row-separable maximizer: per row, 1 on the cap largest strictly
    positive entries (ties toward smaller index), else 0.

    Exact optimum of the program when the nuclear constraint is inactive.
    """
    A = np.asarray(values, dtype=float)
    order = np.argsort(-A, axis=1, kind="stable")
    rank = np.empty_like(order)
    rows = np.arange(A.shape[0])[:, None]
    rank[rows, order] = np.arange(A.shape[1])[None, :]
    return ((rank < cap) & (A > 0.0)).astype(float)


def _face_point(A: np.ndarray, cap: int, x0: float) -> np.ndarray:
    """x0 * ones projected onto the optimal face of the row program
    max <A, M> over {0 <= M_ij <= 1, row sums <= cap}, row by row.

    With tau = max(0, the cap-th largest entry of the row), entries above
    tau get 1 and entries below get 0; the entries equal to tau share the
    leftover l = cap - #above, l / #ties each when tau > 0 and
    min(x0, l / #ties) when tau = 0. This is also where the ascent from
    x0 * ones ends when the nuclear ball is slack, since tied entries start
    equal and stay equal. <A, face point> is the row program's optimum.
    """
    m = A.shape[1]
    # a full sort, not np.partition: introselect takes its slow path on rows
    # with few distinct values, as rows of ratings are
    tau = np.maximum(np.sort(A, axis=1)[:, m - cap], 0.0)[:, None]
    above = A > tau
    ties = A == tau
    share = (cap - np.count_nonzero(above, axis=1, keepdims=True)) / np.maximum(
        np.count_nonzero(ties, axis=1, keepdims=True), 1)
    share = np.where(tau > 0.0, share, np.minimum(x0, share))
    return np.where(above, 1.0, np.where(ties, share, 0.0))


def _polish(M: np.ndarray, cap: float, rho: float) -> Tuple[np.ndarray, dict]:
    """Row-project M, then scale it into the feasible set; returns the
    matrix and its feasibility_residuals.

    The row projection clips to [0, 1] and keeps each row sum at or below
    cap as its own search adds it; another order of summation can still see
    a row exceed cap by a few ulps. When the row excess r or the nuclear
    excess e of feasibility_residuals is positive, the matrix is multiplied
    by 1 / ((1 + e) * (1 + r / cap) * (1 + 1e-12)). A factor below 1 keeps
    every entry in [0, 1] (rounding is monotone), and the relative margin of
    1e-12 covers the rounding of the scaled row and singular-value sums.
    """
    X = _project_rows(M, cap)
    res = feasibility_residuals(X, cap, rho)
    if res["row"] > 0.0 or res["nuc"] > 0.0:
        X = X * (1.0 / ((1.0 + res["nuc"]) * (1.0 + res["row"] / cap)
                        * (1.0 + 1e-12)))
        res = feasibility_residuals(X, cap, rho)
    return X, res


def solve_recover_M(ratings,
                    cfg: ExperimentConfig) -> Tuple[QuantileMatrix, SolveReport]:
    """Solve the constrained linear program for the quantile matrix.

    Over-relaxed scaled ADMM at the constant step eta = ||L||_F / ||A||_F
    (1 when A is zero; solver.eta0 when set), started at the row program's
    face point L of beta * ones (see _face_point) with q = None: each step
    is M, q <- dykstra_project(M + eta * A, cap, rho, q, M), that is
    X = Pi_rows(M - q + eta * A), u = X + q + (RELAX - 1) * (X - M),
    M' = Pi_nuc(u), q' = u - M'. The relaxation term is dropped while q is
    None: on the first step, and on every step of a solve whose ball is
    slack, which is therefore plain ADMM. bound =
    <A, L> is the row program's optimum and an upper bound on the
    program's. Each iterate whose objective reaches target = bound -
    STOP_REL_OBJ * max(1, |bound|) is polished into the feasible set (see
    _polish), and the solve stops once the polished matrix's own objective
    reaches target; report.converged is then True. Otherwise it returns the
    polished last iterate after max_iters steps. When L lies in the ball,
    the first step returns L up to rounding and certifies. A -> c * A
    (c = 2**j) leaves L, eta * A and so every iterate bit for bit the same.
    """
    return _solve(ratings, cfg, face_start=True)


def _solve(ratings, cfg: ExperimentConfig,
           face_start: bool) -> Tuple[QuantileMatrix, SolveReport]:
    """The body of solve_recover_M. face_start False starts at beta * ones,
    not L (eta still comes from L), so tests can check the slack ascent.
    Each step passes the iterate it starts from to dykstra_project as prev,
    which over-relaxes the step once q is carried."""
    settings = cfg.solver
    A = np.asarray(ratings.values, dtype=float)
    cap = cfg.beta_m
    rho = cfg.rho

    L = _face_point(A, cap, cfg.beta)
    bound = float(np.vdot(A, L))
    M = L if face_start else np.full(A.shape, cfg.beta)
    if settings.eta0 is not None:
        eta = settings.eta0
    else:  # einsum, not BLAS, so eta's bits do not depend on BLAS threads
        aa, ll = (float(np.einsum("ij,ij->", X, X)) for X in (A, L))
        eta = math.sqrt(ll) / math.sqrt(aa) if aa > 0.0 else 1.0

    target = bound - STOP_REL_OBJ * max(1.0, abs(bound))
    q = None  # ADMM's scaled dual, Dykstra's nuclear correction
    trace = []
    for t in range(1, settings.max_iters + 1):
        M, q = dykstra_project(M + eta * A, cap, rho, q, M)
        trace.append(float(np.vdot(A, M)))
        if trace[-1] >= target or t == settings.max_iters:
            final, res = _polish(M, cap, rho)
            objective = float(np.vdot(A, final))
            converged = objective >= target and not any(res.values())
            if converged:
                break

    report = SolveReport(
        iterations=len(trace),
        objective=objective,
        residual_box=res["box"],
        residual_row=res["row"],
        residual_nuc=res["nuc"],
        converged=converged,
        objective_trace=tuple(trace),
    )
    return QuantileMatrix(final), report
