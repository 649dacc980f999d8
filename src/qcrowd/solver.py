"""Recovery of the per-rater quantile matrix.

Maximizes <A, M> over {0 <= M_ij <= 1, row sums <= beta_m, ||M||_* <= rho}
by projected subgradient ascent, with Dykstra's alternating projections
between the per-row capped box-simplex and the nuclear-norm ball. Dykstra's
loop iterates on its nuclear correction q, which certifies from any start,
so each step starts from the previous step's q and mixes the last
ANDERSON_MEMORY sweeps (see dykstra_project). Each step's Dykstra tolerance
shrinks with the ascent's remaining gap to its certificate, down to
DYKSTRA_TOL (see _step_tol).
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
    nuclear_excess,
    operator_norm,
)


class SvdFailure(RuntimeError):
    """Raised when the nuclear projection's Gram eigendecomposition does not
    converge."""


# The ascent stops once its best objective is within
# STOP_REL_OBJ * max(1, |bound|) of the row program's optimum bound.
STOP_REL_OBJ = 1e-6
DYKSTRA_SWEEPS = 30  # Dykstra sweeps per projected step
DYKSTRA_TOL = 1e-9  # Dykstra's stop test near the certificate (see _step_tol)
ANDERSON_MEMORY = 3  # past Dykstra sweeps mixed into the next one's start


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics for one solve of the returned matrix; converged is True
    exactly when that matrix is feasible (all three residuals 0) and its
    objective is within STOP_REL_OBJ * max(1, |bound|) of the row-program
    bound, a certified relative gap of at most STOP_REL_OBJ."""

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
    n_free = ((V > 0.0) & (V < 1.0)).sum(axis=1)
    theta = np.zeros(rows.size)
    lo = theta.copy()
    hi = V.max(axis=1)  # at theta = max(v) the shifted sum is 0 <= cap
    narrow = np.nextafter(lo, hi) >= hi  # no float strictly inside
    W_buf = np.empty_like(V)  # work buffers, sliced as rows finish
    free_buf = np.empty(V.shape, dtype=bool)
    below_buf = np.empty(V.shape, dtype=bool)
    for _ in range(80):
        step = theta + (f - cap) / np.maximum(n_free, 1)
        # a step lost to rounding moves theta one float toward the root
        step = np.where(step == theta,
                        np.nextafter(theta, np.where(f > cap, hi, lo)), step)
        newton = (n_free > 0) & (lo < step) & (step < hi)
        theta = np.where(newton, step, 0.5 * (lo + hi))
        theta = np.where(narrow, hi, theta)  # finish at the upper end
        W, free, below = (b[:rows.size] for b in (W_buf, free_buf, below_buf))
        np.subtract(V, theta[:, None], out=W)
        np.greater(W, 0.0, out=free)
        np.less(W, 1.0, out=below)
        np.logical_and(free, below, out=free)
        n_free = free.sum(axis=1)
        np.clip(W, 0.0, 1.0, out=W)
        f = W.sum(axis=1)
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
    once the cheap inside-the-ball certificate has failed), and SvdFailure
    when the eigendecomposition does not converge.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    M = np.asarray(M, dtype=float)
    if _frobenius_certifies(M, rho):
        return M
    wide = M.shape[0] < M.shape[1]
    Y, e = _scaled(M.T if wide else M)
    try:
        V = np.linalg.eigh(Y.T @ Y)[1]
    except np.linalg.LinAlgError as exc:
        raise SvdFailure("Gram eigendecomposition did not converge") from exc
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


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> by einsum, whose sum does not depend on the BLAS thread count."""
    return float(np.einsum("ij,ij->", a, b))


def dykstra_project(M: np.ndarray, cap: float, rho: float, max_sweeps: int,
                    tol: float = DYKSTRA_TOL,
                    q: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Approximate Euclidean projection of M onto the intersection of the
    per-row capped box-simplex and the nuclear ball; returns (x, q).

    Dykstra's algorithm, run as a fixed-point iteration on its nuclear
    correction q alone, since the row correction p = (M - q) - y is a
    function of q. A sweep from q takes the row projection y of M - q and
    the nuclear projection x of u = y + q; F(q) = u - x is plain Dykstra's
    next q. The loop stops once ||x - y|| <= tol * (1 + ||x||); tol
    defaults to DYKSTRA_TOL, and the ascent passes each step the looser
    tolerance _step_tol allows while it is far from its target. Since
    x - y = q - F(q), this bounds the fixed-point residual, and at a fixed
    point M - q - x lies in the row set's normal cone at x and q in the
    ball's, which is the optimality condition of the projection. That holds
    whatever q the loop started from, so the test certifies from any start:
    q may be warm-started (the solver passes the previous step's
    correction), and it may be extrapolated.

    After each sweep the next q is Anderson-mixed (type II): F(q) minus the
    combination of the last ANDERSON_MEMORY differences of F whose matching
    differences of x - y best cancel the current x - y in least squares.
    Dykstra is block coordinate descent on the dual
    D(p, q) = ||M - p - q||^2 / 2 + h_rows(p) + h_ball(q), h the support
    functions, so plain sweeps never raise D; after a sweep
    D = ||x||^2 / 2 + <p, y> + <F(q), x>. A mixed start whose sweep raises
    D beyond rounding is dropped, and the loop takes the plain step F from
    the last kept sweep with an empty history. Inner products are taken by
    einsum and combinations by explicit updates, not by BLAS, so the
    iterates do not depend on the BLAS thread count. Mixing runs for
    max_sweeps // 2 sweeps; if those end uncertified, the remaining sweeps
    run plain Dykstra from the given q, and of the two uncertified ends the
    one with the smaller ||x - y|| / (1 + ||x||) is returned. A budget of
    2k sweeps thus certifies wherever k plain sweeps from that q do (up to
    rounding).

    Returns x, always a nuclear projection (so inside the ball), and its
    F(q), the correction to pass as q next time. q=None stands for the zero
    correction, on input and on output. From zero the first sweep is the
    row projection y of M followed by the nuclear projection of y; when y
    already lies in the ball, (y, None) is returned after that one sweep,
    which is where the stop test (for any tol >= 0) would end the loop.
    max_sweeps = 0 returns M and the given q.
    """
    half = max_sweeps // 2
    first = _dykstra_sweeps(M, cap, rho, half, tol, q, mix=True)
    if first[2]:
        return first[:2]
    second = _dykstra_sweeps(M, cap, rho, max_sweeps - half, tol, q, mix=False)
    return (second if second[2] or second[3] <= first[3] else first)[:2]


def _dykstra_sweeps(M, cap, rho, max_sweeps, tol, q, mix):
    """The loop of dykstra_project, Anderson-mixed when mix is True; returns
    (x, F(q), whether the stop test held, ||x - y|| / (1 + ||x||)); F(q)
    is None while the loop has not left the zero start."""
    Z = np.asarray(M, dtype=float)
    x, f = Z, q
    res = math.inf
    g = None  # x - y of the last kept sweep
    dual = math.inf
    mixed = False  # whether q is an extrapolated start
    dG, dF = [], []  # the latest differences of x - y and of F(q)
    for _ in range(max_sweeps):
        if q is None:
            w = Z
            y = u = _project_rows(Z, cap)
        else:
            w = Z - q
            y = _project_rows(w, cap)
            u = y + q
        x_new = project_nuclear_ball(u, rho)
        if x_new is y:  # zero start, and y lies in the ball
            return y, None, True, 0.0
        f_new = u - x_new
        g_new = y - x_new
        g_norm = float(np.linalg.norm(g_new))
        x_norm = float(np.linalg.norm(x_new))
        if g_norm <= tol * (1.0 + x_norm):
            return x_new, f_new, True, g_norm / (1.0 + x_norm)
        if not mix:
            x, f, res = x_new, f_new, g_norm / (1.0 + x_norm)
            q = f
            continue
        dual_new = 0.5 * _dot(x_new, x_new) + _dot(w - y, y) + _dot(f_new, x_new)
        # 1e-12 relative is well above the rounding of the three sums
        if mixed and dual_new > dual + 1e-12 * abs(dual):
            q, mixed = f, False
            dG.clear()
            dF.clear()
            continue
        if g is not None:
            dG.append(g_new - g)
            dF.append(f_new - f)
            if len(dG) > ANDERSON_MEMORY:
                del dG[0], dF[0]
        x, f, g, dual = x_new, f_new, g_new, dual_new
        res = g_norm / (1.0 + x_norm)
        q, mixed = f, bool(dG)
        if mixed:
            H = np.array([[_dot(a, b) for b in dG] for a in dG])
            gamma = np.linalg.lstsq(H, np.array([_dot(a, g) for a in dG]))[0]
            q = f.copy()
            for c, d in zip(gamma, dF):
                q -= c * d
    return x, f, False, res


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


def _start_value(n: int, m: int, beta: float, cap: int, rho: float) -> float:
    """beta when beta * ones is feasible for all three constraints, else 0."""
    if (beta * m <= cap) and (beta <= 1.0) and (beta * math.sqrt(n * m) <= rho):
        return beta
    return 0.0


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


def _step_tol(target: float, reached: float, bound: float) -> float:
    """Dykstra's tolerance for the next ascent step:
    STOP_REL_OBJ * min(1, gap), floored at DYKSTRA_TOL, where
    gap = (target - reached) / max(1, |bound|) is the relative distance of
    the best objective reached so far from the stop target.

    Far from the target a step is projected to at most STOP_REL_OBJ; within
    1e-3 (relative) of it every step is projected to DYKSTRA_TOL, so the
    steps that decide the certificate are as exact as with a fixed
    DYKSTRA_TOL. A fixed looser tolerance is not: at the README config with
    rho_scale 0.545, 1e-7 loses the certificate on seed 43 and 1e-6 on
    seeds 42 to 44. The ascent's reached never decreases, so its
    tolerances never grow.
    """
    gap = (target - reached) / max(1.0, abs(bound))
    return max(DYKSTRA_TOL, STOP_REL_OBJ * min(1.0, gap))


def solve_recover_M(ratings,
                    cfg: ExperimentConfig) -> Tuple[QuantileMatrix, SolveReport]:
    """Solve the constrained linear program for the quantile matrix.

    Projected subgradient ascent M <- Pi(M + eta_t * A), where Pi is the
    Dykstra projection onto the feasible set. It starts at the row program's
    face point L (see _face_point) when L lies in the nuclear ball, and
    otherwise at beta * ones (zeros when that is infeasible). Each step's
    Dykstra projection stops at the tolerance _step_tol gives for the best
    objective so far, the start's included: at most STOP_REL_OBJ far from
    the target, DYKSTRA_TOL near it and from the face point. Every solve
    takes at least one step. It stops once the best objective is within
    STOP_REL_OBJ * max(1, |bound|) of bound = <A, L>, the row program's
    optimum and an upper bound on the program's, or after max_iters steps.
    Returns the best iterate by objective, polished into the feasible set
    (see _polish). report.converged holds when the returned matrix is
    feasible and its own objective is within that distance of bound.
    """
    return _solve(ratings, cfg, face_start=True)


def _solve(ratings, cfg: ExperimentConfig,
           face_start: bool) -> Tuple[QuantileMatrix, SolveReport]:
    """The body of solve_recover_M. With face_start False the ascent starts
    at beta * ones (or zeros) even when the face point lies in the ball, so
    a test can check the ascent itself on a slack instance. Each step's
    Dykstra tolerance is looked up through the module-level _step_tol, so
    a test can pin it to DYKSTRA_TOL."""
    settings = cfg.solver
    A = np.asarray(ratings.values, dtype=float)
    n, m = A.shape
    cap = cfg.beta_m
    rho = cfg.rho

    x0 = _start_value(n, m, cfg.beta, cap, rho)
    L = _face_point(A, cap, x0)
    bound = float(np.vdot(A, L))
    if face_start and nuclear_excess(L, rho) == 0.0:
        M = L
    else:
        M = np.full((n, m), x0)
    if settings.eta0 is not None:
        eta0 = settings.eta0
    else:
        sigma1 = operator_norm(A)
        eta0 = 1.0 / sigma1 if sigma1 > 1e-12 else 1.0

    target = bound - STOP_REL_OBJ * max(1.0, abs(bound))
    best_obj = -math.inf
    best_M = M
    start_obj = float(np.vdot(A, M))
    q = None  # Dykstra's nuclear correction, carried from step to step
    trace = []
    for t in range(1, settings.max_iters + 1):
        eta = eta0 / math.sqrt(t)
        tol = _step_tol(target, max(start_obj, best_obj), bound)
        M, q = dykstra_project(M + eta * A, cap, rho, DYKSTRA_SWEEPS,
                               tol=tol, q=q)
        obj = float(np.vdot(A, M))
        if obj > best_obj:
            best_obj = obj
            best_M = M
        trace.append(best_obj)
        if best_obj >= target:
            break

    final, res = _polish(best_M, cap, rho)
    objective = float(np.vdot(A, final))
    report = SolveReport(
        iterations=len(trace),
        objective=objective,
        residual_box=res["box"],
        residual_row=res["row"],
        residual_nuc=res["nuc"],
        converged=objective >= target and not any(res.values()),
        objective_trace=tuple(trace),
    )
    return QuantileMatrix(final), report
