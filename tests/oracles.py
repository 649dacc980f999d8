"""Independent projection oracles shared by the solver tests and the
acceptance suite."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _patterns(m):
    """All assignments of m coordinates to {at 0, free, at 1}."""
    grids = np.meshgrid(*([np.arange(3)] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def capped_box_oracle(v, cap):
    """Projection onto {x in [0,1]^m, sum x <= cap} by enumerating every
    clip pattern, solving its shift, and keeping the closest feasible
    candidate. Exact because the projection's own pattern is enumerated."""
    v = np.asarray(v, dtype=float)
    clipped = np.clip(v, 0.0, 1.0)
    if clipped.sum() <= cap + 1e-12:
        return clipped
    pat = _patterns(v.size)
    free = pat == 1
    n_free = free.sum(axis=1)
    keep = n_free > 0
    theta = (free[keep] @ v + (pat[keep] == 2).sum(axis=1) - cap) / n_free[keep]
    X = np.clip(v[None, :] - theta[:, None], 0.0, 1.0)
    feasible = (theta >= -1e-9) & (X.sum(axis=1) <= cap + 1e-9)
    X = X[feasible]
    dist = ((X - v[None, :]) ** 2).sum(axis=1)
    return X[np.argmin(dist)]


def nuclear_oracle(M, rho):
    """Nuclear-ball projection via plain bisection on the singular-value
    shift (independent of the production sorted-threshold rule)."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.sum() <= rho:
        return np.asarray(M, dtype=float)
    lo, hi = 0.0, float(s[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(s - mid, 0.0).sum() > rho:
            lo = mid
        else:
            hi = mid
    return (U * np.maximum(s - hi, 0.0)) @ Vt
