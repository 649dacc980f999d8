"""Quantile extraction: score the recovered matrix's rows against the
requester's first rating pass, average the best rows, and round the average
into a binary selection with an acceptance loop against the second pass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ExperimentConfig, SelectionSet, top_indices


@dataclass(frozen=True)
class RoundingTrace:
    """Record of one acceptance loop run."""

    selection: SelectionSet
    iterations: int
    inner_products: Tuple[float, ...]
    early_accept: bool
    accepted: bool
    iteration_cap: int


def round_offsets(T0: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Systematic-sampling selections for explicit offsets in [0, 1).

    Item j is selected for offset u when the prefix-sum interval
    [s_{j-1}, s_j) contains u + t for some non-negative integer t; since
    every interval has length at most 1 no index is picked twice. Returns
    a boolean matrix of shape (len(offsets), m).
    """
    T0 = np.asarray(T0, dtype=float)
    if not ((T0 >= 0.0) & (T0 <= 1.0)).all():
        raise ValueError("entries to round must lie in [0, 1]")
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    s = np.concatenate([[0.0], np.cumsum(T0)])
    # integers in [a, b) number ceil(b) - ceil(a)
    hits = np.ceil(s[None, 1:] - offsets[:, None]) - np.ceil(
        s[None, :-1] - offsets[:, None])
    return hits >= 1.0


def randomized_round(T0: np.ndarray, rng: np.random.Generator) -> SelectionSet:
    """Round a fractional vector to a binary one with E[T] = T0 and
    ||T||_0 <= ceil(sum T0), using one uniform offset."""
    picked = round_offsets(T0, np.array([rng.random()]))[0]
    return SelectionSet(picked.astype(np.int8))


def accept_loop(T0: np.ndarray, r_tilde_prime: np.ndarray,
                cfg: ExperimentConfig, rng: np.random.Generator) -> RoundingTrace:
    """Round repeatedly until the candidate's inner product with the second
    rating pass clears <T0, r_tilde_prime> - (epsilon/4) * beta * k0.

    When <T0, r_tilde_prime> is below the slack itself, the first draw is
    accepted unconditionally. The loop is capped at cfg.round_cap =
    ceil(4 ln(1/delta) / (epsilon * beta)) iterations; on cap expiry the
    best-seen draw is returned, flagged as not accepted.
    """
    T0 = np.asarray(T0, dtype=float)
    r_prime = np.asarray(r_tilde_prime, dtype=float)
    base = float(T0 @ r_prime)
    slack = (cfg.epsilon / 4.0) * cfg.beta * cfg.k0
    cap = cfg.round_cap
    early = base < slack

    best_val = -math.inf
    best_sel = None
    inner = []
    for it in range(1, cap + 1):
        sel = randomized_round(T0, rng)
        val = float(sel.t @ r_prime)
        inner.append(val)
        if val > best_val:
            best_val, best_sel = val, sel
        if early or val >= base - slack:
            return RoundingTrace(selection=sel, iterations=it,
                                 inner_products=tuple(inner),
                                 early_accept=early, accepted=True,
                                 iteration_cap=cap)
    return RoundingTrace(selection=best_sel, iterations=cap,
                         inner_products=tuple(inner), early_accept=False,
                         accepted=False, iteration_cap=cap)


def recover_quantile(M: np.ndarray, r_tilde: np.ndarray,
                     r_tilde_prime: np.ndarray, cfg: ExperimentConfig,
                     rng: np.random.Generator) -> RoundingTrace:
    """Full extraction: score each row as s = M @ r_tilde, average the
    rows top_indices(s, alpha_n) picks (ties toward the smaller index) into
    T0, and round T0 with the acceptance loop against r_tilde_prime; the
    trace's selection is the extracted set."""
    scores = M @ r_tilde
    T0 = M[top_indices(scores, cfg.alpha_n)].mean(axis=0)
    return accept_loop(T0, r_tilde_prime, cfg, rng)
