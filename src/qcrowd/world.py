"""Ground-truth generation, reliable-rater rating models, and adversary strategies.

A WorldModel fixes the true item ratings r_star, the set of reliable raters,
their expected rating matrix a_star (monotone in r_star), and the strategy
the remaining raters use to fill in their cells.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .core import (
    ConfigError, ExperimentConfig, GroundTruth, _is_number, check_scalar_fields,
    derive_rng, round_half_up)


@dataclass(frozen=True)
class RandomSpam:
    """Rates every assigned cell 1 with probability p_high, else 0."""

    p_high: float = 0.5

    def __post_init__(self):
        check_scalar_fields(self)
        if not 0.0 <= self.p_high <= 1.0:
            raise ConfigError("p_high must lie in [0, 1]")


@dataclass(frozen=True)
class AntiCorrelated:
    """Rates each assigned item j with 1 - r_star[j]."""


@dataclass(frozen=True)
class SymmetricBlocks:
    """Block attack: adversary groups each claim a different item block.

    Raters are split into groups the size of the reliable set; group b rates
    the b-th block of beta_m items (blocks taken in descending r_star order,
    cyclically) with 1 and everything else with block_low.
    """

    block_low: float = 0.8

    def __post_init__(self):
        check_scalar_fields(self)
        if not 0.0 <= self.block_low <= 1.0:
            raise ConfigError("block_low must lie in [0, 1]")


@dataclass(frozen=True)
class DenseHalfPositive:
    """Spam attack: adversary blocks each rate a shared random half of the
    items 1 and the rest 0. halves optionally pins the item sets per block."""

    block_size: int = 0  # 0 = derive 3*alpha*beta*n from the config
    halves: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        check_scalar_fields(self)
        if self.block_size < 0:
            raise ConfigError("block_size must be at least 0")
        if self.halves is not None:
            try:
                ok = all(_is_number(j, numbers.Integral)
                         for half in self.halves for j in half)
            except TypeError:  # not a sequence of sequences
                ok = False
            if not ok:
                raise ConfigError("halves must be sequences of integer item indices")


@dataclass(frozen=True)
class MirroredCopy:
    """Replays reliable raters' realized rows under a fixed column permutation."""

    perm_seed: int = 0

    def __post_init__(self):
        check_scalar_fields(self)


STRATEGIES = (RandomSpam, AntiCorrelated, SymmetricBlocks, DenseHalfPositive,
              MirroredCopy)
AdversaryStrategy = Union[STRATEGIES]


@dataclass(frozen=True)
class WorldModel:
    """Everything the simulator needs to realize ratings for one experiment."""

    ground_truth: GroundTruth
    reliable_set: np.ndarray
    a_star: np.ndarray
    adversary: Optional[AdversaryStrategy]
    noise: str = "bernoulli"  # "bernoulli" or "noiseless"

    def __post_init__(self):
        reliable = np.asarray(self.reliable_set, dtype=int)
        a = np.asarray(self.a_star, dtype=float)
        if a.shape != (reliable.size, self.ground_truth.m):
            raise ValueError("a_star must be |reliable| x m")
        if not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValueError("a_star entries must lie in [0, 1]")
        if self.noise not in ("bernoulli", "noiseless"):
            raise ValueError("noise must be 'bernoulli' or 'noiseless'")
        object.__setattr__(self, "reliable_set", reliable)
        object.__setattr__(self, "a_star", a)

    def draw(self, means: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli draws with the given means; the means when noiseless."""
        if self.noise == "noiseless":
            return means.copy()
        return (rng.random(means.shape) < means).astype(float)


def generate_ground_truth(m: int, dist, rng: np.random.Generator, *,
                          beta_m: int) -> GroundTruth:
    """Draw r_star from dist and mark its beta_m largest entries.

    dist is "uniform" (i.i.d. on [0, 1]) or ("two_level", lo, hi), which
    places beta_m items at hi (random positions) and the rest at lo.
    """
    if dist == "uniform":
        r = rng.uniform(0.0, 1.0, size=m)
    elif isinstance(dist, tuple) and dist[0] == "two_level":
        lo, hi = float(dist[1]), float(dist[2])
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0 and lo <= hi):
            raise ValueError("two_level needs 0 <= lo <= hi <= 1")
        r = np.full(m, lo)
        r[rng.choice(m, size=beta_m, replace=False)] = hi
    else:
        raise ValueError(f"unknown ground-truth distribution: {dist!r}")
    return GroundTruth.from_ratings(r, beta_m)


def affine_monotone_profile(r_star: np.ndarray, slopes: np.ndarray,
                            intercepts: np.ndarray) -> np.ndarray:
    """Expected-rating rows a[i] = intercepts[i] + slopes[i] * r_star.

    With slopes in [1/L, 1] the rows track r_star monotonically with zero
    slack. Raises ValueError for unequal lengths, a slope <= 0, or a row
    that would leave [0, 1].
    """
    r_star = np.asarray(r_star, dtype=float)
    slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
    intercepts = np.atleast_1d(np.asarray(intercepts, dtype=float))
    if slopes.shape != intercepts.shape:
        raise ValueError("slopes and intercepts must have equal length")
    if np.any(slopes <= 0.0):
        raise ValueError("slopes must be positive")
    if np.any(intercepts < 0.0) or np.any(intercepts + slopes > 1.0 + 1e-12):
        raise ValueError("profile leaves [0, 1]: need a >= 0 and a + b <= 1")
    return intercepts[:, None] + slopes[:, None] * r_star[None, :]


def random_affine_profile(r_star: np.ndarray, n_raters: int, L: float,
                          rng: np.random.Generator) -> np.ndarray:
    """Affine profile with per-rater slopes drawn in [1/L, 1]."""
    slopes = rng.uniform(1.0 / L, 1.0, size=n_raters)
    intercepts = rng.uniform(0.0, 1.0, size=n_raters) * (1.0 - slopes)
    return affine_monotone_profile(r_star, slopes, intercepts)


def monotonicity_violation(r_star: np.ndarray, a_star: np.ndarray,
                           L: float) -> float:
    """Largest slack needed for a_star to be L-monotone in r_star.

    Returns max over r_star[j] >= r_star[j'] of
    r_star[j]-r_star[j'] - L*(a[j]-a[j']) across all rows, so the rows are
    (L, eps0)-monotonic iff the result is <= eps0. The slack is g[j] - g[j']
    with g = r_star - L*a, so after one stable sort of r_star each j pairs
    with the smallest g among the items sorted at or before the last item
    tied with r_star[j]; ties therefore see each other in both directions.
    The j == j' pair keeps the result >= 0. Non-finite input gives NaN or
    +inf; an a_star with no rows gives -inf.
    """
    r = np.asarray(r_star, dtype=float)
    a = np.atleast_2d(np.asarray(a_star, dtype=float))
    if r.ndim != 1 or a.ndim != 2 or a.shape[1] != r.size:
        raise ValueError("a_star must have one column per r_star entry")
    order = np.argsort(r, kind="stable")
    r_sorted = r[order]
    g = r_sorted - L * a[:, order]
    prefix_min = np.minimum.accumulate(g, axis=1)
    last_tie = np.searchsorted(r_sorted, r_sorted, side="right") - 1
    return float(np.max(g - prefix_min[:, last_tie], initial=-np.inf))


def check_monotonicity(r_star: np.ndarray, a_star: np.ndarray, L: float,
                       tol: float = 1e-9) -> None:
    """Raise ValueError unless both are finite and a_star is (L, tol)-monotone."""
    viol = monotonicity_violation(r_star, a_star, L)
    if not viol < np.inf:  # NaN or +inf
        raise ValueError("ratings and profile must be finite")
    if viol > tol:
        raise ValueError(f"profile violates monotonicity with L = {L} by {viol:.3g}")


def _group_of(ordinal: np.ndarray, group_size: int, n_total: int) -> np.ndarray:
    """Group index per ordinal; the remainder joins the last full group."""
    n_full = max(n_total // group_size, 1)
    return np.minimum(ordinal // group_size, n_full - 1)


def adversary_fill(strategy: AdversaryStrategy, plan, reliable_values: np.ndarray,
                   adv_rows: np.ndarray, ground_truth: GroundTruth,
                   rng: np.random.Generator) -> np.ndarray:
    """Values the adversarial raters submit on their assigned cells.

    Called after all reliable ratings are realized: reliable_values holds
    the realized reliable rows (zeros where unrated), so strategies may adapt
    to them and to the full assignment plan. adv_rows are the indices of the
    raters not in the reliable set, ascending. Returns one row per rater in
    adv_rows, in that order, already zeroed outside the plan mask.
    """
    n = plan.mask.shape[0]
    m = ground_truth.m
    adv_rows = np.asarray(adv_rows, dtype=int)
    n_adv = adv_rows.size
    values = np.zeros((n_adv, m))
    if n_adv == 0:
        return values

    r_star = ground_truth.r_star
    t_star = ground_truth.t_star
    beta_m = int(t_star.sum())
    alpha_n = reliable_values.shape[0]
    ordinal = np.arange(n_adv)

    if isinstance(strategy, RandomSpam):
        values = rng.binomial(1, strategy.p_high, size=(n_adv, m)).astype(float)
    elif isinstance(strategy, AntiCorrelated):
        values = np.tile(1.0 - r_star, (n_adv, 1))
    elif isinstance(strategy, SymmetricBlocks):
        # Item blocks: consecutive beta_m-sized groups in descending r_star
        # order (block 0 is the true top set), taken cyclically.
        desc = np.argsort(-r_star, kind="stable")
        block = 1 + _group_of(ordinal, alpha_n, n_adv)
        start = (block * beta_m) % m
        values = np.full((n_adv, m), strategy.block_low)
        values[ordinal[:, None],
               desc[(start[:, None] + np.arange(beta_m)) % m]] = 1.0
    elif isinstance(strategy, DenseHalfPositive):
        size = strategy.block_size
        if size == 0:
            size = max(round_half_up(3.0 * (alpha_n / n) * (beta_m / m) * n), 1)
        block = _group_of(ordinal, size, n_adv)
        n_blocks = int(block.max()) + 1
        if strategy.halves is not None:
            if len(strategy.halves) < n_blocks:
                raise ConfigError(
                    f"need at least {n_blocks} item halves, got {len(strategy.halves)}"
                )
            halves = [np.asarray(h, dtype=int) for h in strategy.halves]
            if any(np.any((h < 0) | (h >= m)) for h in halves):
                raise ConfigError(f"item halves must index items 0 to {m - 1}")
        else:
            halves = [rng.choice(m, size=m // 2, replace=False)
                      for _ in range(n_blocks)]
        for b in range(n_blocks):
            rows = np.flatnonzero(block == b)
            values[np.ix_(rows, halves[b])] = 1.0
    elif isinstance(strategy, MirroredCopy):
        perm = derive_rng(strategy.perm_seed, "mirror-perm").permutation(m)
        src = ordinal % alpha_n
        values = reliable_values[src][:, perm]
    else:
        raise ConfigError(f"unknown adversary strategy: {strategy!r}")

    return values * plan.mask[adv_rows]


def build_world(cfg: ExperimentConfig, rng: np.random.Generator) -> WorldModel:
    """Canonical world for a config: ground truth, reliable set, profile.

    r_star follows cfg.truth; when None, the adversary picks it so the
    attack is pointed at a meaningful target: two-level (block_low, 1) under
    SymmetricBlocks, two-level (0, 1) under DenseHalfPositive, uniform
    otherwise. The reliable profile is the identity when L == 1 and a
    random-slope affine profile otherwise.
    """
    truth = cfg.truth
    if truth is None:
        if isinstance(cfg.adversary, SymmetricBlocks):
            # match the attack's block contrast so the adversary groups are
            # genuinely indistinguishable without the requester's ratings
            truth = ("two_level", cfg.adversary.block_low, 1.0)
        elif isinstance(cfg.adversary, DenseHalfPositive):
            truth = ("two_level", 0.0, 1.0)
        else:
            truth = "uniform"
    gt = generate_ground_truth(cfg.m, truth, rng, beta_m=cfg.beta_m)

    reliable = np.sort(rng.choice(cfg.n, size=cfg.alpha_n, replace=False))

    if cfg.L == 1.0:
        a_star = np.tile(gt.r_star, (cfg.alpha_n, 1))
    else:
        a_star = random_affine_profile(gt.r_star, cfg.alpha_n, cfg.L, rng)

    check_monotonicity(gt.r_star, a_star, cfg.L)
    return WorldModel(ground_truth=gt, reliable_set=reliable, a_star=a_star,
                      adversary=cfg.adversary, noise=cfg.noise)
