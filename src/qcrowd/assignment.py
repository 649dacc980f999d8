"""Rating collection: random rater-item assignment with heavy row/column
pruning, rating realization, and the requester's two independent passes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import ExperimentConfig, ObservedRatings, RequesterRatings
from .world import WorldModel, adversary_fill


@dataclass(frozen=True)
class AssignmentPlan:
    """Set of (rater, item) pairs to be rated, as a binary mask.

    The degrees are mask.sum(axis=1) per rater and mask.sum(axis=0) per
    item; after pruning, every one is at most 2k.
    """

    mask: np.ndarray
    pruned_rows: int
    pruned_cols: int


def _prune_axis(mask: np.ndarray, cap: int, axis: int,
                rng: np.random.Generator) -> int:
    """Remove uniformly random excess cells from rows (axis=0 prunes rows)
    or columns whose degree exceeds cap; returns how many were pruned."""
    work = mask if axis == 0 else mask.T
    degrees = work.sum(axis=1)
    heavy = np.flatnonzero(degrees > cap)
    for i in heavy:
        cells = np.flatnonzero(work[i])
        drop = rng.choice(cells, size=cells.size - cap, replace=False)
        work[i, drop] = 0
    return heavy.size


def draw_assignment(cfg: ExperimentConfig, rng: np.random.Generator) -> AssignmentPlan:
    """Include each (rater, item) pair independently with probability k/m,
    then prune rows with more than 2k ratings down to exactly 2k (uniformly
    random excess cells removed), then columns likewise. Rows first, index
    order within each pass."""
    p = cfg.k / cfg.m
    mask = (rng.random((cfg.n, cfg.m)) < p).astype(np.int8)
    pruned_rows = _prune_axis(mask, 2 * cfg.k, 0, rng)
    pruned_cols = _prune_axis(mask, 2 * cfg.k, 1, rng)
    return AssignmentPlan(mask=mask, pruned_rows=pruned_rows,
                          pruned_cols=pruned_cols)


def draw_self_ratings(cfg: ExperimentConfig,
                      rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Two item masks for the requester, each including item j independently
    with probability k0/m; the two draws come from spawned child streams so
    they share no state."""
    p = cfg.k0 / cfg.m
    child_a, child_b = rng.spawn(2)
    mask_a = (child_a.random(cfg.m) < p).astype(np.int8)
    mask_b = (child_b.random(cfg.m) < p).astype(np.int8)
    return mask_a, mask_b


def realize_observations(plan: AssignmentPlan, world: WorldModel,
                         rng: np.random.Generator) -> ObservedRatings:
    """Realize the observed rating matrix for a plan.

    Reliable raters' cells are independent draws with mean a_star (Bernoulli
    by default, exact in noiseless mode) and are generated first; adversarial
    raters then see the realized reliable rows and the full plan before
    emitting their values. Unrated cells are 0.
    """
    n, m = plan.mask.shape
    reliable = world.reliable_set
    values = np.zeros((n, m))
    values[reliable] = world.draw(world.a_star, rng) * plan.mask[reliable]

    adv_rows = np.setdiff1d(np.arange(n), reliable)
    values[adv_rows] = adversary_fill(world.adversary, plan, values[reliable],
                                      adv_rows, world.ground_truth, rng)
    return ObservedRatings(values=values, mask=plan.mask)


def realize_requester(world: WorldModel, masks: Tuple[np.ndarray, np.ndarray],
                      rng: np.random.Generator) -> RequesterRatings:
    """Requester's noisy ratings on the two self-rating masks.

    Generated after all rater values so the vectors are independent of the
    adversaries; each rated item is an independent draw with mean r_star[j].
    """
    r_star = world.ground_truth.r_star
    mask_a, mask_b = masks
    r_tilde = world.draw(r_star, rng) * mask_a
    r_tilde_prime = world.draw(r_star, rng) * mask_b
    return RequesterRatings(r_tilde=r_tilde, mask=mask_a,
                            r_tilde_prime=r_tilde_prime, mask_prime=mask_b)
