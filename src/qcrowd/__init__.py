"""Adversarially robust crowdsourced quantile recovery.

Simulates reliable and adversarial raters, recovers per-rater quantile
indicator matrices by nuclear-norm-constrained convex optimization, extracts
the requester's top item set via scoring and randomized rounding, and
verifies the pipeline's probabilistic behavior empirically.
"""

from .core import (
    ConfigError,
    ExperimentConfig,
    GroundTruth,
    ObservedRatings,
    QuantileMatrix,
    RequesterRatings,
    SelectionSet,
    SolverSettings,
    TOL_FEAS,
    TOL_NUC,
    derive_rng,
    feasibility_residuals,
)
from .assignment import (
    AssignmentPlan,
    draw_assignment,
    draw_self_ratings,
    realize_observations,
    realize_requester,
)
from .world import (
    AdversaryStrategy,
    AntiCorrelated,
    DenseHalfPositive,
    MirroredCopy,
    RandomSpam,
    SymmetricBlocks,
    WorldModel,
    affine_monotone_profile,
    build_world,
    generate_ground_truth,
)
from .solver import (
    SolveReport,
    greedy_row_oracle,
    project_capped_box_simplex,
    project_nuclear_ball,
    solve_recover_M,
)
from .quantile import (
    RoundingTrace,
    accept_loop,
    average_rows,
    randomized_round,
    recover_quantile,
    round_offsets,
    score_rows,
    select_top_rows,
)
from .analysis import (
    TrialResult,
    chernoff_budget,
    denoised_matrix,
    deviations,
    max_set_deviation,
    monotone_transfer_gaps,
    operator_norm,
    quality_gap,
    run_trial,
)

__version__ = "0.1.0"
