"""Shared domain types, parameter validation, and seeded random-stream plumbing."""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .world import AdversaryStrategy

# Feasibility slack that the tests and the benchmark's output check hold a
# solve's residuals to; the solve itself returns exact zero residuals and
# uses neither.
TOL_FEAS = 1e-6  # absolute, box and row-sum constraints
TOL_NUC = 1e-4   # relative, nuclear-norm bound


class ConfigError(ValueError):
    """Raised when an experiment configuration violates a constraint."""


def round_half_up(x: float) -> int:
    """Round to the nearest integer, with .5 going up."""
    return int(math.floor(x + 0.5))


def derive_rng(seed: int, stream_label: str) -> np.random.Generator:
    """Deterministic child generator for (seed, label).

    The same pair always yields the same stream; distinct labels (or seeds)
    yield streams with no shared state. The label is folded in through a
    SHA-256 digest so stream separation does not depend on label length.
    """
    digest = hashlib.sha256(stream_label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 8], "little") for i in range(0, 32, 8)]
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, *words]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# annotation -> type of a settable scalar field; annotations stay strings
# (postponed evaluation), so reading them resolves no type hint
_SCALAR_TYPES = {"int": int, "float": float, "Optional[float]": float}


def _is_number(x, kind=numbers.Real) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def scalar_fields(cls) -> dict:
    """{name: int or float} for the init fields of dataclass cls annotated
    int, float or Optional[float], in field order."""
    return {f.name: _SCALAR_TYPES[f.type] for f in fields(cls)
            if f.init and f.type in _SCALAR_TYPES}


def check_scalar_fields(obj) -> None:
    """Raise ConfigError naming the first scalar field of dataclass obj (see
    scalar_fields) that does not hold a non-bool integer (int fields) or a
    non-bool real (float fields)."""
    for name, kind in scalar_fields(type(obj)).items():
        value = getattr(obj, name)
        if kind is int and not _is_number(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer")
        if not _is_number(value):
            raise ConfigError(f"{name} must be a real number")


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the ADMM solve.

    eta0 is the constant step, 1/penalty (None = ||L||_F / ||A||_F, derived
    by solver.solve_recover_M from the ratings A and its face point L).
    """

    max_iters: int = 2000
    eta0: Optional[float] = None

    def __post_init__(self):
        if not _is_number(self.max_iters, numbers.Integral):
            raise ConfigError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        if self.eta0 is not None and not _is_number(self.eta0):
            raise ConfigError("eta0 must be None or a real number")
        if self.eta0 is not None and not 0.0 < self.eta0 < math.inf:
            raise ConfigError("eta0 must be positive and finite")


@dataclass(frozen=True)
class ExperimentConfig:
    """All inputs that decide a trial, validated on construction.

    n raters rate m items (m >= n). A fraction alpha of raters is reliable,
    the target is the set of the beta-fraction best items, epsilon is the
    target accuracy and delta the allowed failure probability. k and k0 are
    the per-rater and requester rating budgets; L bounds how steeply
    reliable raters' expected ratings may flatten the true ranking.
    rho_scale multiplies the nuclear-norm bound. noise ("bernoulli" or
    "noiseless") and truth (the r_star distribution; None derives it from
    the adversary) are checked where a trial uses them, by WorldModel and
    generate_ground_truth. alpha < 1 needs an adversary.

    Construction (and dataclasses.replace) raises ConfigError naming the
    first violated constraint. alpha_n and beta_m are the round-half-up
    integer counts used everywhere; rho is the nuclear-norm bound
    2/(alpha*epsilon) * sqrt(alpha*beta*n*m) * rho_scale, and round_cap the
    acceptance loop's draw cap ceil(4 ln(1/delta) / (epsilon*beta)). Both
    must come out positive and finite.
    """

    n: int
    m: int
    alpha: float
    beta: float
    epsilon: float
    delta: float
    k: int
    k0: int
    L: float = 1.0
    seed: int = 0
    rho_scale: float = 1.0
    noise: str = "bernoulli"
    truth: Optional[Union[str, tuple]] = None
    adversary: Optional["AdversaryStrategy"] = None
    solver: SolverSettings = SolverSettings()
    alpha_n: int = field(init=False)
    beta_m: int = field(init=False)
    rho: float = field(init=False)
    round_cap: int = field(init=False)

    def __post_init__(self):
        from . import world  # imported here: world imports core
        check_scalar_fields(self)
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.m < 1:
            raise ConfigError("m must be a positive integer")
        if self.m < self.n:
            raise ConfigError("m must be at least n")
        if int(self.n) * int(self.m) > np.iinfo(np.intp).max:
            raise ConfigError("n * m is too large for a rating matrix")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError("beta must lie in (0, 1]")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in (0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.k > self.m:
            raise ConfigError("k must be at most m")
        if self.k0 < 1:
            raise ConfigError("k0 must be a positive integer")
        if self.k0 > self.m:
            raise ConfigError("k0 must be at most m")
        if not 1.0 <= self.L < math.inf:
            raise ConfigError("L must be finite and at least 1")
        if not 0.0 < self.rho_scale < math.inf:
            raise ConfigError("rho scale must be positive and finite")

        alpha_n = round_half_up(self.alpha * self.n)
        beta_m = round_half_up(self.beta * self.m)
        if alpha_n < 1:
            raise ConfigError("round(alpha * n) must be at least 1")
        if beta_m < 1:
            raise ConfigError("round(beta * m) must be at least 1")
        if not isinstance(self.adversary, (type(None), *world.STRATEGIES)):
            raise ConfigError("adversary must be None or a world.STRATEGIES instance")
        if alpha_n < self.n and self.adversary is None:
            raise ConfigError("an adversary strategy is required when alpha < 1")
        if alpha_n < self.n and isinstance(self.adversary, world.DenseHalfPositive):
            world.dense_half_blocks(self.adversary, self.n, self.n - alpha_n,
                                    alpha_n, beta_m, self.m)
        if not isinstance(self.solver, SolverSettings):
            raise ConfigError("solver must be a SolverSettings")
        try:
            rho = (2.0 / (self.alpha * self.epsilon)) * math.sqrt(
                self.alpha * self.beta * self.n * self.m
            ) * self.rho_scale
            round_cap = 4.0 * math.log(1.0 / self.delta) / (self.epsilon * self.beta)
        except ZeroDivisionError:  # a tiny epsilon's product underflowed to 0
            rho = round_cap = math.inf
        if not 0.0 < rho < math.inf:
            raise ConfigError("nuclear-norm bound 2/(alpha*epsilon) * sqrt("
                              "alpha*beta*n*m) * rho_scale must be finite")
        if not 0.0 < round_cap < math.inf:
            raise ConfigError("rounding cap 4 ln(1/delta) / (epsilon*beta) "
                              "must be finite")
        # derived values come from the values as given, then every scalar
        # field is normalized to a builtin int or float; results.csv bytes
        # rely on both
        for name, kind in CONFIG_KEYS.items():
            object.__setattr__(self, name, kind(getattr(self, name)))
        object.__setattr__(self, "alpha_n", alpha_n)
        object.__setattr__(self, "beta_m", beta_m)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "round_cap", math.ceil(round_cap))


# The config-text schema. Each scalar field of ExperimentConfig is a key of
# its own name and each of SolverSettings a key under "solver."; the fields
# without a default are required. noise, truth, adversary and solver are not
# scalar fields, so none of them is such a key.
CONFIG_KEYS = scalar_fields(ExperimentConfig)
SOLVER_KEYS = scalar_fields(SolverSettings)
REQUIRED_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                      if f.init and f.default is MISSING
                      and f.default_factory is MISSING)


def top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the count largest entries, ties broken toward smaller index."""
    order = np.argsort(-np.asarray(values, dtype=float), kind="stable")
    return order[:count]


@dataclass(frozen=True)
class GroundTruth:
    """True rating vector r_star in [0,1]^m and its binary top-set indicator."""

    r_star: np.ndarray
    t_star: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_star, dtype=float)
        t = np.asarray(self.t_star)
        if r.ndim != 1 or t.shape != r.shape:
            raise ValueError("r_star and t_star must be vectors of equal length")
        if not ((r >= 0.0) & (r <= 1.0)).all():
            raise ValueError("r_star entries must lie in [0, 1]")
        if not ((t == 0) | (t == 1)).all():
            raise ValueError("t_star must be binary")
        object.__setattr__(self, "r_star", r)
        object.__setattr__(self, "t_star", t.astype(np.int8))

    @classmethod
    def from_ratings(cls, r_star: np.ndarray, beta_m: int) -> "GroundTruth":
        """Build the indicator of the beta_m largest entries of r_star."""
        r_star = np.asarray(r_star, dtype=float)
        t = np.zeros(r_star.shape[0], dtype=np.int8)
        t[top_indices(r_star, beta_m)] = 1
        return cls(r_star=r_star, t_star=t)

    @property
    def m(self) -> int:
        return self.r_star.shape[0]


@dataclass(frozen=True)
class ObservedRatings:
    """Observed rater-by-item matrix with its observation mask.

    Unrated cells hold 0; after pruning every row and column of the mask
    has at most 2k ones.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        mk = np.asarray(self.mask)
        if v.shape != mk.shape or v.ndim != 2:
            raise ValueError("values and mask must be matrices of equal shape")
        unrated = mk == 0
        if not (unrated | (mk == 1)).all():
            raise ValueError("mask must be binary")
        if not ((v >= 0.0) & (v <= 1.0)).all():
            raise ValueError("values must lie in [0, 1]")
        if (unrated & (v != 0.0)).any():
            raise ValueError("values must be 0 on unrated cells")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", mk.astype(np.int8))


@dataclass(frozen=True)
class RequesterRatings:
    """The requester's two independent noisy rating passes over the items."""

    r_tilde: np.ndarray
    mask: np.ndarray
    r_tilde_prime: np.ndarray
    mask_prime: np.ndarray

    def __post_init__(self):
        for vec, mk in ((self.r_tilde, self.mask),
                        (self.r_tilde_prime, self.mask_prime)):
            vec = np.asarray(vec, dtype=float)
            mk = np.asarray(mk)
            if vec.shape != mk.shape or vec.ndim != 1:
                raise ValueError("rating vector and mask must be equal-length vectors")
            if np.any(vec[mk == 0] != 0.0):
                raise ValueError("ratings must be 0 outside the mask")
            if not ((vec >= 0.0) & (vec <= 1.0)).all():
                raise ValueError("ratings must lie in [0, 1]")


@dataclass(frozen=True)
class QuantileMatrix:
    """Recovered per-rater quantile-indicator matrix (feasible up to tolerances)."""

    M: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.ndim != 2:
            raise ValueError("M must be a matrix")
        object.__setattr__(self, "M", M)


def _frobenius_certifies(M: np.ndarray, bound: float) -> bool:
    """True when sqrt(min(n, m)) * ||M||_F <= bound, which implies
    ||M||_* <= bound. A Frobenius norm at or below 1e-150 certifies only the
    zero matrix, since the squares of entries that small underflow. When the
    sum of squares overflows (entries above about 1e154), the norm is taken
    of M / 2**e (see _scaled) and compared with bound / 2**e. A NaN or
    infinite entry certifies no finite bound."""
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(M))
    if fro == math.inf and np.isfinite(M).all():
        Y, e = _scaled(M)
        return math.sqrt(min(M.shape)) * float(np.linalg.norm(Y)) <= math.ldexp(bound, -e)
    return (math.sqrt(min(M.shape)) * fro <= bound
            and (fro > 1e-150 or not M.any()))


def nuclear_excess(M: np.ndarray, rho: float) -> float:
    """max((||M||_* - rho) / rho, 0), which is 0 exactly when ||M||_* <= rho;
    0 without an SVD when the Frobenius certificate holds."""
    if _frobenius_certifies(M, rho):
        return 0.0
    return max((float(np.linalg.svd(M, compute_uv=False).sum()) - rho) / rho, 0.0)


def _scaled(M: np.ndarray):
    """(Y, e): Y = M / 2**e for the power of two just above max|M| (e = 0
    when M is empty or zero), so Y's Gram matrix neither overflows nor
    underflows. Exact unless an entry of Y is subnormal, even when 2**e is
    past the largest float. Raises ValueError for a NaN or infinite entry."""
    c = float(np.abs(M).max(initial=0.0))
    if not math.isfinite(c):
        raise ValueError("matrix has a NaN or infinite entry")
    e = math.frexp(c)[1]
    return np.ldexp(M, -e), e


def operator_norm(M: np.ndarray) -> float:
    """Largest singular value of M; 0.0 for an empty or all-zero matrix.

    sigma_1 is 2**e times the square root of the largest eigenvalue of the
    smaller Gram matrix of Y = M / 2**e (_scaled): Y @ Y.T when M has
    no more rows than columns, else Y.T @ Y. That eigenvalue is well
    conditioned, so this agrees with the SVD's sigma_1 to rounding.

    Raises ValueError unless M is two-dimensional with finite entries.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"operator norm needs a 2-D matrix, got ndim {M.ndim}")
    Y, e = _scaled(M)
    if not Y.any():
        return 0.0
    G = Y @ Y.T if M.shape[0] <= M.shape[1] else Y.T @ Y
    with np.errstate(over="ignore"):  # sigma_1 may exceed the largest float
        return float(np.ldexp(math.sqrt(float(np.linalg.eigvalsh(G)[-1])), e))


def feasibility_residuals(M: np.ndarray, beta_m: int, rho: float) -> dict:
    """Constraint residuals of M: box (absolute), row-sum (absolute),
    nuclear norm (nuclear_excess, relative to rho). All are 0 for a
    feasible matrix, and all are inf when M has a NaN or infinite entry."""
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        return {"box": math.inf, "row": math.inf, "nuc": math.inf}
    box = max(0.0, float(np.max(-M, initial=0.0)), float(np.max(M - 1.0, initial=0.0)))
    row = max(0.0, float(np.max(M.sum(axis=1) - beta_m, initial=0.0)))
    return {"box": box, "row": row, "nuc": nuclear_excess(M, rho)}


@dataclass(frozen=True)
class SelectionSet:
    """Binary item indicator returned by the recovery pipeline."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t)
        if t.ndim != 1 or not ((t == 0) | (t == 1)).all():
            raise ValueError("selection must be a binary vector")
        object.__setattr__(self, "t", t.astype(np.int8))

    @property
    def size(self) -> int:
        return int(self.t.sum())
