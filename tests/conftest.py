import numpy as np
import pytest

from qcrowd import ExperimentConfig, RandomSpam, SolverSettings


def make_config(**overrides):
    """Small valid config; override any field."""
    base = dict(n=10, m=12, alpha=0.4, beta=1 / 6, epsilon=0.2, delta=0.1,
                k=6, k0=6, adversary=RandomSpam(),
                solver=SolverSettings(max_iters=300))
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
