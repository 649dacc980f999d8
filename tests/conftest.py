import numpy as np
import pytest

from qcrowd import ExperimentConfig, RandomSpam, SolverSettings, SymmetricBlocks


def make_config(**overrides):
    """Small valid config; override any field."""
    base = dict(n=10, m=12, alpha=0.4, beta=1 / 6, epsilon=0.2, delta=0.1,
                k=6, k0=6, adversary=RandomSpam(),
                solver=SolverSettings(max_iters=300))
    base.update(overrides)
    return ExperimentConfig(**base)


def readme_config(rho_scale, max_iters):
    """The README example config (n = m = 200) at rho_scale."""
    return make_config(n=200, m=200, alpha=0.3, beta=0.2, epsilon=0.2, k=50,
                       k0=100, rho_scale=rho_scale,
                       adversary=SymmetricBlocks(block_low=0.8),
                       solver=SolverSettings(max_iters=max_iters))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
