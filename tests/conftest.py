import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coupled_pendula import PhysicalParams


@pytest.fixture
def identical_params() -> PhysicalParams:
    """Identical pendula with moderate damping: mu=0.25, eta and X order 0.1."""
    return PhysicalParams(m0=2.0, m1=1.0, m2=1.0, l1=1.0, l2=1.0,
                          beta0=0.3, beta1=0.1, beta2=0.1, k=5.0)


@pytest.fixture
def asymmetric_params() -> PhysicalParams:
    return PhysicalParams(m0=1.4, m1=0.8, m2=1.1, l1=0.7, l2=1.2,
                          beta0=0.25, beta1=0.15, beta2=0.08, k=7.5)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
