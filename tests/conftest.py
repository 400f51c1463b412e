import numpy as np
import pytest

from ccr_reduce import FieldVector, GaussianPacket, QuadratureConfig


def random_packet(rng, center_range=2.5, width_range=(0.5, 1.2)):
    center = rng.uniform(-center_range, center_range, size=3)
    width = rng.uniform(*width_range, size=3)
    coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return GaussianPacket(center, width, coeff)


def random_field(rng, mass=0.0, n_terms=1, **kw):
    return FieldVector(mass, tuple(random_packet(rng, **kw) for _ in range(n_terms)))


def s0_field(center, width, coeff):
    """Antisymmetrized packet pair: a(0, k_y, 0) vanishes identically."""
    c = np.asarray(center, float)
    p = GaussianPacket(c, width, coeff)
    m = GaussianPacket(c * np.array([-1.0, 1.0, 1.0]), width, -coeff)
    return FieldVector(0.0, (p, m))


def random_s0_field(rng):
    center = rng.uniform(-2.0, 2.0, size=3)
    center[0] = rng.uniform(0.6, 1.8)
    width = rng.uniform(0.6, 1.1, size=3)
    coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return s0_field(center, width, coeff)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def quad():
    return QuadratureConfig()


@pytest.fixture
def quad_bhp():
    return QuadratureConfig(n_max=6)
