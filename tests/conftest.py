import random

import pytest

from conesphere.verify import sample_domain_point, sample_geometric


@pytest.fixture
def rng():
    return random.Random(20409)


@pytest.fixture
def geometric_points(rng):
    def make(count, kappa_low=-1.99, kappa_high=4.0):
        return [sample_geometric(rng, kappa_low, kappa_high) for _ in range(count)]
    return make


@pytest.fixture
def domain_points(rng):
    def make(count):
        return [sample_domain_point(rng) for _ in range(count)]
    return make


@pytest.fixture(scope="session")
def volume_closed_form():
    """Quarter of the four-holed-sphere volume polynomial at level kappa, at 40 digits.

    Evaluated from the exact binary value of kappa, so both ends of the range
    (kappa -> -2 and the largest float) are as reliable as the middle.
    """
    mpmath = pytest.importorskip("mpmath")

    def closed_form(kappa: float) -> float:
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            if k <= 2:
                theta = 2 * mpmath.acos(k / 2)
                return float((4 * mpmath.pi ** 2 - theta ** 2) / 8)
            length = 2 * mpmath.acosh(k / 2)
            return float((4 * mpmath.pi ** 2 + length ** 2) / 8)
    return closed_form
