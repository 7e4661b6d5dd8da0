import numpy as np
import pytest
from hypothesis import settings

# every property test draws the same examples on every run, so a tier-1
# result depends on the code only
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


def disk_points(rng, n, rmax=0.45):
    """n points uniformly over the disk of radius rmax (area measure)."""
    r = rmax * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * th)
