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


_LEVELS = ("X86_V4", "X86_V3", "X86_V2")  # x86 feature levels, highest first


def require_dispatch(minimum):
    """Skip the test, naming the level, where numpy dispatches below the
    x86 feature level ``minimum`` in this process; else return numpy's
    extension module that tells the dispatch."""
    cpu = pytest.importorskip("numpy._core._multiarray_umath")
    level = next((lv for lv in _LEVELS if cpu.__cpu_features__.get(lv)),
                 "baseline")
    if level not in _LEVELS[:_LEVELS.index(minimum) + 1]:
        pytest.skip(f"numpy dispatches to {level}, below {minimum}")
    return cpu
