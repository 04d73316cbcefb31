import numpy as np
import pytest

from kdmc import BackgroundParams


class StubRng:
    """Duck-typed stand-in for RngStream with pinned draws."""

    def __init__(self, exponentials=(), normals=()):
        self.exponentials = list(exponentials)
        self.normals = list(normals)

    def exponential(self, size=None):
        assert size is None
        return self.exponentials.pop(0)

    def normal(self, size=None):
        assert size is None
        return self.normals.pop(0)


def same_bits(a, b):
    """Bitwise equality of two float64 or int64 arrays."""
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# populations of round_zero_inputs() whose round-0 flights all end inside
# the horizon, none do, or some do: (horizon, least and most of the 40
# particles with a collision). The flight scale eps**2 / sigma is about
# 0.28; the horizon is the duration, or n_steps * dt for KD.
ROUND_ZERO_POPULATIONS = [
    pytest.param(1e-12, 0, 0, id="all-finish"),
    pytest.param(30.0, 40, 40, id="none-finish"),
    pytest.param(0.3, 1, 39, id="some-finish"),
]


def round_zero_inputs(n=40):
    """Background, positions, velocities and per-particle start counters."""
    rng = np.random.default_rng(3)
    x0, v0 = rng.normal(size=n), rng.normal(size=n)
    return BackgroundParams(1.3, 0.7, 2.0, 0.6), x0, v0, rng.integers(0, 2**62, n, dtype=np.uint64)


@pytest.fixture
def stub_rng():
    return StubRng


def moment_check(samples, target_mean=None, target_var=None, n_se=4.0):
    """Assert sample mean/variance against targets within n_se standard
    errors (the moment estimation oracle used throughout)."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    mean = x.mean()
    var = x.var(ddof=1)
    if target_mean is not None:
        se = np.sqrt(var / n)
        assert abs(mean - target_mean) <= n_se * se, (
            f"mean {mean} vs {target_mean} ({abs(mean - target_mean) / se:.2f} SE)"
        )
    if target_var is not None:
        m4 = np.mean((x - mean) ** 4)
        se = np.sqrt(max(m4 - var * var, 1e-300) / n)
        assert abs(var - target_var) <= n_se * se, (
            f"variance {var} vs {target_var} ({abs(var - target_var) / se:.2f} SE)"
        )
