import numpy as np
import pytest


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
