"""Brute-force sampler of the positional increment conditioned on the
final velocity.

Collision times are generated normally and intermediate velocities are
fresh Maxwellian draws; only the segment that reaches the end of the step
flies at the pinned value (when no collision occurs, the whole step does).
Because the final velocity is independent of all other randomness in the
jump process, substituting its value samples the conditioned law exactly.
The paths run through `core.lockstep`; a collision moves a path by its
flight at a fresh Maxwellian velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ORACLE,
    collision,
    ensemble_io,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.oracles.exponential_keyed
    lockstep,
    map_chunked,
    normal_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.oracles.normal_keyed
    stream_keys,  # noqa: F401 - the benchmark tracer wraps kdmc.oracles.stream_keys
)

__all__ = ["OracleMoments", "conditioned_increment_ensemble", "sample_moments"]


@dataclass(frozen=True)
class OracleMoments:
    """Sample moments of the conditioned increment with standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n: int


def _conditioned_chunk(params, seed, durations, v_final, x0, stream_lo, ctr0, out):
    # a path's live "v" is its pinned final velocity, which collisions leave
    # alone; lockstep writes the increments into out[0], this chunk's slice
    live = {"ctr": ctr0, "rem": durations, "x": x0, "v": v_final}
    lockstep(live, params, seed, stream_lo, out[0],
             lambda dtau: collision(ORACLE, live, dtau, params))


def conditioned_increment_ensemble(
    params,
    durations,
    v_final,
    n=None,
    seed=0,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=1 << 16,
):
    """Sample n conditioned positional increments; returns displacements.

    `durations` and `v_final` may be scalars or per-path arrays (per-path
    step lengths are needed when conditioning on the remaining time).
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.ndim == 0 and n is None:
        raise ValueError("scalar duration requires an explicit path count n")
    if (durations < 0).any():
        raise ValueError("durations must be finite and nonnegative")
    n = durations.shape[0] if durations.ndim else n
    (dx,), views = ensemble_io(n, stream_lo, ctr0, None, (np.float64,), durations=durations,
                               v_final=v_final, x0=0.0)

    def run(lo, hi):
        _conditioned_chunk(params, seed, *views(lo, hi))

    map_chunked(run, n, threads=threads, chunk=chunk)
    return dx


def sample_moments(samples):
    """Mean/variance (unbiased) of samples plus asymptotic standard errors."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    centered = x - mean
    m4 = float(np.mean(centered**4))
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    return OracleMoments(mean, var, se_mean, se_var, n)

