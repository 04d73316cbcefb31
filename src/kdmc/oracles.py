"""Brute-force sampler of the positional increment conditioned on the
final velocity.

Collision times are generated normally and intermediate velocities are
fresh Maxwellian draws; only the segment that reaches the end of the step
flies at the pinned value (when no collision occurs, the whole step does).
Because the final velocity is independent of all other randomness in the
jump process, substituting its value samples the conditioned law exactly.
All paths take one step of the same length through `core.lockstep`, which
writes the increments and runs the oracle collision: it moves a path by
its flight at a fresh Maxwellian velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    CHUNK,
    ORACLE,
    _seed,
    _time_left,
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


def conditioned_increment_ensemble(
    params,
    duration,
    v_final,
    n,
    seed,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=CHUNK,
):
    """Sample n conditioned positional increments over one step of length
    `duration`, finite and >= 0; returns displacements.

    `v_final` is one value for all paths or one per path. Path i draws from
    stream stream_lo + i starting at counter ctr0, as in kinetic_ensemble.
    """
    rem = _time_left("duration", duration)
    # a path's v is its pinned final velocity, which collisions leave alone
    (dx,), run = ensemble_io(n, stream_lo, ctr0, None, (np.float64,),
                             partial(lockstep, ORACLE, params, _seed(seed), rem),
                             {"v": "v_final"}, v=v_final, x=0.0)
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

