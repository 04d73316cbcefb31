"""Brute-force sampler of the positional increment conditioned on the
final velocity.

Collision times are generated normally and intermediate velocities are
fresh Maxwellian draws; only the segment that reaches the end of the step
flies at the pinned value (when no collision occurs, the whole step does).
Because the final velocity is independent of all other randomness in the
jump process, substituting its value samples the conditioned law exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import exponential_keyed, finish_slots, map_chunked, normal_keyed, stream_keys

__all__ = ["OracleMoments", "conditioned_increment_ensemble", "oracle_conditioned_increment"]


@dataclass(frozen=True)
class OracleMoments:
    """Sample moments of the conditioned increment with standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n: int


def _conditioned_chunk(params, durations, v_final, seed, streams, ctr0):
    n = durations.shape[0]
    rate_scale = params.eps * params.eps / params.sigma
    vel_mean = params.eps * params.u
    vel_sd = math.sqrt(params.temperature)

    # live paths only; gathered down in rounds where some finish
    x = np.zeros(n)
    rem = durations.copy()
    vf = v_final
    ctr = ctr0.copy()
    keys = stream_keys(seed, streams)
    idx = None  # output slot of each live particle; None while all are live
    out = np.empty(n)

    while True:
        dtau = exponential_keyed(keys, ctr)
        dtau *= rate_scale
        ctr += np.uint64(1)
        done = dtau >= rem
        if done.any():
            fin, d = finish_slots(done, idx)
            out[d] = x[fin] + (vf[fin] / params.eps) * rem[fin]
            live = ~done
            if not live.any():
                break
            idx = np.flatnonzero(live) if idx is None else idx[live]
            keys = keys[live]
            x = x[live]
            vf = vf[live]
            rem = rem[live]
            ctr = ctr[live]
            dtau = dtau[live]
        w = normal_keyed(keys, ctr)
        w *= vel_sd
        w += vel_mean
        ctr += np.uint64(1)
        w /= params.eps
        w *= dtau
        x += w
        rem -= dtau
    return (out,)


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
    v_final = np.asarray(v_final, dtype=np.float64)
    if durations.ndim == 0:
        if n is None:
            raise ValueError("scalar duration requires an explicit path count n")
        durations = np.full(n, float(durations))
    n = durations.shape[0]
    if v_final.ndim == 0:
        v_final = np.full(n, float(v_final))
    if v_final.shape[0] != n:
        raise ValueError("durations and v_final must have equal length")
    if np.any(durations < 0):
        raise ValueError("durations must be nonnegative")
    if ctr0 is None:
        ctr0 = np.zeros(n, dtype=np.uint64)
    else:
        ctr0 = np.asarray(ctr0, dtype=np.uint64)
        if ctr0.shape == ():
            ctr0 = np.full(n, ctr0, dtype=np.uint64)
    streams_all = np.arange(stream_lo, stream_lo + n, dtype=np.uint64)

    def run(lo, hi):
        return _conditioned_chunk(
            params, durations[lo:hi], v_final[lo:hi], seed, streams_all[lo:hi], ctr0[lo:hi]
        )

    (dx,) = map_chunked(run, n, threads=threads, chunk=chunk)
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


def oracle_conditioned_increment(
    params, dt, v_final, n, seed, stream_lo=0, threads=1, chunk=1 << 16
):
    """Monte Carlo mean/variance of the increment conditioned on v_final."""
    if n < 10_000:
        raise ValueError(f"oracle needs n >= 10000 paths, got {n}")
    dx = conditioned_increment_ensemble(
        params, dt, v_final, n=n, seed=seed, stream_lo=stream_lo, threads=threads, chunk=chunk
    )
    return sample_moments(dx)
