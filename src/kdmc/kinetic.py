"""Velocity-jump reference simulation: collision times and free flights.

The scalar stepper is the readable reference. `kinetic_ensemble` runs the
same draws on a population through `core.lockstep`: a collision moves the
particle by its flight and draws a Maxwellian velocity at the next counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    KINETIC,
    ParticleState,
    collision,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.exponential_keyed
    finite,
    lockstep,
    map_chunked,
    normal_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.normal_keyed
    sample_maxwellian,
    stream_inputs,
    stream_keys,
)

__all__ = [
    "KineticStepRecord",
    "KineticEnsemble",
    "sample_collision_time",
    "simulate_kinetic",
    "kinetic_ensemble",
]


@dataclass(frozen=True)
class KineticStepRecord:
    """Outcome of one kinetic advance, with optional flight diagnostics."""

    final_state: ParticleState
    collisions_executed: int
    flight_segments: list | None = None


def sample_collision_time(params, rng):
    """Sample a free-flight duration: (eps**2 / sigma) * E with E ~ Exp(1)."""
    return rng.exponential() * (params.eps * params.eps / params.sigma)


def simulate_kinetic(state, t_end, params, rng, record_segments=False):
    """Advance one particle kinetically to t_end; free flight between
    collisions, Maxwellian velocity resampling at each collision.

    Pure function of (state, draws); the loop guard works on the remaining
    time t_end - t so the clock never drifts. Segments are (duration,
    velocity during the flight).
    """
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} precedes current time {state.t}")
    x, v = state.x, state.v
    remaining = t_end - state.t
    collisions = 0
    segments = [] if record_segments else None
    while remaining > 0.0:
        dtau = min(sample_collision_time(params, rng), remaining)
        x = x + (v / params.eps) * dtau
        if record_segments:
            segments.append((dtau, v))
        if dtau < remaining:
            v = sample_maxwellian(params, rng)
            collisions += 1
        remaining = remaining - dtau
    return KineticStepRecord(ParticleState(x, v, t_end), collisions, segments)


@dataclass(frozen=True)
class KineticEnsemble:
    """Vectorized single-advance results for n particles.

    loop_seconds is the summed wall time of the stepping loops alone
    (setup, allocation, and summary excluded)."""

    x: np.ndarray
    v: np.ndarray
    collisions: np.ndarray
    first_overlap: np.ndarray
    last_overlap: np.ndarray
    loop_seconds: float = 0.0

    @property
    def total_collisions(self):
        return int(self.collisions.sum())


def _kinetic_chunk(params, x0, v0, duration, seed, streams, ctr0, out):
    n = x0.shape[0]
    # out: this chunk's slices of the ensemble's x, v, collisions, first and
    # last overlap; lockstep writes x, the rest start at the results of a
    # particle without collisions
    out_x, out_v, out_coll, out_first, out_last = out
    out_v[:] = v0
    out_coll[:] = 0
    out_first[:] = duration
    out_last[:] = duration
    live = {
        "keys": stream_keys(seed, streams),
        "ctr": ctr0,
        "rem": np.full(n, float(duration)),
        "x": x0,
        "v": v0,
    }

    def finish(fin, slots, rnd, tail):
        out_v[slots] = live["v"][fin]
        out_coll[slots] = rnd
        out_first[slots] = live["first"][fin]
        out_last[slots] = tail

    def collide(dtau):
        if "first" not in live:
            live["first"] = dtau.copy()  # the round-0 flight
        collision(KINETIC, live, dtau, params)

    return lockstep(live, params, out_x, collide, finish)


def kinetic_ensemble(
    params,
    x0,
    v0,
    duration,
    seed,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=1 << 16,
):
    """Advance n particles over one interval of length `duration`.

    Particle i draws from stream stream_lo + i starting at counter ctr0[i];
    identical inputs give bit-identical output at any thread count.
    Tracks per-particle collision counts plus the first and last flight
    overlaps with the interval (both equal to `duration` when no collision
    occurs).
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    x0 = finite("x0", x0)
    v0 = finite("v0", v0)
    n = x0.shape[0]
    if v0.shape[0] != n:
        raise ValueError("x0 and v0 must have equal length")
    streams, ctr0 = stream_inputs(n, stream_lo, ctr0)
    out = (np.empty(n), np.empty(n), np.empty(n, dtype=np.int64), np.empty(n), np.empty(n))

    def run(lo, hi):
        return _kinetic_chunk(params, x0[lo:hi], v0[lo:hi], duration, seed, streams[lo:hi],
                              ctr0[lo:hi], [a[lo:hi] for a in out])

    loop_t = map_chunked(run, n, threads=threads, chunk=chunk)
    return KineticEnsemble(*out, sum(loop_t))
