"""Velocity-jump reference simulation: collision times and free flights.

The scalar stepper is the readable reference. `kinetic_ensemble` runs the
same draws on a population through `core.lockstep`, which writes all five
records and runs the kinetic collision: it moves the particle by its flight
and draws a Maxwellian velocity at the next counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    KINETIC,
    RECORDS,
    Ensemble,
    ParticleState,
    ensemble_io,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.exponential_keyed
    lockstep,
    map_chunked,
    normal_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.normal_keyed
    sample_maxwellian,
    stream_keys,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.stream_keys
)

__all__ = [
    "KineticStepRecord",
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
    out=None,
):
    """Advance n particles over one interval of length `duration`; returns
    a `core.Ensemble` of all five records.

    Particle i draws from stream stream_lo + i starting at counter ctr0[i];
    identical inputs give bit-identical output at any thread count. out, if
    given, holds arrays for the records x, v, collisions (int64),
    first_overlap and last_overlap, in that order, written in place and
    sharing no memory with the inputs or each other; a record whose entry
    is None or past the end of out is not kept, but x always is.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    n = len(x0)
    out, views = ensemble_io(n, stream_lo, ctr0, out, RECORDS, x0=x0, v0=v0, duration=duration)

    def run(lo, hi):
        x, v, rem, first, ctr, records = views(lo, hi)
        return lockstep(KINETIC, params, seed, first, records, ctr=ctr, rem=rem, x=x, v=v)

    loop_t, collisions = zip(*map_chunked(run, n, threads=threads, chunk=chunk))
    return Ensemble(*out, loop_seconds=sum(loop_t), total_collisions=sum(collisions))
