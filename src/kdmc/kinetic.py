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
    """Vectorized single-advance results for n particles; a record the
    caller did not ask for (see `kinetic_ensemble`'s out) is None.

    loop_seconds is the summed wall time of the stepping loops alone
    (setup, allocation, and summary excluded)."""

    x: np.ndarray
    v: np.ndarray | None
    collisions: np.ndarray | None
    first_overlap: np.ndarray | None
    last_overlap: np.ndarray | None
    loop_seconds: float = 0.0
    total_collisions: int = 0


_OUTPUTS = (np.float64, np.float64, np.int64, np.float64, np.float64)


def _kinetic_chunk(params, seed, x0, v0, rem, stream_lo, ctr0, out):
    # out: this chunk's slices of the ensemble's x, v, collisions, first and
    # last overlap, or None where not recorded; lockstep writes x, the rest
    # start at the results of a particle without collisions
    out_x, out_v, out_coll, out_first, out_last = out
    for a, preset in zip(out[1:], (v0, 0, rem, rem)):
        if a is not None:
            a[:] = preset
    live = {"ctr": ctr0, "rem": rem, "x": x0, "v": v0}

    def finish(fin, slots, rnd, tail):
        if out_v is not None:
            out_v[slots] = live["v"][fin]
        if out_coll is not None:
            out_coll[slots] = rnd
        if out_first is not None:
            out_first[slots] = live["first"][fin]
        if out_last is not None:
            out_last[slots] = tail

    def collide(dtau):
        if out_first is not None and "first" not in live:
            live["first"] = dtau.copy()  # the round-0 flight
        collision(KINETIC, live, dtau, params)

    return lockstep(live, params, seed, stream_lo, out_x, collide,
                    finish if any(a is not None for a in out[1:]) else None)


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
    """Advance n particles over one interval of length `duration`.

    Particle i draws from stream stream_lo + i starting at counter ctr0[i];
    identical inputs give bit-identical output at any thread count.
    Tracks per-particle collision counts plus the first and last flight
    overlaps with the interval (both equal to `duration` when no collision
    occurs). out, if given, holds arrays for the records x, v, collisions
    (int64), first_overlap and last_overlap, in that order, written in
    place; a record whose entry is None or past the end of out is not kept,
    but x always is. total_collisions needs no record.
    """
    if not 0.0 <= duration < math.inf:
        raise ValueError(f"duration must be finite and >= 0, got {duration}")
    n = len(x0)
    out, views = ensemble_io(n, stream_lo, ctr0, out, _OUTPUTS, x0=x0, v0=v0, duration=duration)

    def run(lo, hi):
        return _kinetic_chunk(params, seed, *views(lo, hi))

    loop_t, collisions = zip(*map_chunked(run, n, threads=threads, chunk=chunk))
    return KineticEnsemble(*out, sum(loop_t), sum(collisions))
