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
    BackgroundParams,
    ParticleState,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kinetic.exponential_keyed
    lockstep,
    map_chunked,
    normal_keyed,
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


def _flight_time(budget, params):
    # single expression shared by the homogeneous and cell-walk paths so a
    # one-cell field reproduces the homogeneous draws bit for bit
    return budget * (params.eps * params.eps / params.sigma)


def sample_collision_time(state, field, rng):
    """Sample the next free-flight duration from state.x onward.

    Homogeneous case: (eps**2 / sigma) * E with E ~ Exp(1). Piecewise-
    constant case: exact inversion of the path integral of the collision
    rate, walking cells in the flight direction until the exponential
    budget is spent. Always finite and positive because lookups clamp.
    """
    budget = rng.exponential()
    if isinstance(field, BackgroundParams):
        return _flight_time(budget, field)
    cells, breaks = field.cells, field.breakpoints
    if len(cells) == 1:
        return _flight_time(budget, cells[0])
    params0 = field.params_at(state.x)
    speed = state.v / params0.eps
    if speed == 0.0:
        return _flight_time(budget, params0)
    idx = field.cell_index(state.x)
    x = state.x
    elapsed = 0.0
    step = 1 if speed > 0.0 else -1
    while True:
        params = cells[idx]
        boundary_idx = idx if step > 0 else idx - 1
        in_last_cell = boundary_idx < 0 or boundary_idx >= len(breaks)
        if not in_last_cell:
            t_cell = (breaks[boundary_idx] - x) / speed
            spent = t_cell * params.sigma / (params.eps * params.eps)
            if spent < budget:
                budget -= spent
                elapsed += t_cell
                x = breaks[boundary_idx]
                idx += step
                continue
        return elapsed + _flight_time(budget, params)


def simulate_kinetic(state, t_end, field, rng, record_segments=False):
    """Advance one particle kinetically to t_end; free flight between
    collisions, Maxwellian velocity resampling at each collision.

    Pure function of (state, draws); the loop guard works on the remaining
    time t_end - t so the clock never drifts.
    """
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} precedes current time {state.t}")
    x, v = state.x, state.v
    remaining = t_end - state.t
    collisions = 0
    segments = [] if record_segments else None
    while remaining > 0.0:
        dtau = sample_collision_time(ParticleState(x, v, t_end - remaining), field, rng)
        if dtau < remaining:
            x = x + (v / field.params_at(x).eps) * dtau
            v = sample_maxwellian(field.params_at(x), rng)
            remaining = remaining - dtau
            collisions += 1
            if record_segments:
                segments.append((dtau, v))
        else:
            x = x + (v / field.params_at(x).eps) * remaining
            if record_segments:
                segments.append((remaining, v))
            remaining = 0.0
    if record_segments and segments:
        # segments store (duration, velocity DURING the flight)
        segments = _shift_segment_velocities(segments, state.v)
    return KineticStepRecord(ParticleState(x, v, t_end), collisions, segments)


def _shift_segment_velocities(segments, v0):
    # the loop logged the post-collision velocity with each flight; the
    # flight itself was carried by the previous velocity
    out = []
    v = v0
    for duration, v_next in segments:
        out.append((duration, v))
        v = v_next
    return out


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


def _kinetic_chunk(params, x0, v0, duration, seed, streams, ctr0):
    n = x0.shape[0]
    vel_mean = params.eps * params.u
    vel_sd = math.sqrt(params.temperature)
    live = {
        "keys": stream_keys(seed, streams),
        "ctr": ctr0.copy(),
        "rem": np.full(n, float(duration)),
        "x": x0.copy(),
        "v": v0.copy(),
    }
    # the initial values are the results of a particle without collisions
    out_x = np.empty(n)
    out_v = np.empty(n)
    out_coll = np.zeros(n, dtype=np.int64)
    out_first = np.full(n, float(duration))
    out_last = np.full(n, float(duration))

    def finish(fin, slots, rnd, tail):
        vf = live["v"][fin]
        out_x[slots] = live["x"][fin] + (vf / params.eps) * tail
        out_v[slots] = vf
        if rnd:
            out_coll[slots] = rnd
            out_first[slots] = live["first"][fin]
            out_last[slots] = tail

    def collide(dtau):
        live.setdefault("first", dtau)  # the round-0 flight
        live["x"] += (live["v"] / params.eps) * dtau
        live["rem"] -= dtau
        v = normal_keyed(live["keys"], live["ctr"])
        v *= vel_sd
        v += vel_mean
        live["v"] = v
        live["ctr"] += np.uint64(1)

    elapsed = lockstep(live, params.eps * params.eps / params.sigma, finish, collide)
    return out_x, out_v, out_coll, out_first, out_last, np.array([elapsed])


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
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    n = x0.shape[0]
    if v0.shape[0] != n:
        raise ValueError("x0 and v0 must have equal length")
    streams, ctr0 = stream_inputs(n, stream_lo, ctr0)

    def run(lo, hi):
        return _kinetic_chunk(
            params, x0[lo:hi], v0[lo:hi], duration, seed, streams[lo:hi], ctr0[lo:hi]
        )

    x, v, coll, first, last, loop_t = map_chunked(run, n, threads=threads, chunk=chunk)
    return KineticEnsemble(x, v, coll, first, last, float(loop_t.sum()))
