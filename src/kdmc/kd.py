"""Kinetic-diffusion stepper and the limiting random-walk scheme.

Each KD time step starts with a kinetic flight. If a collision happens
before the step budget runs out, the remainder theta of the step holding
the collision is filled with one Gaussian substep whose mean and variance
are the exact kinetic moments conditioned on the freshly sampled velocity;
that velocity then seeds the next step, carrying the inter-step
correlation. A flight spanning several steps is executed as one kinetic
move and the clock jumps to the end of the step containing the collision.

`kd_ensemble` runs the same draws on a population through
`core.lockstep`, which writes the records x, v and collisions and runs the
KD collision: it moves the particle by its flight, draws its new velocity,
takes the Gaussian substep and sets the particle's time left to the steps
it has not started, all in C, on numpy's own exp loop. A particle past its
last step has no time left: its next flight finishes it with a tail of 0,
as every particle leaves the engine, on a flight.
`random_walk_ensemble` takes each chunk's steps in one C pass, `_draws.walk`.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CHUNK,
    KD,
    RECORDS,
    Ensemble,
    ParticleState,
    _addr,
    _col,
    _draws,
    ensemble_io,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.exponential_keyed
    lockstep,
    map_chunked,
    normal_from_counter,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.normal_from_counter
    normal_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.normal_keyed
    sample_maxwellian,
    step_count,
    stream_keys,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.stream_keys
    whole_steps,
)
from .kinetic import sample_collision_time
from .moments import _substep_constants, conditioned_mean_var

__all__ = [
    "KdStepRecord",
    "diffusive_substep",
    "simulate_kd",
    "simulate_random_walk",
    "kd_ensemble",
    "random_walk_ensemble",
]


@dataclass(frozen=True)
class KdStepRecord:
    """Outcome of a KD advance."""

    final_state: ParticleState
    collisions_executed: int


def _step_count(state_t, dt, t_end):
    if t_end < state_t:
        raise ValueError(f"t_end {t_end} precedes current time {state_t}")
    return step_count(t_end - state_t, dt)


def diffusive_substep(v_next, theta, params, rng):
    """Gaussian displacement filling a remainder theta of the time step.

    Mean and variance are the kinetic moments conditioned on the final
    velocity v_next.
    """
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    z = rng.normal()
    # theta = 0 gives mean 0 and variance 0, hence displacement exactly 0;
    # the draw is still consumed so counters stay aligned with kd_ensemble
    mean, var = conditioned_mean_var(params, theta, v_next)
    return mean + np.sqrt(var) * z


def simulate_kd(state, dt, t_end, params, rng):
    """Advance one particle with the kinetic-diffusion scheme to t_end.

    t_end - state.t must be a whole number of steps dt; the step grid is
    tracked by integer index (t = t0 + n * dt recomputed, never
    accumulated) so theta never drifts.
    """
    n_steps = _step_count(state.t, dt, t_end)
    x, v = state.x, state.v
    n = 0
    collisions = 0
    while n < n_steps:
        rem = (n_steps - n) * dt
        dtau = sample_collision_time(params, rng)
        if dtau >= rem:
            x = x + (v / params.eps) * rem
            break
        x = x + (v / params.eps) * dtau
        j = min(int(dtau // dt), n_steps - n - 1)
        # rounding at the grid edge can leave theta a few ulp outside [0, dt]
        theta = min(max(dt - (dtau - j * dt), 0.0), dt)
        v = sample_maxwellian(params, rng)
        x = x + diffusive_substep(v, theta, params, rng)
        collisions += 1
        n = n + j + 1
    return KdStepRecord(ParticleState(x, v, t_end), collisions)


def simulate_random_walk(state, dt, t_end, params, rng):
    """Advance one particle with the limiting random walk of the scheme.

    Per step: x += u dt + sqrt(2 (T / sigma) dt) * z. The velocity state is
    carried through unused.
    """
    n_steps = _step_count(state.t, dt, t_end)
    drift = params.u * dt
    scale = math.sqrt(2.0 * (params.temperature / params.sigma) * dt)
    x = state.x
    for _ in range(n_steps):
        x = x + drift + scale * rng.normal()
    return ParticleState(x, state.v, t_end)


def kd_ensemble(
    params,
    x0,
    v0,
    dt,
    n_steps,
    seed,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=CHUNK,
    out=None,
):
    """Advance n particles over n_steps KD steps of size dt.

    Same stream/counter discipline as kinetic_ensemble: particle i draws
    from stream stream_lo + i starting at ctr0[i]. On the no-collision
    event the draw sequence and position arithmetic coincide with
    kinetic_ensemble bit for bit. out is as in kinetic_ensemble, for the
    records x, v and collisions (int64); the overlaps are None.
    """
    n_steps = whole_steps(dt, n_steps)
    n = len(x0)
    kd = (ctypes.c_double * 6)(*_substep_constants(params, dt))
    left = np.broadcast_to(np.int64(n_steps), (n,))  # the steps not yet started

    def step(first, out, **columns):
        return lockstep(KD, params, seed, first, out, kd, left=left[:out[0].size], **columns)

    out, run = ensemble_io(n, stream_lo, ctr0, out, RECORDS[:3], step, {"rem": "n_steps * dt"},
                           x=x0, v=v0, rem=n_steps * dt)
    loop_t, collisions = zip(*map_chunked(run, n, threads=threads, chunk=chunk))
    return Ensemble(*out, loop_seconds=sum(loop_t), total_collisions=sum(collisions))


def random_walk_ensemble(
    params,
    x0,
    dt,
    n_steps,
    seed,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=CHUNK,
):
    """Advance n particles over n_steps random-walk steps; returns positions."""
    n_steps = whole_steps(dt, n_steps)
    n = len(x0)
    drift = params.u * dt
    scale = math.sqrt(2.0 * (params.temperature / params.sigma) * dt)

    def walk(first, out, ctr, x):
        out[0][:] = x  # then steps the output in place
        _draws.walk(int(np.uint64(seed)), first, *_col(ctr), _addr(out[0]), drift, scale, n_steps,
                    ctr.size)

    (positions,), run = ensemble_io(n, stream_lo, ctr0, None, (np.float64,), walk, x=x0)
    map_chunked(run, n, threads=threads, chunk=chunk)
    return positions
