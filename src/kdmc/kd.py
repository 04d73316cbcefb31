"""Kinetic-diffusion stepper and the limiting random-walk scheme.

Each KD time step starts with a kinetic flight. If a collision happens
before the step budget runs out, the remainder theta of the step holding
the collision is filled with one Gaussian substep whose mean and variance
are the exact kinetic moments conditioned on the freshly sampled velocity;
that velocity then seeds the next step, carrying the inter-step
correlation. A flight spanning several steps is executed as one kinetic
move and the clock jumps to the end of the step containing the collision.

`kd_ensemble` runs the same draws on a population through
`core.lockstep`. A collision moves the particle by its flight, draws its
new velocity and then the Gaussian substep's normal, and ends the
particle's run when the step holding it was the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ParticleState,
    exponential_keyed,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.exponential_keyed
    lockstep,
    map_chunked,
    normal_from_counter,  # noqa: F401 - the benchmark tracer wraps kdmc.kd.normal_from_counter
    normal_keyed,
    sample_maxwellian,
    step_count,
    stream_inputs,
    stream_keys,
    whole_steps,
)
from .moments import conditioned_mean_var

__all__ = [
    "KdStepRecord",
    "KdEnsemble",
    "diffusive_substep",
    "simulate_kd",
    "simulate_random_walk",
    "kd_ensemble",
    "random_walk_ensemble",
]


@dataclass(frozen=True)
class KdStepRecord:
    """Outcome of a KD advance with kinetic/diffusive time bookkeeping."""

    final_state: ParticleState
    collisions_executed: int
    diffusive_time: float
    kinetic_time: float


def _step_count(state_t, dt, t_end):
    if t_end < state_t:
        raise ValueError(f"t_end {t_end} precedes current time {state_t}")
    return step_count(t_end - state_t, dt)


def diffusive_substep(v_next, theta, params, rng):
    """Gaussian displacement filling a remainder theta of the time step.

    Mean and variance are the kinetic moments conditioned on the final
    velocity v_next, with the background parameters taken at the start of
    the diffusive motion.
    """
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    z = rng.normal()
    # theta = 0 gives mean 0 and variance 0, hence displacement exactly 0;
    # the draw is still consumed so counters stay aligned with kd_ensemble
    mean, var = conditioned_mean_var(params, theta, v_next)
    return mean + np.sqrt(var) * z


def simulate_kd(state, dt, t_end, field, rng):
    """Advance one particle with the kinetic-diffusion scheme to t_end.

    t_end - state.t must be a whole number of steps dt; the step grid is
    tracked by integer index (t = t0 + n * dt recomputed, never
    accumulated) so theta never drifts.
    """
    n_steps = _step_count(state.t, dt, t_end)
    x, v = state.x, state.v
    n = 0
    collisions = 0
    kinetic_time = 0.0
    diffusive_time = 0.0
    while n < n_steps:
        params = field.params_at(x)
        rem = (n_steps - n) * dt
        dtau = rng.exponential() * (params.eps * params.eps / params.sigma)
        if dtau >= rem:
            x = x + (v / params.eps) * rem
            kinetic_time += rem
            n = n_steps
            break
        x = x + (v / params.eps) * dtau
        kinetic_time += dtau
        j = min(int(dtau // dt), n_steps - n - 1)
        # rounding at the grid edge can leave theta a few ulp outside [0, dt]
        theta = min(max(dt - (dtau - j * dt), 0.0), dt)
        local = field.params_at(x)
        v_next = sample_maxwellian(local, rng)
        x = x + diffusive_substep(v_next, theta, local, rng)
        diffusive_time += theta
        v = v_next
        collisions += 1
        n = n + j + 1
    return KdStepRecord(ParticleState(x, v, t_end), collisions, diffusive_time, kinetic_time)


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


@dataclass(frozen=True)
class KdEnsemble:
    """Vectorized KD results for n particles.

    loop_seconds is the summed wall time of the stepping loops alone
    (setup, allocation, and summary excluded)."""

    x: np.ndarray
    v: np.ndarray
    collisions: np.ndarray
    loop_seconds: float = 0.0

    @property
    def total_collisions(self):
        return int(self.collisions.sum())


def _collision_remainder(dtau, dt, left):
    """Remainder theta of the step in which each flight dtau ends; `left`,
    the steps not yet started, drops in place by the steps the flight took.

    Same arithmetic as `simulate_kd`. dtau // dt is exactly 0 below dt, so
    only the longer flights are divided.
    """
    theta = dt - dtau
    left -= 1
    far = np.flatnonzero(dtau >= dt)
    if far.size:
        dtau_far = dtau[far]
        j = np.minimum((dtau_far // dt).astype(np.int64), left[far])
        theta[far] = dt - (dtau_far - j * dt)
        left[far] -= j
    # rounding at the grid edge can leave theta a few ulp outside [0, dt]
    np.maximum(theta, 0.0, out=theta)
    return np.minimum(theta, dt, out=theta)


def _kd_chunk(params, x0, v0, dt, n_steps, seed, streams, ctr0):
    n = x0.shape[0]
    vel_mean = params.eps * params.u
    vel_sd = math.sqrt(params.temperature)
    live = {
        "keys": stream_keys(seed, streams),
        "ctr": ctr0.copy(),
        "rem": np.full(n, n_steps * dt),
        "left": np.full(n, n_steps, dtype=np.int64),  # steps not yet started
        "x": x0.copy(),
        "v": v0.copy(),
    }
    # the initial values are the results of a particle without collisions
    out_x = np.empty(n)
    out_v = np.empty(n)
    out_coll = np.zeros(n, dtype=np.int64)

    def finish(fin, slots, rnd, tail):
        x, v = live["x"][fin], live["v"][fin]
        out_x[slots] = x if tail is None else x + (v / params.eps) * tail
        out_v[slots] = v
        if rnd:
            out_coll[slots] = rnd

    # the round's temporaries stay bound until the next round replaces them:
    # released together at return, they let malloc trim the heap top, and
    # the next round's kernel table faults it back in page by page
    theta = z = mean = var = None

    def collide(dtau):
        nonlocal theta, z, mean, var
        live["x"] += (live["v"] / params.eps) * dtau
        theta = _collision_remainder(dtau, dt, live["left"])
        v = normal_keyed(live["keys"], live["ctr"])
        v *= vel_sd
        v += vel_mean
        live["v"] = v
        live["ctr"] += np.uint64(1)
        z = normal_keyed(live["keys"], live["ctr"])
        live["ctr"] += np.uint64(1)
        mean, var = conditioned_mean_var(params, theta, v)
        np.sqrt(var, out=var)
        var *= z
        var += mean
        live["x"] += var
        np.multiply(live["left"], dt, out=live["rem"])
        # the scalar loop draws nothing further after the last step either
        return live["left"] == 0

    elapsed = lockstep(live, params.eps * params.eps / params.sigma, finish, collide)
    return out_x, out_v, out_coll, np.array([elapsed])


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
    chunk=1 << 16,
):
    """Advance n particles over n_steps KD steps of size dt.

    Same stream/counter discipline as kinetic_ensemble: particle i draws
    from stream stream_lo + i starting at ctr0[i]. On the no-collision
    event the draw sequence and position arithmetic coincide with
    kinetic_ensemble bit for bit.
    """
    n_steps = whole_steps(dt, n_steps)
    x0 = np.asarray(x0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    n = x0.shape[0]
    if v0.shape[0] != n:
        raise ValueError("x0 and v0 must have equal length")
    streams, ctr0 = stream_inputs(n, stream_lo, ctr0)

    def run(lo, hi):
        return _kd_chunk(
            params, x0[lo:hi], v0[lo:hi], dt, n_steps, seed, streams[lo:hi], ctr0[lo:hi]
        )

    x, v, coll, loop_t = map_chunked(run, n, threads=threads, chunk=chunk)
    return KdEnsemble(x, v, coll, float(loop_t.sum()))


def random_walk_ensemble(
    params,
    x0,
    dt,
    n_steps,
    seed,
    stream_lo=0,
    ctr0=None,
    threads=1,
    chunk=1 << 16,
):
    """Advance n particles over n_steps random-walk steps; returns positions."""
    n_steps = whole_steps(dt, n_steps)
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    streams, ctr0 = stream_inputs(n, stream_lo, ctr0)
    drift = params.u * dt
    scale = math.sqrt(2.0 * (params.temperature / params.sigma) * dt)

    def run(lo, hi):
        x = x0[lo:hi].copy()
        ctr = ctr0[lo:hi].copy()
        keys = stream_keys(seed, streams[lo:hi])
        for _ in range(n_steps):
            z = normal_keyed(keys, ctr)
            z *= scale
            x += drift
            x += z
            ctr += np.uint64(1)
        return (x,)

    (x,) = map_chunked(run, n, threads=threads, chunk=chunk)
    return x
