"""Domain types, counter-based random streams, and velocity sampling.

Velocities are stored in scaled form: a particle with velocity sample v
moves at physical speed v / eps. Post-collisional velocities follow a
Maxwellian with mean eps * u and variance T.

Every draw is a pure hash of (stream key, counter): `normal_keyed` and
`exponential_keyed` on the keys from `stream_keys`.
`normal_from_counter` and `uniform_open_closed`, which take (seed, stream),
are compositions of them kept for the benchmark tracer, which wraps them.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "BackgroundParams",
    "ParticleState",
    "PiecewiseConstantField",
    "RngStream",
    "stream_keys",
    "uniform_open_closed",
    "normal_from_counter",
    "normal_keyed",
    "exponential_keyed",
    "sample_maxwellian",
    "stream_inputs",
    "step_count",
    "whole_steps",
    "lockstep",
    "map_chunked",
]

# splitmix64 increment and finalizer constants
_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = float(2.0**-53)


def _mix64(z):
    """splitmix64 finalizer; modular uint64 arithmetic, vectorized."""
    t = z >> _S30
    t ^= z
    t *= _M1
    z = t >> _S27
    z ^= t
    z *= _M2
    t = z >> _S31
    t ^= z
    return t


def stream_keys(seed, stream):
    """Per-stream hash keys. Each stream walks its own window of the
    splitmix64 Weyl orbit; drivers hash its key once per chunk, so a draw
    costs one finalizer round."""
    stream = np.asarray(stream, dtype=np.uint64)
    # hashed as 1-d: 0-d uint64 arithmetic warns on the intended modular overflow
    keys = _mix64(np.asarray(seed, dtype=np.uint64) ^ _mix64(np.atleast_1d(stream) + _PHI))
    return keys[0] if stream.ndim == 0 else keys


def _hash_keyed(keys, counter):
    """64 random bits of (stream key, counter) and a spare buffer of the
    same size.

    The hash runs in place in two fresh uint64 buffers, so neither argument
    is written; the keyed draws finish their float work in the spare one.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    # 1-d buffers even for scalar input: 0-d uint64 arithmetic warns on the
    # intended modular overflow
    z = np.empty(np.broadcast_shapes(keys.shape, counter.shape) or (1,), dtype=np.uint64)
    np.add(counter, np.uint64(1), out=z)
    z *= _PHI
    z += keys
    t = np.right_shift(z, _S30)
    t ^= z
    t *= _M1
    np.right_shift(t, _S27, out=z)
    z ^= t
    z *= _M2
    np.right_shift(z, _S31, out=t)
    t ^= z
    return t, z


def _scalar_if(out, keys, counter):
    return out[0] if np.ndim(keys) == 0 and np.ndim(counter) == 0 else out


def _keyed_uniform(keys, counter, offset):
    # ((bits >> 11) + offset) * 2**-53, written into the spare buffer
    bits, spare = _hash_keyed(keys, counter)
    bits >>= _S11
    u = spare.view(np.float64)
    np.add(bits, offset, out=u)
    u *= _INV53
    return u


def normal_keyed(keys, counter):
    """Standard normal ndtri(u) of a uniform u on (0, 1); one counter each."""
    u = _keyed_uniform(keys, counter, 0.5)
    return _scalar_if(ndtri(u, out=u), keys, counter)


def exponential_keyed(keys, counter):
    """Unit exponential -ln(u) of a uniform u on (0, 1]; always finite."""
    u = _keyed_uniform(keys, counter, 1.0)
    np.log(u, out=u)
    return _scalar_if(np.negative(u, out=u), keys, counter)


def uniform_open_closed(seed, stream, counter):
    """Uniform draw on (0, 1]; zero is impossible by construction."""
    keys = stream_keys(seed, stream)
    return _scalar_if(_keyed_uniform(keys, counter, 1.0), keys, counter)


def normal_from_counter(seed, stream, counter):
    """normal_keyed on the keys of (seed, stream)."""
    return normal_keyed(stream_keys(seed, stream), counter)


@dataclass
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Streams with distinct ids are statistically independent, and every draw
    is a pure function of (seed, stream, counter), so trajectories replay
    bit-identically across runs and thread schedules. The stream key is
    hashed once, at construction; the counter is the only mutable state.
    """

    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        self._keys = stream_keys(self.seed, self.stream)

    def _next_counters(self, size):
        # the counter wraps modulo 2**64, as the keyed draws' uint64 counters do
        c = self.counter
        self.counter = (c + (1 if size is None else size)) % 2**64
        if size is None:
            return c
        return np.arange(size, dtype=np.uint64) + np.uint64(c)

    def normal(self, size=None):
        return normal_keyed(self._keys, self._next_counters(size))

    def exponential(self, size=None):
        return exponential_keyed(self._keys, self._next_counters(size))


@dataclass(frozen=True)
class BackgroundParams:
    """Homogeneous background (sigma, u, T, eps) driving all formulas.

    Collisions occur at rate sigma / eps**2; post-collisional velocities are
    Maxwellian with mean eps * u and variance temperature.
    """

    sigma: float
    u: float
    temperature: float
    eps: float

    def __post_init__(self):
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not (self.temperature > 0 and np.isfinite(self.temperature)):
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not np.isfinite(self.u):
            raise ValueError(f"u must be finite, got {self.u}")

    def collisionality(self, dt):
        """Expected collisions in a step of length dt: sigma * dt / eps**2."""
        return self.sigma * dt / (self.eps * self.eps)

    def params_at(self, x):
        """Homogeneous lookup: the same parameters everywhere."""
        return self


@dataclass(frozen=True)
class ParticleState:
    """Position, velocity sample, and clock of one Monte Carlo particle."""

    x: float
    v: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v) and np.isfinite(self.t)):
            raise ValueError(f"non-finite particle state ({self.x}, {self.v}, {self.t})")


@dataclass(frozen=True)
class PiecewiseConstantField:
    """Piecewise-constant background: cells separated by sorted breakpoints.

    len(breakpoints) == len(cells) - 1. Lookups outside the covered domain
    clamp to the nearest cell, so params_at is total. A single-cell field is
    observationally identical to using its BackgroundParams directly.
    """

    cells: tuple
    breakpoints: tuple = field(default=())

    def __post_init__(self):
        cells = tuple(self.cells)
        breaks = tuple(float(b) for b in self.breakpoints)
        if len(cells) == 0:
            raise ValueError("field needs at least one cell")
        if len(breaks) != len(cells) - 1:
            raise ValueError(
                f"{len(cells)} cells need {len(cells) - 1} breakpoints, got {len(breaks)}"
            )
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not np.isfinite(b) for b in breaks):
            raise ValueError("breakpoints must be finite")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "breakpoints", breaks)

    def cell_index(self, x):
        return bisect.bisect_right(self.breakpoints, x)

    def params_at(self, x):
        return self.cells[self.cell_index(x)]


def sample_maxwellian(params, rng):
    """Draw a post-collisional velocity: eps * u + sqrt(T) * z."""
    return params.eps * params.u + np.sqrt(params.temperature) * rng.normal()


def stream_inputs(n, stream_lo, ctr0):
    """Stream ids stream_lo + i and starting counters of n particles.

    ctr0 is None (every particle starts at counter 0), one counter for all,
    or one counter per particle.
    """
    streams = np.arange(stream_lo, stream_lo + n, dtype=np.uint64)
    if ctr0 is None:
        return streams, np.zeros(n, dtype=np.uint64)
    ctr0 = np.asarray(ctr0, dtype=np.uint64)
    return streams, np.full(n, ctr0, dtype=np.uint64) if ctr0.shape == () else ctr0


def step_count(span, dt):
    """The number n of steps dt in span; raises ValueError unless span is
    a positive whole multiple of dt, to a relative 1e-9."""
    if not (dt >= 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    # no span is a multiple of dt = 0
    n = round(span / dt) if dt and math.isfinite(span) else 0
    if n < 1 or abs(n * dt - span) > 1e-9 * max(abs(span), dt):
        raise ValueError(f"t_end - t = {span} is not a positive multiple of dt = {dt}")
    return n


def whole_steps(dt, n_steps):
    """Check the step grid of a stepping ensemble; returns n_steps as int."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_steps < 1 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    return int(n_steps)


def lockstep(live, scale, finish, collide):
    """Run a particle population to the end in lockstep rounds; returns the
    wall seconds of the loop.

    `live` maps names to equal-length arrays over the particles still
    running; it holds at least "keys" (stream keys), "ctr" (next counters)
    and "rem" (time left). In round r every live particle draws its flight
    dtau = scale * Exp(1) at its next counter. A particle whose flight
    reaches its remaining time finishes with r collisions:
    finish(fin, slots, r, tail) gets its live positions, its output slots
    and tail = rem[fin], the length of its last flight. The others collide:
    collide(dtau) moves them and draws what the driver needs. It may return
    a mask of particles that are done at that collision; they get
    finish(fin, slots, r + 1, None).

    The arrays in `live` are gathered down only in rounds where some
    particle finishes, one reassignment per array, so each old array is
    freed as its successor is made; drivers write a particle's outputs once,
    when it finishes. Positions and slots are slices while no particle has
    left or when all finish, so such a round copies instead of gathering.
    """
    t_loop = time.perf_counter()
    idx = None  # output slot of each live particle; None while all are live
    rnd = 0

    def retire(done, flew):
        # finish the flagged particles and drop them; False once none is left
        nonlocal idx
        everyone = done.all()
        fin = slice(None) if everyone else np.flatnonzero(done)
        finish(fin, fin if idx is None else idx[fin], rnd, live["rem"][fin] if flew else None)
        if everyone:
            return False
        keep = ~done
        idx = np.flatnonzero(keep) if idx is None else idx[keep]
        for name in live:
            live[name] = live[name][keep]
        return True

    while True:
        live["dtau"] = exponential_keyed(live["keys"], live["ctr"])
        live["dtau"] *= scale
        live["ctr"] += np.uint64(1)
        done = live["dtau"] >= live["rem"]
        if done.any() and not retire(done, True):
            break
        done = collide(live.pop("dtau"))
        rnd += 1
        if done is not None and done.any() and not retire(done, False):
            break
    return time.perf_counter() - t_loop


def map_chunked(fn, n, threads=1, chunk=1 << 16):
    """Run fn(lo, hi) -> tuple of arrays over fixed chunks of range(n).

    The chunk partition depends only on n and chunk, never on the thread
    count, and results merge in chunk order, so output is deterministic at
    any thread count.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if threads <= 1 or len(bounds) == 1:
        parts = [fn(lo, hi) for lo, hi in bounds]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: fn(*b), bounds))
    return tuple(np.concatenate(column) for column in zip(*parts))
