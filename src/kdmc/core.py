"""Domain types, counter-based random streams, and velocity sampling.

Velocities are stored in scaled form: a particle with velocity sample v
moves at physical speed v / eps. Post-collisional velocities follow a
Maxwellian with mean eps * u and variance T.

Every draw is a pure hash of (stream key, counter): `normal_keyed` and
`exponential_keyed` on the keys from `stream_keys`.
`normal_from_counter` and `uniform_open_closed`, which take (seed, stream),
are compositions of them kept for the benchmark tracer, which wraps them.

The draw arithmetic lives in `_draws.c`, compiled on first import: the
splitmix64 stream keys and hash, the two uniform maps, ports of the
cephes `ndtri` and `ndtr` that `scipy.special` runs, bit for bit, the
lockstep engine's per-round kernels and the moment kernels. `log` and `exp`
stay in numpy: `exponential_keyed` and the engine's flights take `np.log`
of the C uniforms, and a KD collision takes one `np.exp` (see `kd.py`).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BackgroundParams",
    "ParticleState",
    "RngStream",
    "stream_keys",
    "uniform_open_closed",
    "normal_from_counter",
    "normal_keyed",
    "exponential_keyed",
    "sample_maxwellian",
    "ensemble_io",
    "finite",
    "step_count",
    "whole_steps",
    "collision",
    "lockstep",
    "map_chunked",
]

# never -ffast-math: the draws must round as numpy and scipy do
DRAWS_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno")


def _cpu_features():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next(line for line in fh if line.startswith("flags"))
    except (OSError, StopIteration):
        return os.uname().machine


def _build(src, flags, lib):
    import shlex  # imported here: only a cache miss needs these two
    import subprocess

    cc = shlex.split(os.environ.get("CC") or "cc")
    tmp = f"{lib}.{os.getpid()}.tmp"  # one per process, so concurrent builds never share it
    try:
        subprocess.run([*cc, *flags, "-shared", "-fPIC", "-o", tmp, src, "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp, lib)  # atomic: readers see no library or a whole one
    except (OSError, subprocess.CalledProcessError) as exc:
        stderr = getattr(exc, "stderr", None) or b""
        raise ImportError(f"kdmc compiles its draws from C with {shlex.join(cc)}, which failed: "
                          f"{exc}\n{stderr.decode(errors='replace')}") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_draws(src=os.path.join(os.path.dirname(__file__), "_draws.c"), flags=DRAWS_FLAGS):
    """The compiled `src`, built with $CC (default cc) unless cached. The
    cache, `__pycache__` beside it or else ~/.cache/kdmc, is keyed by the
    source, the flags and the CPU's features, so a -march=native build
    loads only on the CPU it was built for; a cache hit runs no compiler."""
    with open(src, "rb") as fh:
        tag = hashlib.sha256(fh.read() + repr(flags).encode() + _cpu_features().encode())
    for cache in (os.path.join(os.path.dirname(src), "__pycache__"),
                  os.path.join(os.path.expanduser("~"), ".cache", "kdmc")):
        with contextlib.suppress(OSError):
            os.makedirs(cache, exist_ok=True)
        if os.access(cache, os.W_OK):
            break
    lib = os.path.join(cache, f"_draws-{tag.hexdigest()[:20]}.so")
    if not os.path.exists(lib):
        _build(src, flags, lib)
    draws = ctypes.CDLL(lib)  # its calls release the GIL
    p, n, f, i = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double, ctypes.c_int
    u = ctypes.c_uint64
    for fn, args, res in (
        ("stream_keys", (u, u, p, p, n), None), ("uniforms", (p, u, u, p, n, f, p, n), None),
        ("normals", (p, p, p, n), None), ("ndtri", (p, n), None), ("ndtr", (p, n), None),
        ("flights", (p, n, p, p, p, p, n, p, n, p, f, f, n), n), ("compact", (p, n, p, i, i), n),
        ("collide", (i, p, p, p, p, p, p, p, p, p, f, f, f, n), None),
        ("kd_steps", (p, p, p, p, p, n), None), ("kernels", (p, p, p, n), None),
    ):
        getattr(draws, fn).argtypes, getattr(draws, fn).restype = args, res
    return draws


_draws = _load_draws()
KINETIC, ORACLE, KD = range(3)  # the kinds of _draws.collide


def stream_keys(seed, stream):
    """Per-stream hash keys mix(seed ^ mix(stream + phi)). Each stream walks
    its own window of the splitmix64 Weyl orbit; drivers hash its key once
    per chunk, so a draw costs one finalizer round."""
    stream = np.asarray(stream, dtype=np.uint64)
    s = np.ascontiguousarray(stream.reshape(-1))
    keys = np.empty_like(s)
    _draws.stream_keys(int(np.uint64(seed)), 0, s.ctypes.data, keys.ctypes.data, keys.size)
    return keys[0] if stream.ndim == 0 else keys.reshape(stream.shape)


def _keyed(fn, keys, counter, *args):
    # fn(keys, counters, *args, out, n) on the broadcast (key, counter) pairs,
    # 1-d even for scalar input: numpy's log may take another loop on 0-d
    keys = np.asarray(keys, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    out = np.empty(np.broadcast_shapes(keys.shape, counter.shape) or (1,))
    k, c = (np.ascontiguousarray(a if a.shape == out.shape else np.broadcast_to(a, out.shape))
            for a in (keys, counter))
    fn(k.ctypes.data, c.ctypes.data, *args, out.ctypes.data, out.size)
    return out


def _uniforms(keys, ctr, out, n):
    # the uniforms on (0, 1] at the given keys and contiguous counters
    _draws.uniforms(keys, 0, 0, ctr, 1, 1.0, out, n)


def _scalar_if(out, keys, counter):
    return out[0] if np.ndim(keys) == 0 and np.ndim(counter) == 0 else out


def normal_keyed(keys, counter):
    """Standard normal ndtri(u) of a uniform u on (0, 1); one counter each."""
    return _scalar_if(_keyed(_draws.normals, keys, counter), keys, counter)


def ndtr(x):
    """The standard normal CDF of x as a new float64 array: cephes `ndtr`,
    which `scipy.special.ndtr` runs, bit for bit."""
    out = np.array(x, dtype=np.float64, order="C")
    _draws.ndtr(out.ctypes.data, out.size)
    return out


def exponential_keyed(keys, counter):
    """Unit exponential -ln(u) of a uniform u on (0, 1]; always finite."""
    u = _keyed(_uniforms, keys, counter)
    np.log(u, out=u)
    return _scalar_if(np.negative(u, out=u), keys, counter)


def uniform_open_closed(seed, stream, counter):
    """Uniform draw on (0, 1]; zero is impossible by construction."""
    keys = stream_keys(seed, stream)
    return _scalar_if(_keyed(_uniforms, keys, counter), keys, counter)


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


@dataclass(frozen=True)
class ParticleState:
    """Position, velocity sample, and clock of one Monte Carlo particle."""

    x: float
    v: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v) and np.isfinite(self.t)):
            raise ValueError(f"non-finite particle state ({self.x}, {self.v}, {self.t})")


def sample_maxwellian(params, rng):
    """Draw a post-collisional velocity: eps * u + sqrt(T) * z."""
    return params.eps * params.u + np.sqrt(params.temperature) * rng.normal()


def _uint64(name, values):
    # values as a C-contiguous uint64 array; raises ValueError unless they are
    # integers in [0, 2**64). A sequence of Python ints is taken exactly:
    # numpy would make [1, 2**64 - 1] float64
    if isinstance(values, (list, tuple)) and all(type(v) is int for v in values):
        if not all(0 <= v < 2**64 for v in values):
            raise ValueError(f"{name} must be in [0, 2**64), got {values!r}")
        return np.array(values, dtype=np.uint64)
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must have an integer dtype, got {values.dtype}")
    if values.dtype.kind == "i" and (values < 0).any():
        raise ValueError(f"{name} must be in [0, 2**64), got a negative value")
    return np.require(values, np.uint64, "C")


def ensemble_io(n, stream_lo, ctr0, out, dtypes, **states):
    """Check the inputs of an ensemble of n particles and give it its
    outputs before any of it runs; returns (out, views).

    Particle i draws from stream stream_lo + i in [0, 2**64) from counter
    ctr0: None (0), one for all or one per particle, integers in [0, 2**64).
    `states` are finite floats, one for all or one per particle. out is
    None, for new arrays of `dtypes`, or the caller's arrays in that order:
    each writable, contiguous, of n and sharing no memory with the inputs,
    or None, like any entry past the end of out, for an output not
    recorded; the first is always recorded.
    Anything else raises ValueError. views(lo, hi) gives the chunk [lo, hi):
    its states, first stream id, counters and outputs. One value for all is
    an np.broadcast_to view of stride 0, never n copies.
    """
    lo = _uint64("stream_lo", stream_lo)
    if lo.ndim or int(lo) + n > 2**64:
        raise ValueError(f"streams stream_lo + i for i < {n} must lie in [0, 2**64), "
                         f"got stream_lo = {stream_lo!r}")
    columns = {"ctr0": _uint64("ctr0", 0 if ctr0 is None else ctr0)}
    columns.update((name, finite(name, values)) for name, values in states.items())
    for name, col in columns.items():
        if col.shape not in ((), (n,)):
            raise ValueError(f"{name} must be one value or one per particle ({n}), "
                             f"got shape {col.shape}")
    ctr0, *states = (np.broadcast_to(col, (n,)) if col.ndim == 0 else col
                     for col in columns.values())
    out = tuple(np.empty(n, dtype=d) for d in dtypes) if out is None else tuple(out)
    out += (None,) * (len(dtypes) - len(out))
    if len(out) != len(dtypes) or not all(
            isinstance(a, np.ndarray) and a.dtype == d and a.shape == (n,)
            and a.flags.c_contiguous and a.flags.writeable
            for k, (a, d) in enumerate(zip(out, dtypes)) if a is not None or not k):
        raise ValueError(f"out must hold at most {len(dtypes)} entries, the first an array, "
                         f"the others arrays or None; each array writable, contiguous, of {n} "
                         f"and of dtype {[np.dtype(d).name for d in dtypes]}")

    def views(a, b):
        return (*(s[a:b] for s in states), int(lo) + a, ctr0[a:b],
                [o if o is None else o[a:b] for o in out])

    return out, views


def finite(name, values):
    """values as a C-contiguous float64 array; raises ValueError if any is NaN
    or infinite."""
    values = np.require(values, np.float64, "C")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values


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


def _addr(a):
    # a writable, contiguous, nonempty array's data, 4x cheaper than a.ctypes.data
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def collision(kind, live, dtau, params, kd=None, ea=None):
    """One C pass of collisions after the flights dtau: `kind` KINETIC, ORACLE
    or KD picks the move (see `_draws.c`). KD also takes its substep: the
    constants kd, live["left"] and ea = e^-a."""
    cols = dict(live, dtau=dtau, ea=ea)
    _draws.collide(
        kind, *(None if cols.get(name) is None else _addr(cols[name])
                for name in ("keys", "ctr", "dtau", "x", "v", "rem", "left", "ea")),
        kd, params.eps, math.sqrt(params.temperature), params.eps * params.u, dtau.size)


def _col(a):
    # a column's data, read in place, and its element stride: 1, or 0 for one value for all
    return a.ctypes.data, int(a.strides[0] != 0)


def lockstep(live, params, seed, stream_lo, out_x, collide, finish=None):
    """Run a particle population to the end in lockstep rounds and write
    each particle's final position into out_x; returns the wall seconds of
    the rounds and the number of collisions.

    Particle i draws from stream stream_lo + i under seed. `live` maps names
    to columns of 8-byte values over the particles: at least "ctr" (next
    counters), "rem" (time left), "x" and "v". Round 0 reads them at their
    element stride, 0 for one value for all (an np.broadcast_to view), and
    never writes them, so they may be the caller's inputs; its uniform pass
    hashes each particle's stream key. lockstep then replaces each column
    with a contiguous array it owns over the particles still running, adds
    their stream keys as "keys", and compacts them in place without keeping
    their order. In round r every live particle draws its flight dtau =
    (eps^2 / sigma) Exp(1) at its next counter. Time left is the only exit:
    a particle whose flight reaches rem finishes with r collisions at
    x + (v / eps) tail, where tail = rem is its last flight. Round 0 presets
    out_x to that position, so a round-0 finisher costs only its flight draw
    and is never copied. From round 1 on, finish(fin, slots, r, tail), if
    given, gets the finishers' live positions and output slots, for the
    driver's other outputs. The others collide: collide(dtau) moves them
    (dtau is live["dtau"], lockstep's buffer), and one it leaves with rem = 0
    finishes at its next flight.
    """
    eps, scale, n = params.eps, params.eps * params.eps / params.sigma, out_x.size
    seed = int(np.uint64(seed))
    t_loop = time.perf_counter()
    dtau, done_buf = np.empty(n), np.empty(n, dtype=np.bool_)
    _draws.uniforms(None, seed, stream_lo, *_col(live["ctr"]), 1.0, _addr(dtau), n)
    np.log(dtau, out=dtau)
    count = _draws.flights(*_col(live["rem"]), _addr(dtau), None, _addr(done_buf),
                           *_col(live["x"]), *_col(live["v"]), _addr(out_x), scale, eps, n)
    if count == n:
        return time.perf_counter() - t_loop, 0
    # the particles still running, in arrays lockstep owns; a population with
    # no round-0 finisher is copied whole, and its live positions are its slots
    slots = np.flatnonzero(~done_buf) if count else None
    for name, col in live.items():
        live[name] = col.copy() if slots is None else col[slots]
    live["dtau"] = dtau if slots is None else dtau[slots]
    live["ctr"] += np.uint64(1)
    live["keys"] = np.empty(n - count, dtype=np.uint64)
    _draws.stream_keys(seed, stream_lo, None if slots is None else slots.ctypes.data,
                       _addr(live["keys"]), n - count)
    rnd = collisions = 0
    while True:
        collide(live["dtau"])
        rnd += 1
        m = live["rem"].size
        ctr, dtau, done = live["ctr"], live["dtau"], done_buf[:m]
        _draws.uniforms(_addr(live["keys"]), 0, 0, _addr(ctr), 1, 1.0, _addr(dtau), m)
        np.log(dtau, out=dtau)
        count = _draws.flights(_addr(live["rem"]), 1, _addr(dtau), _addr(ctr), _addr(done),
                               None, 0, None, 0, None, scale, eps, m)
        if not count:
            continue
        collisions += rnd * count
        fin = slice(None) if count == m else np.flatnonzero(done)
        out, tail = fin if slots is None else slots[fin], live["rem"][fin]
        out_x[out] = live["x"][fin] + (live["v"][fin] / eps) * tail
        if finish:
            finish(fin, out, rnd, tail)
        if count == m:
            return time.perf_counter() - t_loop, collisions
        fresh = slots is None
        if fresh:
            slots = np.arange(m - count)  # compact gives the moved particles their positions
        cols = [*live.values(), slots]
        left = _draws.compact(_addr(done), m, (ctypes.c_void_p * len(cols))(*map(_addr, cols)),
                              len(cols) - 1, fresh)
        for name in live:
            live[name] = live[name][:left]
        slots = slots[:left]


def map_chunked(fn, n, threads=1, chunk=1 << 16):
    """Run fn(lo, hi) over fixed chunks of range(n); returns the chunks'
    return values in chunk order.

    fn writes its results in place, into the [lo:hi] slices of output
    arrays the caller allocated once for all n, so no chunk result is
    copied again. The chunk partition depends only on n and chunk, never on
    the thread count, and chunks write disjoint slices, so output is
    deterministic at any thread count.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    if threads <= 1 or len(bounds) == 1:
        return [fn(lo, hi) for lo, hi in bounds]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))
