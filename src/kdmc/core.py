"""Domain types, counter-based random streams, and velocity sampling.

Velocities are stored in scaled form: a particle with velocity sample v
moves at physical speed v / eps. Post-collisional velocities follow a
Maxwellian with mean eps * u and variance T.

Every draw is a pure hash of (stream key, counter): `normal_keyed` and
`exponential_keyed` on the keys from `stream_keys`.
`normal_from_counter` and `uniform_open_closed`, which take (seed, stream),
are compositions of them kept for the benchmark tracer, which wraps them.

The draw arithmetic lives in `_draws.c`, compiled on first import: the
splitmix64 stream keys and hash, the two uniform maps, ports of the cephes
`ndtri` and `ndtr` that `scipy.special` runs, bit for bit (`ndtri`'s tails on
an in-file port of glibc's FMA-build `log`, not the C library's; `ndtr` calls
its `exp`), the random walk, the lockstep engine's per-round and moment kernels.
Elsewhere `log` and `exp` are numpy's: `exponential_keyed` and the engine's
flights take `np.log` of the C uniforms, and its KD collisions one `np.exp`.
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
    "RECORDS",
    "Ensemble",
    "ensemble_io",
    "finite",
    "step_count",
    "whole_steps",
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
        ("normals", (p, u, u, p, n, p, n), None), ("ndtri", (p, n), None), ("ndtr", (p, n), None),
        ("walk", (u, u, p, n, p, f, f, ctypes.c_int64, n), None),
        ("flights", (p, n, p, p, p, p, n, p, n, p, f, f, n), n), ("compact", (p, n, p, i), n),
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
    # fn, _draws.uniforms or _draws.normals, on the broadcast (key, counter) pairs,
    # 1-d even for scalar input: numpy's log may take another loop on 0-d
    keys = np.asarray(keys, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    out = np.empty(np.broadcast_shapes(keys.shape, counter.shape) or (1,))
    k, c = (np.ascontiguousarray(a if a.shape == out.shape else np.broadcast_to(a, out.shape))
            for a in (keys, counter))
    fn(k.ctypes.data, 0, 0, c.ctypes.data, 1, *args, out.ctypes.data, out.size)
    return out


def _stream_draws(fn, seed, lo, counter, out, *offset):
    # _draws.uniforms (given its offset) or normals into out, streams lo + i at one counter
    fn(None, int(np.uint64(seed)), lo, ctypes.byref(ctypes.c_uint64(counter)), 0, *offset,
       _addr(out), out.size)
    return out


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
    u = _keyed(_draws.uniforms, keys, counter, 1.0)
    np.log(u, out=u)
    return _scalar_if(np.negative(u, out=u), keys, counter)


def uniform_open_closed(seed, stream, counter):
    """Uniform draw on (0, 1]; zero is impossible by construction."""
    keys = stream_keys(seed, stream)
    return _scalar_if(_keyed(_draws.uniforms, keys, counter, 1.0), keys, counter)


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


RECORDS = (np.float64, np.float64, np.int64, np.float64, np.float64)  # Ensemble's 5 dtypes


@dataclass(frozen=True)
class Ensemble:
    """Per-particle records of n particles: final position and velocity,
    collisions, and the first and last flight overlaps with the time left
    (both all of it without a collision); None for a record not kept (see
    `lockstep`). loop_seconds sums the wall time of the stepping loops alone
    (setup, allocation, and summary excluded); total_collisions needs no
    record."""

    x: np.ndarray
    v: np.ndarray | None = None
    collisions: np.ndarray | None = None
    first_overlap: np.ndarray | None = None
    last_overlap: np.ndarray | None = None
    loop_seconds: float = 0.0
    total_collisions: int = 0


def ensemble_io(n, stream_lo, ctr0, out, dtypes, **states):
    """Check the inputs of an ensemble of n particles and give it its
    outputs before any of it runs; returns (out, views).

    Particle i draws from stream stream_lo + i in [0, 2**64) from counter
    ctr0: None (0), one for all or one per particle, integers in [0, 2**64).
    `states` are finite floats, one for all or one per particle. out is
    None, for new arrays of `dtypes`, or the caller's arrays in that order:
    each writable, contiguous and of n, or None, like any entry past the end
    of out, for an output not recorded; the first is always recorded. No
    two kept outputs, and no output and input, may share memory: the engine
    reads its inputs in place while it writes the outputs.
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
    out = tuple(np.empty(n, dtype=d) for d in dtypes) if out is None else tuple(out)
    out += (None,) * (len(dtypes) - len(out))
    if len(out) != len(dtypes) or not all(
            isinstance(a, np.ndarray) and a.dtype == d and a.shape == (n,)
            and a.flags.c_contiguous and a.flags.writeable
            for k, (a, d) in enumerate(zip(out, dtypes)) if a is not None or not k):
        raise ValueError(f"out must hold at most {len(dtypes)} entries, the first an array, "
                         f"the others arrays or None; each array writable, contiguous, of {n} "
                         f"and of dtype {[np.dtype(d).name for d in dtypes]}")
    kept = [a for a in out if a is not None]
    if any(np.shares_memory(a, b) for k, a in enumerate(kept)
           for b in (*kept[k + 1:], *columns.values())):
        raise ValueError("out arrays must share no memory with each other or with the inputs")
    ctr0, *states = (np.broadcast_to(col, (n,)) if col.ndim == 0 else col
                     for col in columns.values())

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


def _col(a):
    # a column's data, read in place, and its element stride: 1, or 0 for one value for all
    return a.ctypes.data, int(a.strides[0] != 0)


def lockstep(kind, params, seed, stream_lo, out, kd=None, **columns):
    """Run a particle population to the end in lockstep rounds of flights
    and collisions, and write each particle's records; returns the wall
    seconds of the rounds and the number of collisions.

    Particle i draws from stream stream_lo + i under seed. `columns` are
    8-byte values over the particles: "ctr" (next counters), "rem" (time
    left), "x" and "v", and for KD "left" (the steps not yet started), with
    kd its `struct kd` constants. out holds the records in `RECORDS` order;
    an entry that is None or past the end of out is not kept, but x always
    is. Round 0 reads the columns at their element stride, 0 for one value
    for all (an np.broadcast_to view), and never writes them, so they may be
    the caller's inputs; its uniform pass hashes each particle's stream key.
    It presets each kept record to its value without collisions,
    x + (v / eps) rem, v, 0, rem and rem, so a round-0 finisher costs only
    its flight draw and is never copied. The particles still running then
    move into contiguous arrays lockstep owns, with their stream keys (and,
    if first_overlap is kept, their round-0 flights), which it compacts in
    place without keeping their order. In round r every live particle draws
    its flight dtau = (eps^2 / sigma) Exp(1) at its next counter. Time left
    is the only exit: a particle whose flight reaches rem finishes with r
    collisions at x + (v / eps) tail, where tail = rem is its last flight,
    and its records are x, v, r, its round-0 flight and tail. The others
    collide in one C pass, `collide`, whose move `kind` picks: KINETIC moves
    a particle by its flight and draws its velocity, ORACLE moves it at a
    fresh velocity and leaves its pinned v alone, and KD, after `kd_steps`
    and np.exp of -a into a buffer lockstep owns, also takes the Gaussian
    substep and sets rem to the steps not yet started, so a particle past
    its last step finishes at its next flight.
    """
    out_x, out_v, out_coll, out_first, out_last = (*out, None, None, None, None)[:5]
    eps, scale, n = params.eps, params.eps * params.eps / params.sigma, out_x.size
    seed, live = int(np.uint64(seed)), columns
    t_loop = time.perf_counter()
    dtau, done_buf = np.empty(n), np.empty(n, dtype=np.bool_)
    _draws.uniforms(None, seed, stream_lo, *_col(live["ctr"]), 1.0, _addr(dtau), n)
    np.log(dtau, out=dtau)
    count = _draws.flights(*_col(live["rem"]), _addr(dtau), None, _addr(done_buf),
                           *_col(live["x"]), *_col(live["v"]), _addr(out_x), scale, eps, n)
    for a, preset in zip((out_v, out_coll, out_first, out_last),
                         (live["v"], 0, live["rem"], live["rem"])):
        if a is not None:
            a[:] = preset
    if count == n:
        return time.perf_counter() - t_loop, 0
    # the particles still running, in arrays lockstep owns. A population with
    # no round-0 finisher is copied whole, and its positions are its slots
    # until its first compaction: index slots would gather every column and
    # scatter every record, 10-20% of a one-step KD chunk of 50,000
    slots = np.flatnonzero(~done_buf) if count else None
    for name, col in live.items():
        live[name] = col.copy() if slots is None else col[slots]
    live["dtau"] = dtau if slots is None else dtau[slots]
    del dtau  # round 0's n flights die here unless they are the live ones
    if out_first is not None:
        live["first"] = live["dtau"].copy()
    live["ctr"] += np.uint64(1)
    live["keys"] = np.empty(n - count, dtype=np.uint64)
    _draws.stream_keys(seed, stream_lo, None if slots is None else slots.ctypes.data,
                       _addr(live["keys"]), n - count)
    ea = np.empty(n - count) if kind == KD else None  # a KD round's e^-a
    # each round's arrays stay where they are: compaction only shortens the columns
    ptr = {name: _addr(a) for name, a in dict(live, done=done_buf, ea=ea).items() if a is not None}
    move = (kind, *map(ptr.get, ("keys", "ctr", "dtau", "x", "v", "rem", "left", "ea")), kd,
            eps, math.sqrt(params.temperature), eps * params.u)
    rnd = collisions = 0
    while True:
        m = live["rem"].size
        if kind == KD:
            _draws.kd_steps(kd, ptr["dtau"], ptr["left"], ptr["rem"], ptr["ea"], m)
            np.exp(ea[:m], out=ea[:m])
        _draws.collide(*move, m)
        rnd += 1
        dtau, done = live["dtau"], done_buf[:m]
        _draws.uniforms(ptr["keys"], 0, 0, ptr["ctr"], 1, 1.0, ptr["dtau"], m)
        np.log(dtau, out=dtau)
        count = _draws.flights(ptr["rem"], 1, ptr["dtau"], ptr["ctr"], ptr["done"], None, 0,
                               None, 0, None, scale, eps, m)
        if not count:
            continue
        collisions += rnd * count
        fin = slice(None) if count == m else np.flatnonzero(done)
        at, tail = fin if slots is None else slots[fin], live["rem"][fin]
        out_x[at] = live["x"][fin] + (live["v"][fin] / eps) * tail
        if out_v is not None:
            out_v[at] = live["v"][fin]
        if out_coll is not None:
            out_coll[at] = rnd
        if out_first is not None:
            out_first[at] = live["first"][fin]
        if out_last is not None:
            out_last[at] = tail
        if count == m:
            return time.perf_counter() - t_loop, collisions
        if slots is None:
            slots = np.arange(m)  # compacted with the others from here on
        cols = [*live.values(), slots]
        left = _draws.compact(ptr["done"], m, (ctypes.c_void_p * len(cols))(*map(_addr, cols)),
                              len(cols))
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
