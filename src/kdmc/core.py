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
its `exp`), the random walk, the moment kernels and the lockstep engine, which
runs a chunk's rounds in one call over blocks of 256 particles. Elsewhere
`log` and `exp` are numpy's: `exponential_keyed` takes `np.log` of the C
uniforms, and the engine calls numpy's own float64 `log` and `exp` loops from
C, which import checks give numpy's bits.
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
    u, q = ctypes.c_uint64, ctypes.c_int64
    for fn, args, res in (
        ("stream_keys", (u, u, p, p, n), None), ("uniforms", (p, u, u, p, f, p, n), None),
        ("normals", (p, u, u, p, p, n), None), ("ndtri", (p, n), None), ("ndtr", (p, n), None),
        ("walk", (u, u, p, n, p, f, f, q, n), None),
        ("flights", (p, p, p, p, f, n), n), ("compact", (p, n, p, i), n),
        ("collide", (i, p, p, p, p, p, p, p, p, p, f, f, f, n), None),
        ("kd_steps", (p, p, p, p, p, n), None), ("kernels", (p, p, p, n), None),
        ("numpy_loop", (p, p, n), None),
        ("lockstep", (i, u, u, p, p, q, f, *(p, n) * 3, *(p,) * 5, f, f, f, f, n), q),
    ):
        getattr(draws, fn).argtypes, getattr(draws, fn).restype = args, res
    return draws


_draws = _load_draws()
KINETIC, ORACLE, KD = range(3)  # the collision kinds of _draws.lockstep and collide
CHUNK = 1 << 16  # particles per chunk of map_chunked and the ensembles


def stream_keys(seed, stream):
    """Per-stream hash keys mix(seed ^ mix(stream + phi)). Each stream walks
    its own window of the splitmix64 Weyl orbit; drivers hash its key once
    per chunk, so a draw costs one finalizer round."""
    stream = np.asarray(stream, dtype=np.uint64)
    s = np.ascontiguousarray(stream.reshape(-1))
    keys = np.empty_like(s)
    _draws.stream_keys(_seed(seed), 0, s.ctypes.data, keys.ctypes.data, keys.size)
    return keys[0] if stream.ndim == 0 else keys.reshape(stream.shape)


def _keyed(fn, keys, counter, *args):
    # fn, _draws.uniforms or _draws.normals, on the broadcast (key, counter) pairs,
    # 1-d even for scalar input: numpy's log may take another loop on 0-d
    keys = np.asarray(keys, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    out = np.empty(np.broadcast_shapes(keys.shape, counter.shape) or (1,))
    k, c = (np.ascontiguousarray(a if a.shape == out.shape else np.broadcast_to(a, out.shape))
            for a in (keys, counter))
    fn(k.ctypes.data, 0, 0, c.ctypes.data, *args, out.ctypes.data, out.size)
    return out


def _stream_draws(fn, seed, lo, counter, out, *offset):
    # _draws.uniforms (given its offset) or normals into out, streams lo + i at one counter
    fn(None, _seed(seed), lo, ctypes.byref(ctypes.c_uint64(counter)), *offset, _addr(out), out.size)
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


def _seed(seed):
    # seed as an int, checked as _uint64 checks counters
    value = _uint64("seed", seed)
    if value.ndim:
        raise ValueError(f"seed must be one integer, got {seed!r}")
    return int(value)


RECORDS = (np.float64, np.float64, np.int64, np.float64, np.float64)  # Ensemble's 5 dtypes


@dataclass(frozen=True)
class Ensemble:
    """Per-particle records of n particles: final position and velocity,
    collisions, and the first and last flight overlaps with the time left
    (both all of it without a collision). A driver given out=(x,) keeps x
    alone, and KD keeps no overlaps; a record not kept is None.
    loop_seconds sums the wall time of the stepping loops alone (setup,
    allocation, and summary excluded); total_collisions needs no record."""

    x: np.ndarray
    v: np.ndarray | None = None
    collisions: np.ndarray | None = None
    first_overlap: np.ndarray | None = None
    last_overlap: np.ndarray | None = None
    loop_seconds: float = 0.0
    total_collisions: int = 0


def ensemble_io(n, stream_lo, ctr0, out, dtypes, step, names=None, **columns):
    """Check the inputs of an ensemble of n particles and give it its
    outputs before any of it runs; returns (out, run).

    Particle i draws from stream stream_lo + i in [0, 2**64) from counter
    ctr0: None (0), one for all or one per particle, integers in [0, 2**64).
    `columns`, x and v (`step` carries the time left), are finite floats,
    one for all or one per particle; an error names a column by the
    caller's argument, x0 for x, v0 for v, or as `names` maps it. out is
    None, for new arrays of `dtypes`, or the caller's arrays in that order,
    for the first output alone or for all of them: each writable,
    contiguous and of n. No two outputs, and no output and input, may share
    memory: the engine reads its inputs in place while it writes the
    outputs. Anything else raises ValueError. run(lo, hi) returns
    step(stream_lo + lo, outputs, ctr=counters, **columns) on the chunk
    [lo, hi); one value for all is a stride-0 np.broadcast_to view.
    """
    lo = _uint64("stream_lo", stream_lo)
    if lo.ndim or int(lo) + n > 2**64:
        raise ValueError(f"streams stream_lo + i for i < {n} must lie in [0, 2**64), "
                         f"got stream_lo = {stream_lo!r}")
    names = {"ctr": "ctr0", "x": "x0", "v": "v0", **(names or {})}
    columns = {"ctr": _uint64("ctr0", 0 if ctr0 is None else ctr0),
               **{name: np.require(values, np.float64, "C") for name, values in columns.items()}}
    for name, col in columns.items():
        if not np.isfinite(col).all():
            raise ValueError(f"{names[name]} must be finite")
        if col.shape not in ((), (n,)):
            raise ValueError(f"{names[name]} must be one value or one per particle "
                             f"(n = {n}), got shape {col.shape}")
    out = tuple(np.empty(n, dtype=d) for d in dtypes) if out is None else tuple(out)
    if len(out) not in (1, len(dtypes)) or not all(
            isinstance(a, np.ndarray) and a.dtype == d and a.shape == (n,)
            and a.flags.c_contiguous and a.flags.writeable for a, d in zip(out, dtypes)):
        raise ValueError(f"out must hold the first record alone or all {len(dtypes)}: arrays, "
                         f"each writable, contiguous, of {n} and of dtype "
                         f"{[np.dtype(d).name for d in dtypes]}")
    if any(np.shares_memory(a, b) for k, a in enumerate(out)
           for b in (*out[k + 1:], *columns.values())):
        raise ValueError("out arrays must share no memory with each other or with the inputs")
    columns = {name: np.broadcast_to(col, (n,)) if col.ndim == 0 else col
               for name, col in columns.items()}

    def run(a, b):
        return step(int(lo) + a, [o[a:b] for o in out],
                    **{name: col[a:b] for name, col in columns.items()})

    return out, run


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
    if not 1 <= n_steps < 2**63 or int(n_steps) != n_steps:
        raise ValueError(f"n_steps must be a positive integer below 2**63, got {n_steps}")
    return int(n_steps)


def _time_left(name, value):
    # the one time left of every particle, as a float, checked finite and >= 0
    if np.ndim(value) or not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite, >= 0 and one value for all, got {value!r}")
    return float(value)


def _addr(a):
    # a writable, contiguous, nonempty array's data, 4x cheaper than a.ctypes.data
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _col(a):
    # a column's data, read in place, and its element stride: 1, or 0 for one value for all
    return a.ctypes.data, int(a.strides[0] != 0)


class _UFunc(ctypes.Structure):  # the leading fields of numpy's PyUFuncObject (ufuncobject.h)
    _fields_ = [("head", ctypes.c_void_p * 2), ("nin_nout_nargs_identity", ctypes.c_int * 4),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)), ("ntypes", ctypes.c_int)]


def _float64_loop(ufunc):
    """The inner loop, and its data, that numpy runs a unary ufunc with on
    float64: its first d->d loop, a `struct loop` of `_draws.c`. Raises
    ImportError if it has none or its fields do not read back as numpy's."""
    u = _UFunc.from_address(id(ufunc))
    if u.ntypes != len(ufunc.types) or "d->d" not in ufunc.types:
        raise ImportError(f"kdmc found no float64 loop of numpy's {ufunc.__name__}")
    k = ufunc.types.index("d->d")
    return u.functions[k], u.data[k]


def _numpy_loops():
    """np.log's and np.exp's loops; raises ImportError unless, called from C
    on unaligned lattice values, they give numpy's bits."""
    loops = (ctypes.c_void_p * 4)(*_float64_loop(np.log), *_float64_loop(np.exp))
    u, got = _stream_draws(_draws.uniforms, 1, 0, 0, np.empty(256), 1.0), np.empty(257)[1:]
    for k, (ufunc, a) in enumerate(((np.log, u), (np.exp, -745.0 * u))):
        got[:] = a
        _draws.numpy_loop(ctypes.byref(loops, 16 * k), _addr(got), got.size)
        if not np.array_equal(got.view(np.uint64), ufunc(a).view(np.uint64)):
            raise ImportError(f"numpy's {ufunc.__name__} loop, called from C, changed its bits")
    return loops


_LOOPS = _numpy_loops()


def lockstep(kind, params, seed, rem, stream_lo, out, kd=None, n_steps=0, *, ctr, x, v):
    """Run a particle population to the end in lockstep rounds of flights
    and collisions, and write each particle's records; returns the wall
    seconds of the rounds and the number of collisions.

    Particle i draws from stream stream_lo + i under seed, an int. Every
    particle starts with time left rem, a float, and for KD, whose `struct
    kd` constants kd holds, with n_steps steps not yet started. The columns
    ctr (next counters), x and v are 8-byte values over the particles, as
    `ensemble_io` hands them to a step, read at their element stride, 0 for
    one value for all, and never written: they may be the caller's inputs.
    out holds the records in `RECORDS` order: x alone, x, v and collisions,
    or all five. In round r every particle still running draws its flight
    dtau = (eps^2 / sigma) Exp(1) at its next counter. Time left is the only
    exit: a particle whose flight reaches rem finishes with r collisions at
    x + (v / eps) tail, where tail = rem is its last flight, and its records
    are x, v, r, its round-0 flight's overlap with the time left and tail.
    The others collide, in the move `kind` picks: KINETIC moves a particle
    by its flight and draws its velocity, ORACLE moves it at a fresh
    velocity and leaves its pinned v alone, and KD, after `kd_steps`, also
    takes the Gaussian substep and sets rem to the steps not yet started,
    so a particle past its last step finishes at its next flight.

    The engine, `_draws.lockstep`, runs the population in one C call with
    the GIL released, in blocks of 256 particles. Each block runs all its
    rounds on columns of its own, so a chunk allocates no work arrays. Its
    `log` and `exp` are numpy's own float64 loops, called from C.
    """
    t_loop, n = time.perf_counter(), out[0].size
    records = [_addr(a) for a in out] + [None] * (len(RECORDS) - len(out))
    collisions = _draws.lockstep(
        kind, seed, stream_lo, _LOOPS, kd, n_steps, rem, *_col(ctr), *_col(x), *_col(v),
        *records, params.eps * params.eps / params.sigma, params.eps,
        math.sqrt(params.temperature), params.eps * params.u, n)
    return time.perf_counter() - t_loop, collisions


def map_chunked(fn, n, threads=1, chunk=CHUNK):
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
