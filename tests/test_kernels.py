"""The lockstep engine's C kernels (flights, collide, kd_steps, compact,
normals, ndtri and the moment kernels) against test-local copies of the
numpy code they replaced, bit for bit, one kernel at a time and as whole
ensembles."""

import ctypes
import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri

from kdmc import BackgroundParams, ParticleState, RngStream
from kdmc.core import (
    KD,
    KINETIC,
    ORACLE,
    _draws,
    collision,
    exponential_keyed,
    normal_keyed,
    stream_keys,
)
from kdmc.kd import _kd_collision, kd_ensemble, random_walk_ensemble
from kdmc.kinetic import kinetic_ensemble, simulate_kinetic
from kdmc.moments import A_SMALL, _kernel_table, _substep_constants
from kdmc.oracles import conditioned_increment_ensemble
from conftest import EDGE_COUNTERS, ROUND_ZERO_POPULATIONS, round_zero_inputs, same_bits

PARAMS = BackgroundParams(1.3, 0.7, 2.0, 0.6)
SIZES = [40, 255, 256, 257, 700]  # one block and less, the block edge, several blocks


# ---------------------------------------------------------------------------
# the numpy engine the kernels replaced: lockstep with boolean-mask gathers,
# and each driver's numpy collision


def numpy_lockstep(live, scale, finish, collide):
    idx = None
    rnd = 0

    def retire(done, flew):
        nonlocal idx
        everyone = done.all()
        if rnd:
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


def numpy_collide(kind, live, dtau, params):
    """The drivers' numpy collisions, in their operation order; KD returns
    its substep normals."""
    mean, sd = params.eps * params.u, math.sqrt(params.temperature)
    if kind == ORACLE:
        w = normal_keyed(live["keys"], live["ctr"])
        w *= sd
        w += mean
        live["ctr"] += np.uint64(1)
        w /= params.eps
        w *= dtau
        live["x"] += w
        live["rem"] -= dtau
        return None
    live["x"] += (live["v"] / params.eps) * dtau
    if kind == KINETIC:
        live["rem"] -= dtau
    v = normal_keyed(live["keys"], live["ctr"])
    v *= sd
    v += mean
    live["v"] = v
    live["ctr"] += np.uint64(1)
    if kind == KD:
        z = normal_keyed(live["keys"], live["ctr"])
        live["ctr"] += np.uint64(1)
        return z
    return None


def numpy_kinetic(params, x0, v0, duration, seed, ctr0):
    n = x0.size
    scale = params.eps * params.eps / params.sigma
    out_x = x0 + (v0 / params.eps) * duration
    out_v, out_coll = v0.copy(), np.zeros(n, dtype=np.int64)
    out_first, out_last = np.full(n, float(duration)), np.full(n, float(duration))
    live = {"keys": stream_keys(seed, np.arange(n, dtype=np.uint64)), "ctr": ctr0.copy(),
            "rem": np.full(n, float(duration)), "x": x0.copy(), "v": v0}

    def finish(fin, slots, rnd, tail):
        vf = live["v"][fin]
        out_x[slots] = live["x"][fin] + (vf / params.eps) * tail
        out_v[slots] = vf
        out_coll[slots] = rnd
        out_first[slots] = live["first"][fin]
        out_last[slots] = tail

    def collide(dtau):
        live.setdefault("first", dtau)
        numpy_collide(KINETIC, live, dtau, params)

    numpy_lockstep(live, scale, finish, collide)
    return out_x, out_v, out_coll, out_first, out_last


def numpy_remainder(dtau, dt, left):
    theta = dt - dtau
    left -= 1
    far = np.flatnonzero(dtau >= dt)
    if far.size:
        dtau_far = dtau[far]
        j = np.minimum((dtau_far // dt).astype(np.int64), left[far])
        theta[far] = dt - (dtau_far - j * dt)
        left[far] -= j
    np.maximum(theta, 0.0, out=theta)
    return np.minimum(theta, dt, out=theta)


def numpy_kernel_table(a):
    """The four moment kernels with numpy's series patch below 1e-3."""
    ea = np.exp(-a)
    e2a = ea * ea
    k = [ea - 1.0 + a, 1.0 - ea, 1.0 - 2.0 * a * ea - e2a, 2.0 * ea + a + a * ea - 2.0]
    small = a < 1e-3
    s = a[small]
    s3 = s * s * s
    k[0][small] = s * s * (1.0 / 2 + s * (-1.0 / 6 + s * (1.0 / 24 + s * (-1.0 / 120 + s / 720))))
    k[1][small] = s * (1.0 + s * (-1.0 / 2 + s * (1.0 / 6 + s * (-1.0 / 24 + s / 120))))
    k[2][small] = s3 * (1.0 / 3 + s * (-1.0 / 3 + s * (11.0 / 60 - s * 13.0 / 180)))
    k[3][small] = s3 * (1.0 / 6 + s * (-1.0 / 12 + s * (1.0 / 40 - s / 180)))
    return k


def numpy_mean_var(params, theta, v_final):
    _, k2, k3, k4 = numpy_kernel_table(params.collisionality(theta))
    drift = v_final / params.eps - params.u
    rate_scale = params.eps**2 / params.sigma
    diffusive = 2.0 * params.temperature * (params.eps / params.sigma) ** 2
    mean = params.u * theta + drift * rate_scale * k2
    return mean, diffusive * k4 + drift * drift * rate_scale * rate_scale * k3


def numpy_kd_collide(live, dtau, params, dt):
    """kd_ensemble's numpy collision; returns the done mask."""
    theta = numpy_remainder(dtau, dt, live["left"])
    z = numpy_collide(KD, live, dtau, params)
    mean, var = numpy_mean_var(params, theta, live["v"])
    live["x"] += np.sqrt(var) * z + mean
    live["rem"] = live["left"] * dt
    return live["left"] == 0


def numpy_kd(params, x0, v0, dt, n_steps, seed, ctr0):
    n = x0.size
    out_x = x0 + (v0 / params.eps) * (n_steps * dt)
    out_v, out_coll = v0.copy(), np.zeros(n, dtype=np.int64)
    live = {"keys": stream_keys(seed, np.arange(n, dtype=np.uint64)), "ctr": ctr0.copy(),
            "rem": np.full(n, n_steps * dt), "left": np.full(n, n_steps, dtype=np.int64),
            "x": x0.copy(), "v": v0.copy()}

    def finish(fin, slots, rnd, tail):
        x, v = live["x"][fin], live["v"][fin]
        out_x[slots] = x if tail is None else x + (v / params.eps) * tail
        out_v[slots] = v
        out_coll[slots] = rnd

    numpy_lockstep(live, params.eps * params.eps / params.sigma, finish,
                   lambda dtau: numpy_kd_collide(live, dtau, params, dt))
    return out_x, out_v, out_coll


def numpy_oracle(params, durations, v_final, seed, ctr0):
    n = durations.size
    live = {"keys": stream_keys(seed, np.arange(n, dtype=np.uint64)), "ctr": ctr0.copy(),
            "rem": durations.copy(), "x": np.zeros(n), "vf": v_final}
    out = np.zeros(n) + (v_final / params.eps) * durations

    def finish(fin, slots, rnd, tail):
        out[slots] = live["x"][fin] + (live["vf"][fin] / params.eps) * tail

    numpy_lockstep(live, params.eps * params.eps / params.sigma, finish,
                   lambda dtau: numpy_collide(ORACLE, live, dtau, params))
    return out


# ---------------------------------------------------------------------------
# one kernel at a time


def addr(a):
    return a.ctypes.data


def population(n, seed=3):
    rng = np.random.default_rng(seed)
    return {"keys": stream_keys(seed, np.arange(n, dtype=np.uint64)),
            "ctr": rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            "rem": rng.uniform(0.0, 1.0, n), "x": rng.normal(size=n), "v": rng.normal(size=n)}


def copy_of(live):
    return {name: a.copy() for name, a in live.items()}


@pytest.mark.parametrize("n", SIZES)
def test_flights(n):
    live = population(n)
    lg = np.log(np.random.default_rng(n).uniform(2.0**-53, 1.0, n))
    scale, done = 0.37, np.empty(n, dtype=np.bool_)
    want = np.negative(lg) * scale
    live["rem"][::3] = want[::3]  # a flight that exactly reaches its remaining time is done
    eps = 0.6
    before = copy_of(live)
    # round 0 reads its inputs and presets out_x; later rounds step the counters
    out_x = np.full(n, np.nan)
    dtau = lg.copy()
    count = _draws.flights(addr(live["rem"]), 1, addr(dtau), None, addr(done), addr(live["x"]), 1,
                           addr(live["v"]), 1, addr(out_x), scale, eps, n)
    assert same_bits(dtau, want)
    assert np.array_equal(done, want >= live["rem"]) and count == done.sum()
    assert same_bits(out_x, (live["v"] / eps) * live["rem"] + live["x"])
    for name in live:
        assert same_bits(live[name], before[name]), name
    done[:] = False
    ctr = live["ctr"].copy()
    count = _draws.flights(addr(live["rem"]), 1, addr(lg), addr(ctr), addr(done), None, 0, None, 0,
                           None, scale, eps, n)
    assert same_bits(lg, want)
    assert np.array_equal(ctr, live["ctr"] + np.uint64(1))
    assert np.array_equal(done, want >= live["rem"]) and count == done.sum()


def kd_constants(params, dt):
    return (ctypes.c_double * 6)(*_substep_constants(params, dt))


def kd_steps(dtau, dt, left, params=PARAMS):
    """The C step pass alone: returns theta and -a; left drops in place."""
    theta, nega = np.empty_like(dtau), np.empty_like(dtau)
    _draws.kd_steps(kd_constants(params, dt), addr(dtau), addr(left), addr(theta), addr(nega),
                    dtau.size)
    return theta, nega


def kd_collision(live, dtau, params, dt):
    """The C KD collision; returns the mask of particles it left without
    time, which the engine finishes at their next flight."""
    _kd_collision(live, dtau, params, kd_constants(params, dt), np.empty(dtau.size))
    return live["rem"] == 0


@pytest.mark.parametrize("kind", [KINETIC, ORACLE, KD], ids=["kinetic", "oracle", "kd"])
@pytest.mark.parametrize("n", SIZES)
def test_collide(kind, n):
    live = population(n)
    dtau = np.random.default_rng(n + 1).exponential(0.3, n)
    if kind == KD:
        live["left"] = np.random.default_rng(n + 2).integers(1, 6, n)  # some clamps bind
    want = copy_of(live)
    if kind == KD:
        dt = 0.1
        done_want = numpy_kd_collide(want, dtau, PARAMS, dt)
        assert np.array_equal(kd_collision(live, dtau, PARAMS, dt), done_want)
    else:
        numpy_collide(kind, want, dtau, PARAMS)
        collision(kind, live, dtau, PARAMS)
    for name in live:
        assert same_bits(live[name], want[name]), name


def step_edges(dt, k, rng):
    # flights within 3 ulp of whole steps k dt
    return np.abs(k * dt + rng.integers(-3, 4, k.size) * np.spacing(dt * np.maximum(k, 1)))


@pytest.mark.parametrize("dt", [0.01, 0.1, 0.3, 1.0 / 3.0])
def test_collision_remainder(dt):
    rng = np.random.default_rng(8)
    edge = step_edges(dt, rng.integers(0, 6, 4000), rng)
    dtau = np.concatenate([rng.exponential(dt, 4000), edge, [0.0, dt, 5e-324]])
    left = rng.integers(1, 5, dtau.size)
    left_want = left.copy()
    want = numpy_remainder(dtau, dt, left_want)
    theta, nega = kd_steps(dtau, dt, left)
    assert same_bits(theta, want)
    assert np.array_equal(left, left_want)
    assert same_bits(nega, np.negative(PARAMS.collisionality(want)))
    # both clamps bind: theta = 0 where left cuts a flight short, and theta
    # = dt at dtau = 0 and at whole steps
    assert ((0.0 <= want) & (want <= dt)).all()
    assert (want == 0.0).any() and (want == dt).any()


@pytest.mark.parametrize("dt", [0.01, 0.1, 0.3, 1.0 / 3.0, 0.7, 1e-5])
def test_step_quotient_is_numpy_floor_divide(dt):
    # with left far off, a flight's steps show its quotient: left drops by
    # 1 + dtau // dt, also where the rounded dtau / dt reaches the next whole
    # number and its floor is one too many
    rng = np.random.default_rng(11)
    k = np.concatenate([np.arange(0, 2000), rng.integers(0, 1 << 20, 4000)])
    dtau = np.concatenate([step_edges(dt, k, rng), k * dt, np.nextafter(k * dt, 0.0),
                           rng.exponential(50 * dt, 4000)])
    left = np.full(dtau.size, 1 << 40)
    kd_steps(dtau, dt, left)
    want = np.floor_divide(dtau, dt)
    assert np.array_equal((1 << 40) - 1 - left, want.astype(np.int64))
    assert (np.floor(dtau / dt) != want).any()


def test_kd_collision_edges_in_one_block():
    # sigma = eps = 1 makes a = theta, and dt = 2 A_SMALL makes theta = dt -
    # dtau exact: a within 4 ulp of A_SMALL takes both kernel branches and
    # the switch itself, in one block of 256 with flights at whole steps
    # +- 3 ulp, theta = 0 (the left clamp) and theta = dt (dtau = 0)
    p = BackgroundParams(1.0, 0.7, 2.0, 1.0)
    dt = 2.0 * A_SMALL
    rng = np.random.default_rng(12)
    near = dt - (A_SMALL + np.arange(-4, 5) * np.spacing(A_SMALL))
    edge = step_edges(dt, np.repeat(np.arange(1, 4), 7), rng)
    dtau = np.concatenate([near, edge, [0.0, 5.0 * dt], rng.exponential(dt, 256 - 32)])
    live = population(256)
    live["left"] = np.full(256, 4)
    live["left"][31] = 2  # the flight of 5 dt is cut short
    want = copy_of(live)
    left = want["left"].copy()
    theta = numpy_remainder(dtau, dt, left)
    a = p.collisionality(theta)
    assert (a < A_SMALL).any() and (a == A_SMALL).any() and (a > A_SMALL).any()
    assert theta[31] == 0.0 and theta[30] == dt and (left == 0).any()
    done_want = numpy_kd_collide(want, dtau, p, dt)
    assert np.array_equal(kd_collision(live, dtau, p, dt), done_want)
    for name in live:
        assert same_bits(live[name], want[name]), name


def test_kernel_table_matches_numpy():
    assert A_SMALL == 1e-3
    edge = A_SMALL + np.arange(-4096, 4097) * np.spacing(A_SMALL)
    wide = np.concatenate([[0.0, 5e-324], np.logspace(-320, 300, 20_001)])
    for a in (edge, wide, edge[::-7].reshape(1, -1)):
        kernels, scalar = _kernel_table(a)
        assert not scalar
        for k, want in zip(kernels, numpy_kernel_table(a)):
            assert same_bits(k, want)
    kernels, scalar = _kernel_table(A_SMALL)
    assert scalar and all(same_bits(k, w) for k, w in
                          zip(kernels, numpy_kernel_table(np.array([A_SMALL]))))


def test_normals_match_the_uniforms_through_scipy():
    live = population(1000)
    u = np.empty(1000)
    _draws.uniforms(addr(live["keys"]), 0, 0, addr(live["ctr"]), 1, 0.5, addr(u), u.size)
    assert same_bits(normal_keyed(live["keys"], live["ctr"]), scipy_ndtri(u))


def compact(done, cols, slots, fresh):
    ptrs = (ctypes.c_void_p * (len(cols) + 1))(*(addr(a) for a in (*cols, slots)))
    return _draws.compact(addr(done), done.size, ptrs, len(cols), fresh)


MASKS = {
    "all-done": lambda n, rng: np.ones(n, dtype=np.bool_),
    "none-done": lambda n, rng: np.zeros(n, dtype=np.bool_),
    "alternating": lambda n, rng: np.arange(n) % 2 == 0,
    "random": lambda n, rng: rng.random(n) < 0.5,
    "few-done": lambda n, rng: rng.random(n) < 0.01,
}


@pytest.mark.parametrize("mask", sorted(MASKS))
@pytest.mark.parametrize("n", SIZES)
def test_compact(mask, n):
    rng = np.random.default_rng(n)
    done = MASKS[mask](n, rng)
    cols = [rng.normal(size=n), rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
            rng.integers(-9, 9, n)]
    before = [a.copy() for a in cols]
    keep = np.flatnonzero(~done)
    left = keep.size
    # fresh: the slots start as the positions 0, 1, ... and end naming the
    # position each kept row came from
    slots = np.arange(left)
    assert compact(done, cols, slots, True) == left
    assert np.array_equal(np.sort(slots), keep)  # the unfinished particles, each once
    for a, b in zip(cols, before):
        assert same_bits(a[:left], b[slots])
    # only finished particles' places are refilled: a kept particle below the
    # count stays where it was
    stay = keep[keep < left]
    assert np.array_equal(slots[stay], stay)
    # later rounds: the slots are a column, moved as the fresh mode moves them
    ids = rng.permutation(n).astype(np.int64)
    got, moved = [b.copy() for b in before], ids.copy()
    assert compact(done, got, moved, False) == left
    assert np.array_equal(moved[:left], ids[slots])
    for a, b in zip(got, cols):
        assert same_bits(a[:left], b[:left])


class TestNdtriBlocks:
    """ndtri runs blocks of 256; the tails are gathered per block."""

    def check(self, u):
        x = np.array(u, dtype=np.float64)
        _draws.ndtri(addr(x), x.size)
        assert same_bits(x, scipy_ndtri(u))

    @pytest.mark.parametrize("at", [0, 254, 255, 256, 257, 511, 512])
    def test_tail_at_block_edges(self, at):
        u = np.full(800, 0.5)
        u[at] = 1e-5
        u[at + 1] = 1.0 - 1e-5
        self.check(u)

    def test_all_tail_blocks(self):
        rng = np.random.default_rng(4)
        u = np.concatenate([rng.uniform(0.0, 0.1, 300), rng.uniform(0.9, 1.0, 300)])
        self.check(u)

    def test_far_tail_blocks(self):
        # u < e^-32 takes the x >= 8 rational; only some blocks hold one
        rng = np.random.default_rng(5)
        u = rng.uniform(0.0, 1.0, 1024)
        u[[3, 300, 767]] = math.exp(-32.0) * np.array([0.5, 1e-20, 0.999])
        u[600] = 1.0 - 2.0**-53
        u[[0, 1023]] = 0.0, 1.0
        self.check(u)


# ---------------------------------------------------------------------------
# whole ensembles against the numpy engine


@pytest.fixture
def interleaved():
    # the kernels run outside the GIL, so chunks draw concurrently; more
    # threads than cores and a short switch interval interleave them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield (1, 2, 4)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
@pytest.mark.parametrize("n", [40, 257])
def test_kinetic_ensemble_matches_numpy_engine(horizon, least, most, n, interleaved):
    p, x0, v0, ctr0 = round_zero_inputs(n)
    want = numpy_kinetic(p, x0, v0, horizon, 9, ctr0)
    for threads in interleaved:
        for chunk in (7, 1 << 16):
            got = kinetic_ensemble(p, x0, v0, horizon, 9, ctr0=ctr0, threads=threads, chunk=chunk)
            for a, b in zip((got.x, got.v, got.collisions, got.first_overlap, got.last_overlap),
                            want):
                assert same_bits(a, b)
    if n == 40:
        assert least <= np.count_nonzero(want[2]) <= most


@pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
@pytest.mark.parametrize("n", [40, 257])
def test_kd_ensemble_matches_numpy_engine(horizon, least, most, n, interleaved):
    p, x0, v0, ctr0 = round_zero_inputs(n)
    n_steps = 4
    dt = horizon / n_steps
    want = numpy_kd(p, x0, v0, dt, n_steps, 9, ctr0)
    for threads in interleaved:
        for chunk in (7, 1 << 16):
            got = kd_ensemble(p, x0, v0, dt, n_steps, 9, ctr0=ctr0, threads=threads, chunk=chunk)
            for a, b in zip((got.x, got.v, got.collisions), want):
                assert same_bits(a, b)
    if n == 40:
        assert least <= np.count_nonzero(want[2]) <= most


HORIZONS = [pytest.param(p.values[0], id=p.id) for p in ROUND_ZERO_POPULATIONS]


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("n", [40, 257])
def test_oracle_matches_numpy_engine(horizon, n, interleaved):
    p, _, v_final, ctr0 = round_zero_inputs(n)
    durations = np.full(n, horizon)
    durations[::5] *= 0.5  # per-path durations
    want = numpy_oracle(p, durations, v_final, 9, ctr0)
    for threads in interleaved:
        for chunk in (7, 1 << 16):
            got = conditioned_increment_ensemble(p, durations, v_final, seed=9, ctr0=ctr0,
                                                 threads=threads, chunk=chunk)
            assert same_bits(got, want)


def test_inputs_are_not_written():
    # round 0 reads x0, v0, ctr0, durations and v_final where they are, so
    # read-only inputs work and come back bit for bit, whether none, some or
    # all particles finish in round 0; strided views run as their
    # contiguous copies
    for population in ROUND_ZERO_POPULATIONS:
        horizon, least, most = population.values
        p, x0, v0, ctr0 = round_zero_inputs()
        durations = np.full(x0.size, horizon)
        durations[::5] *= 0.5
        inputs = (x0, v0, ctr0, durations)
        saved = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False

        def run(x0, v0, ctr0, durations):
            kin = kinetic_ensemble(p, x0, v0, horizon, 9, ctr0=ctr0, chunk=16)
            kd = kd_ensemble(p, x0, v0, horizon / 4, 4, 9, ctr0=ctr0, chunk=16)
            dx = conditioned_increment_ensemble(p, durations, v0, seed=9, ctr0=ctr0, chunk=16)
            return kin.collisions, (kin.x, kin.v, kd.x, kd.v, dx)

        collisions, got = run(*inputs)
        assert least <= np.count_nonzero(collisions) <= most
        for a, b in zip(inputs, saved):
            assert same_bits(a, b)
        _, strided = run(*(np.repeat(a, 2)[::2] for a in saved))
        for a, b in zip(strided, got):
            assert same_bits(a, b)


@pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
@pytest.mark.parametrize("threads", [1, 3])
def test_partial_records_keep_the_bits(horizon, least, most, threads):
    # out= with any records left out (None) writes the others bit for bit as
    # the full records, and total_collisions needs no collisions record
    p, x0, v0, ctr0 = round_zero_inputs()
    run = dict(seed=9, ctr0=ctr0, chunk=16, threads=threads)
    for ensemble, args in ((kinetic_ensemble, (horizon,)), (kd_ensemble, (horizon / 4, 4))):
        full = ensemble(p, x0, v0, *args, **run)
        records = [getattr(full, f.name) for f in dataclasses.fields(full)][:-2]
        assert least <= np.count_nonzero(full.collisions) <= most
        assert full.total_collisions == full.collisions.sum()
        for kept in itertools.product((False, True), repeat=len(records) - 1):
            out = [np.empty_like(records[0])] + [np.empty_like(r) if k else None
                                                 for k, r in zip(kept, records[1:])]
            # an out that ends early leaves the records past its end out
            while len(out) > 1 and out[-1] is None:
                out.pop()
            got = ensemble(p, x0, v0, *args, out=out, **run)
            assert got.total_collisions == full.total_collisions
            out += [None] * (len(records) - len(out))
            for a, o, want in zip([getattr(got, f.name) for f in dataclasses.fields(got)], out,
                                  records):
                assert a is o and (o is None or same_bits(o, want))


@pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
@pytest.mark.parametrize("threads", [1, 3])
def test_one_value_for_all_keeps_the_bits(horizon, least, most, threads):
    # a scalar ctr0, durations or v_final, read as a stride-0 view, gives the
    # bits of a per-particle array filled with that value
    p, x0, v0, ctr0 = round_zero_inputs()
    n, c, vf = x0.size, ctr0[5], v0[5]
    run = dict(seed=9, chunk=16, threads=threads)
    for scalar, filled in ((c, np.full(n, c, dtype=np.uint64)), (int(c), np.full(n, c))):
        for ensemble, args in ((kinetic_ensemble, (x0, v0, horizon)),
                               (kd_ensemble, (x0, v0, horizon / 4, 4))):
            a, b = ensemble(p, *args, ctr0=scalar, **run), ensemble(p, *args, ctr0=filled, **run)
            assert all(same_bits(getattr(a, k), getattr(b, k)) for k in ("x", "v", "collisions"))
            assert a.total_collisions == b.total_collisions
        assert same_bits(random_walk_ensemble(p, x0, horizon / 4, 4, ctr0=scalar, **run),
                         random_walk_ensemble(p, x0, horizon / 4, 4, ctr0=filled, **run))
    got = conditioned_increment_ensemble(p, horizon, vf, n=n, ctr0=c, **run)
    assert same_bits(got, conditioned_increment_ensemble(p, np.full(n, horizon), np.full(n, vf),
                                                         ctr0=np.full(n, c), **run))


def test_round_zero_hashes_the_keys_of_its_streams():
    # uniforms with no keys hashes particle i's key from stream lo + i, and
    # stream_keys from lo + a slot, as stream_keys does from the ids, at the
    # top of the stream range and the counter edges, whole or one for all
    n, seed = 256, 2**64 - 5
    lo = 2**64 - n
    keys = stream_keys(seed, np.arange(lo, 2**64, dtype=np.uint64))
    ctr = np.array(EDGE_COUNTERS * (n // len(EDGE_COUNTERS)), dtype=np.uint64)
    for c in [ctr] + [np.broadcast_to(np.uint64(e), (n,)) for e in EDGE_COUNTERS]:
        want, got, whole = np.empty(n), np.empty(n), np.ascontiguousarray(c)
        _draws.uniforms(addr(keys), 0, 0, addr(whole), 1, 1.0, addr(want), n)
        _draws.uniforms(None, seed, lo, addr(c), c.strides[0] // 8, 1.0, addr(got), n)
        assert same_bits(got, want)
    slots = np.array([0, 5, n - 1, 7, n - 2])
    got = np.empty(slots.size, dtype=np.uint64)
    _draws.stream_keys(seed, lo, addr(slots), addr(got), slots.size)
    assert np.array_equal(got, keys[slots])
    _draws.stream_keys(seed, lo, None, addr(got), slots.size)
    assert np.array_equal(got, keys[:slots.size])


@pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
def test_last_stream_window_matches_the_scalar_stepper(horizon, least, most):
    # the fused round-0 hash and the survivors' keys at stream_lo = 2**64 - n,
    # with counters at both ends of their range
    p, x0, v0, ctr0 = round_zero_inputs()
    n = x0.size
    ctr0[:len(EDGE_COUNTERS)] = EDGE_COUNTERS
    lo = 2**64 - n
    ens = kinetic_ensemble(p, x0, v0, horizon, 9, stream_lo=lo, ctr0=ctr0, chunk=16)
    assert least <= np.count_nonzero(ens.collisions) <= most
    for i in range(n):
        rec = simulate_kinetic(ParticleState(x0[i], v0[i]), horizon, p,
                               RngStream(9, lo + i, counter=int(ctr0[i])))
        assert (rec.final_state.x, rec.final_state.v) == (ens.x[i], ens.v[i])
        assert rec.collisions_executed == ens.collisions[i]
