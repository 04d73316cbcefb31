import ctypes
import importlib
import math
import pkgutil
import time

import numpy as np
import pytest
from scipy.special import ndtri

import kdmc

from kdmc import (
    BackgroundParams,
    ParticleState,
    RngStream,
    sample_maxwellian,
)
from kdmc import kd as kd_module
from kdmc import kinetic as kinetic_module
from kdmc import oracles as oracles_module
from kdmc.core import (
    KD,
    RECORDS,
    exponential_keyed,
    lockstep,
    map_chunked,
    normal_from_counter,
    normal_keyed,
    ensemble_io,
    step_count,
    stream_keys,
    uniform_open_closed,
)
from kdmc.kd import simulate_kd
from kdmc.moments import _substep_constants
from conftest import EDGE_COUNTERS, StubRng, moment_check

_MASK = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def reference_bits(seed, streams, counters):
    """splitmix64 on Python ints: key = mix(seed ^ mix(stream + phi)), then
    bits = mix(key + (counter + 1) phi), all modulo 2**64."""
    out = []
    for s, c in np.broadcast(streams, counters):
        key = _mix(seed ^ _mix((int(s) + _PHI) & _MASK))
        out.append(_mix((key + (int(c) + 1) * _PHI) & _MASK))
    return np.array(out, dtype=np.uint64)


def reference_uniforms(seed, streams, counters, offset):
    """((bits >> 11) + offset) * 2**-53: offset 1 maps onto (0, 1], 0.5 onto
    (0, 1)."""
    bits = reference_bits(seed, streams, counters)
    return np.array([(float(int(b) >> 11) + offset) * 2.0**-53 for b in bits])


# each keyed draw: its uniform offset and the inverse CDF applied to it
REFERENCE = {
    exponential_keyed: (1.0, lambda u: -np.log(u)),
    normal_keyed: (0.5, ndtri),
}


class TestBackgroundParams:
    def test_valid(self):
        p = BackgroundParams(2.0, -1.0, 0.5, 0.1)
        assert p.collisionality(1.0) == pytest.approx(2.0 / 0.01)
        assert np.isfinite(p.collisionality(1e6))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0, u=0.0, temperature=1.0, eps=1.0),
            dict(sigma=-1.0, u=0.0, temperature=1.0, eps=1.0),
            dict(sigma=1.0, u=0.0, temperature=0.0, eps=1.0),
            dict(sigma=1.0, u=0.0, temperature=1.0, eps=0.0),
            dict(sigma=np.inf, u=0.0, temperature=1.0, eps=1.0),
            dict(sigma=1.0, u=np.nan, temperature=1.0, eps=1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BackgroundParams(**kwargs)

    def test_particle_state_finite(self):
        with pytest.raises(ValueError):
            ParticleState(np.nan, 0.0, 0.0)


class TestRngStream:
    def test_replay_exact(self):
        a = RngStream(12345, 7)
        b = RngStream(12345, 7)
        assert np.array_equal(a.normal(size=100), b.normal(size=100))
        assert a.counter == b.counter == 100

    def test_draws_are_pure_functions_of_counter(self):
        # jumping the counter reproduces the tail of the sequence exactly
        a = RngStream(9, 3)
        seq = a.exponential(size=50)
        b = RngStream(9, 3, counter=20)
        assert np.array_equal(seq[20:], b.exponential(size=30))

    def test_distinct_streams_differ(self):
        a = RngStream(1, 0).exponential(size=64)
        b = RngStream(1, 1).exponential(size=64)
        assert not np.array_equal(a, b)
        # and are uncorrelated to MC accuracy
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.5

    def test_keyed_matches_unkeyed(self):
        # a stream's scalar draws are the keyed draws at its (seed, stream)
        for stream, ctr in enumerate(EDGE_COUNTERS + [17]):
            rng = RngStream(321, stream, counter=ctr)
            for draw, (offset, inverse_cdf) in (("exponential", REFERENCE[exponential_keyed]),
                                                ("normal", REFERENCE[normal_keyed])):
                want = inverse_cdf(reference_uniforms(321, stream, np.uint64(ctr), offset))
                assert getattr(rng, draw)() == want[0]
                ctr = (ctr + 1) % 2**64

    def test_uniform_open_closed_excludes_zero(self):
        u = uniform_open_closed(2, 0, np.arange(200_000, dtype=np.uint64))
        assert u.min() > 0.0
        assert u.max() <= 1.0

    def test_counter_wraps_like_keyed_draws(self):
        # the keyed draws take uint64 counters, so a stream wraps mod 2**64
        seed, stream = 1, 6
        wrap = np.array([2**64 - 1, 0, 1], dtype=np.uint64)
        keys = stream_keys(seed, np.full(3, stream, dtype=np.uint64))
        for draw, keyed in (("exponential", exponential_keyed), ("normal", normal_keyed)):
            want = keyed(keys, wrap)
            rng = RngStream(seed, stream, counter=2**64 - 1)
            scalar = [getattr(rng, draw)() for _ in range(3)]
            assert np.array_equal(scalar, want) and rng.counter == 2
            rng = RngStream(seed, stream, counter=2**64 - 1)
            assert np.array_equal(getattr(rng, draw)(size=3), want) and rng.counter == 2


class TestKeyedDraws:
    def test_match_unkeyed_bitwise_and_leave_arguments_alone(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        streams = rng.integers(0, 2**63, n, dtype=np.uint64)
        counters = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        counters[:4] = EDGE_COUNTERS
        keys = stream_keys(77, streams)
        keys_before, counters_before = keys.copy(), counters.copy()
        for keyed, (offset, inverse_cdf) in REFERENCE.items():
            got = keyed(keys, counters)
            want = inverse_cdf(reference_uniforms(77, streams, counters, offset))
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(keys, keys_before)
            assert np.array_equal(counters, counters_before)

    def test_broadcast_and_scalar_forms(self):
        streams = np.arange(50, dtype=np.uint64)
        keys = stream_keys(5, streams)
        ctr = np.uint64(2**64 - 1)
        for keyed, (offset, inverse_cdf) in REFERENCE.items():
            want = inverse_cdf(reference_uniforms(5, streams, ctr, offset))
            assert np.array_equal(keyed(keys, ctr), want)
            one = keyed(keys[7], np.uint64(3))
            assert np.ndim(one) == 0
            assert one == inverse_cdf(reference_uniforms(5, 7, 3, offset))[0]
        # the (seed, stream) forms the experiments call
        assert np.array_equal(normal_from_counter(5, streams, ctr), normal_keyed(keys, ctr))
        want = reference_uniforms(5, streams, ctr, 1.0)
        assert np.array_equal(uniform_open_closed(5, streams, ctr), want)
        assert uniform_open_closed(5, 7, 3) == reference_uniforms(5, 7, 3, 1.0)[0]

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, [1, 2]],
                             ids=["float", "negative", "past-2**64", "list"])
    def test_stream_keys_check_the_seed(self, seed):
        # as the ensembles do; the top seed is taken exactly, whatever its type
        with pytest.raises(ValueError, match="^seed must"):
            stream_keys(seed, 0)
        want = _mix((2**64 - 1) ^ _mix(7 + _PHI))
        assert stream_keys(2**64 - 1, 7) == stream_keys(np.uint64(2**64 - 1), 7) == want


class TestSampling:
    def test_maxwellian_pinned_draws(self):
        # mean of the distribution
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        assert sample_maxwellian(p, StubRng(normals=[0.0])) == 0.0
        # affine transform of a unit normal
        p = BackgroundParams(1.0, 3.0, 4.0, 0.5)
        assert sample_maxwellian(p, StubRng(normals=[1.0])) == pytest.approx(3.5)

    def test_maxwellian_moments(self):
        p = BackgroundParams(1.0, 1.0, 2.0, 1.0)
        rng = RngStream(42, 0)
        v = p.eps * p.u + np.sqrt(p.temperature) * rng.normal(size=1_000_000)
        assert abs(v.mean() - 1.0) <= 4 * np.sqrt(2.0 / 1e6)
        moment_check(v, target_var=2.0)

    def test_maxwellian_normality(self):
        n = 1_000_000
        z = RngStream(7, 0).normal(size=n)
        skew = np.mean(z**3)
        exkurt = np.mean(z**4) - 3.0
        assert abs(skew) < 5 * np.sqrt(6.0 / n)
        assert abs(exkurt) < 5 * np.sqrt(24.0 / n)

    def test_exponential_inverse_cdf(self):
        # a flight budget is -ln(u) of the (0, 1] uniform at the same counter
        u = uniform_open_closed(4, 2, np.arange(3, dtype=np.uint64))
        rng = RngStream(4, 2)
        assert [rng.exponential() for _ in range(3)] == list(-np.log(u))

    def test_exponential_moments(self):
        e = RngStream(3, 0).exponential(size=1_000_000)
        assert e.min() > 0.0 and np.isfinite(e).all()
        assert abs(e.mean() - 1.0) <= 0.004


class TestChunking:
    def test_thread_count_does_not_change_results(self):
        def fill(threads):
            out = np.full(10_000, np.nan)

            def work(lo, hi):
                ids = np.arange(lo, hi, dtype=np.uint64)
                out[lo:hi] = uniform_open_closed(11, ids, np.uint64(0))

            map_chunked(work, out.size, threads=threads, chunk=256)
            return out

        one = fill(1)
        assert np.isfinite(one).all()
        assert np.array_equal(one, fill(4))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_returns_chunk_values_in_chunk_order(self, threads):
        def work(lo, hi):
            time.sleep(0.02 if lo == 0 else 0.0)  # the first chunk ends last
            return lo, hi

        bounds = map_chunked(work, 1000, threads=threads, chunk=64)
        assert bounds == [(lo, min(lo + 64, 1000)) for lo in range(0, 1000, 64)]

    def test_rejects_empty(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                map_chunked(lambda lo, hi: None, n)


class TestLockstep:
    def test_time_left_is_the_only_exit(self):
        # KD steps of dt = 1e6, far above any flight, so each collision starts
        # exactly one step: particle k, run alone with k steps, collides k
        # times and finishes on the flight after its last step; particles 0
        # and 3 finish on their round-0 flights
        n, dt = 6, 1e6
        p = BackgroundParams(2.0, 0.0, 1.0, 0.5)  # flights of (eps^2 / sigma) Exp(1)
        keys = stream_keys(3, np.arange(n, dtype=np.uint64))
        ctr0 = np.arange(n, dtype=np.uint64) * np.uint64(7)
        first = exponential_keyed(keys, ctr0) * (p.eps * p.eps / p.sigma)
        rem0 = np.arange(n) * dt
        rem0[[0, 3]] = first[[0, 3]] / 2
        x0, v0 = np.arange(n) + 0.5, np.linspace(-1.0, 1.0, n)
        out_x, out_coll, out_last = np.full(n, np.nan), np.full(n, -1), np.full(n, np.nan)
        kd = (ctypes.c_double * 6)(*_substep_constants(p, dt))
        collisions = 0
        for k in range(n):
            one = slice(k, k + 1)
            records = (out_x[one], np.empty(1), out_coll[one], np.empty(1), out_last[one])
            collisions += lockstep(KD, p, 3, rem0[k], k, records, kd, k, ctr=ctr0[one],
                                   x=x0[one], v=v0[one])[1]
        # the particles that collide in rounds 1, 2, ...: those with that many collisions or more
        assert [np.count_nonzero(out_coll >= r) for r in range(1, 6)] == [4, 3, 2, 2, 1]
        # each particle's round, in its own slot, and a tail of 0 after its last collision
        assert out_coll.tolist() == [0, 1, 2, 0, 4, 5] and collisions == 12
        assert out_last[[1, 2, 4, 5]].tolist() == [0.0] * 4
        # round-0 finishers keep the preset x + (v / eps) rem and last overlap rem
        for k in (0, 3):
            assert out_x[k] == x0[k] + (v0[k] / p.eps) * rem0[k] and out_x[k] != x0[k]
            assert out_last[k] == rem0[k]
        # every position is the scalar stepper's, bit for bit: k steps of dt,
        # or for a round-0 finisher one step of its time left
        for k in range(n):
            step, steps = (rem0[k], 1) if k in (0, 3) else (dt, k)
            rec = simulate_kd(ParticleState(x0[k], v0[k]), step, steps * step, p,
                              RngStream(3, k, counter=int(ctr0[k])))
            assert (rec.final_state.x, rec.collisions_executed) == (out_x[k], out_coll[k])


class TestStepGrid:
    @pytest.mark.parametrize("span,dt,n", [(2.0, 0.5, 4), (0.3, 0.1, 3), (1.0, 1.0, 1)])
    def test_counts_whole_multiples(self, span, dt, n):
        assert step_count(span, dt) == n

    @pytest.mark.parametrize(
        "span,dt",
        [(1.5, 1.0), (0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5),
         (1.0, math.inf), (1.0, math.nan), (math.inf, 1.0), (math.nan, 1.0)],
    )
    def test_rejects_other_spans(self, span, dt):
        with pytest.raises(ValueError):
            step_count(span, dt)


def _ensemble(name, x0=(0.0, 0.0, 0.0), v=(1.0, 1.0, 1.0), ctr0=None, stream_lo=0, seed=1, **out):
    # three particles; v is v0, or v_final for the oracle; out= for kinetic and KD
    p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
    window = dict(seed=seed, stream_lo=stream_lo, ctr0=ctr0, **out)
    if name == "kinetic":
        return kinetic_module.kinetic_ensemble(p, x0, v, 1.0, **window)
    if name == "kd":
        return kd_module.kd_ensemble(p, x0, v, 0.5, 2, **window)
    if name == "random-walk":
        return kd_module.random_walk_ensemble(p, x0, 0.5, 2, **window)
    return oracles_module.conditioned_increment_ensemble(p, 1.0, v, n=3, **window)


class TestEnsembleInputs:
    """Bad inputs fail before any chunk of the population runs."""

    @pytest.fixture(autouse=True)
    def no_chunks(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the ensemble started before its inputs were checked")

        for module in (kinetic_module, kd_module, oracles_module):
            monkeypatch.setattr(module, "map_chunked", refuse)

    @pytest.mark.parametrize(
        "name,inputs",
        [
            ("kinetic", dict(x0=[0.0, math.nan, 0.0])),
            ("kinetic", dict(v=[math.inf, 1.0, 1.0])),
            ("kd", dict(x0=[0.0, math.nan, 0.0])),
            ("kd", dict(v=[math.inf, 1.0, 1.0])),
            ("random-walk", dict(x0=[0.0, 0.0, -math.inf])),
            ("oracle", dict(v=math.nan)),
            ("oracle", dict(v=[1.0, -math.inf, 1.0])),
        ],
    )
    def test_rejects_non_finite_states(self, name, inputs):
        # the error names the caller's argument, not the engine's column
        arg = {"x0": "x0", "v": "v_final" if name == "oracle" else "v0"}[next(iter(inputs))]
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            _ensemble(name, **inputs)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda p: kinetic_module.kinetic_ensemble(p, [0.0] * 3, [1.0] * 2, 1.0, 1),
             r"^v0 must be one value or one per particle \(n = 3\)"),
            (lambda p: kd_module.kd_ensemble(p, [0.0] * 3, [1.0] * 3, 1e308, 10, 1),
             r"^n_steps \* dt must be finite"),
            (lambda p: kd_module.random_walk_ensemble(p, [0.0, math.nan], 0.5, 2, 1),
             r"^x0 must be finite"),
        ],
        ids=["kinetic", "kd", "random-walk"],
    )
    def test_errors_name_the_callers_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(BackgroundParams(1.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("name", ["kinetic", "kd", "random-walk", "oracle"])
    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 1)])
    def test_rejects_ctr0_of_other_shapes(self, name, shape):
        with pytest.raises(ValueError, match="ctr0"):
            _ensemble(name, ctr0=np.zeros(shape, dtype=np.uint64))

    @pytest.mark.parametrize("name", ["kinetic", "kd", "random-walk", "oracle"])
    @pytest.mark.parametrize(
        "ctr0",
        [1.5, [0.5, 1.7, 2.0], np.float64(3.0), "3", True, -1,
         np.array([-1, 0, 1], dtype=np.int64), 2**64, [-1, 0, 1], [0, 1, 2**64]],
        ids=["float", "floats", "float64", "string", "bool", "negative", "negative-int64",
             "past-2**64", "negative-list", "past-2**64-list"],
    )
    def test_rejects_counters_that_are_not_uint64(self, name, ctr0):
        # no truncation, no wrap: a counter is an integer in [0, 2**64)
        with pytest.raises(ValueError, match="ctr0"):
            _ensemble(name, ctr0=ctr0)

    @pytest.mark.parametrize("name", ["kinetic", "kd", "random-walk", "oracle"])
    @pytest.mark.parametrize("stream_lo", [-1, 2**64 - 2, 2**64, 0.0, "0"],
                             ids=["negative", "past-2**64", "at-2**64", "float", "string"])
    def test_rejects_stream_windows_outside_uint64(self, name, stream_lo):
        with pytest.raises(ValueError, match="stream_lo"):
            _ensemble(name, stream_lo=stream_lo)

    @pytest.mark.parametrize("name", ["kinetic", "kd"])
    @pytest.mark.parametrize(
        "positions",
        [None, np.empty(3, dtype=np.float32), np.empty(4), np.empty(6)[::2], [0.0, 0.0, 0.0],
         np.frombuffer(bytes(24))],
        ids=["none", "float32", "other-length", "strided", "list", "read-only"],
    )
    def test_rejects_positions_it_cannot_write(self, name, positions):
        # alone or with every other record
        for out in ((positions,), (positions, *_records(name)[1:])):
            with pytest.raises(ValueError, match="out must hold"):
                _ensemble(name, out=out)

    @pytest.mark.parametrize("name", ["kinetic", "kd"])
    def test_rejects_out_longer_than_the_records(self, name):
        with pytest.raises(ValueError, match="out must hold"):
            _ensemble(name, out=(*_records(name), np.empty(3)))

    @pytest.mark.parametrize("name", ["kinetic", "kd"])
    def test_rejects_out_of_some_records(self, name):
        # x alone or every record: no shorter out, and no entry None
        records = _records(name)
        for k in range(2, len(records)):
            with pytest.raises(ValueError, match="out must hold"):
                _ensemble(name, out=records[:k])
        for k in range(len(records)):
            with pytest.raises(ValueError, match="out must hold"):
                _ensemble(name, out=[*records[:k], None, *records[k + 1:]])

    @pytest.mark.parametrize("name", ["kinetic", "kd"])
    @pytest.mark.parametrize("alias", ["x0", "v0", "twice", "x0-offset", "ctr0"])
    def test_rejects_out_sharing_memory(self, name, alias):
        # the engine reads its inputs in place while it writes the records
        buf, v, ctr0, records = np.zeros(4), np.ones(3), np.zeros(3, dtype=np.uint64), _records(name)
        out = {"x0": (buf[:3],), "v0": (v,), "twice": (records[0], records[0], *records[2:]),
               "x0-offset": (buf[1:],),
               "ctr0": (*records[:2], ctr0.view(np.int64), *records[3:])}[alias]
        with pytest.raises(ValueError, match="share no memory"):
            _ensemble(name, x0=buf[:3], v=v, ctr0=ctr0, out=out)

    @pytest.mark.parametrize("name", ["kinetic", "kd", "random-walk", "oracle"])
    @pytest.mark.parametrize(
        "seed", [1.5, np.float64(1.0), "1", True, -1, np.int64(-1), 2**64, [1, 2]],
        ids=["float", "float64", "string", "bool", "negative", "negative-int64", "past-2**64",
             "list"])
    def test_rejects_seeds_that_are_not_uint64(self, name, seed):
        # a seed is checked as a counter is: 1.5 does not run as seed 1
        with pytest.raises(ValueError, match="^seed must"):
            _ensemble(name, seed=seed)

    @staticmethod
    def _chunk(n, stream_lo, ctr0):
        # the first stream id and the counters that ensemble_io hands a step
        _, run = ensemble_io(n, stream_lo, ctr0, None, (), lambda first, out, ctr: (first, ctr))
        return run(0, n)

    def test_accepts_the_last_stream_window_and_counter(self):
        top = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        first, ctr = self._chunk(3, 2**64 - 3, top)
        assert [first + i for i in range(3)] == [2**64 - 3, 2**64 - 2, 2**64 - 1]
        assert ctr.dtype == np.uint64 and ctr.tolist() == [0, 2**63, 2**64 - 1]
        _, ctr = self._chunk(3, np.uint64(5), np.int64(7))
        assert ctr.dtype == np.uint64 and ctr.tolist() == [7, 7, 7]

    @pytest.mark.parametrize("ctr0", [[1, 2**64 - 1], [0, 2**63]])
    def test_takes_counter_lists_exactly(self, ctr0):
        # numpy makes such lists float64, which rounds 2**64 - 1
        _, ctr = self._chunk(2, 0, ctr0)
        assert ctr.dtype == np.uint64 and ctr.tolist() == ctr0


def _records(name):
    # one array for each record the driver keeps, for three particles
    return [np.empty(3, dtype=d) for d in RECORDS[:{"kinetic": 5, "kd": 3}[name]]]


def test_every_export_resolves():
    # `from kdmc import *` and `from kdmc.<module> import *` must not hit a
    # stale name in an __all__
    modules = [kdmc] + [importlib.import_module(f"kdmc.{m.name}")
                        for m in pkgutil.iter_modules(kdmc.__path__)]
    for module in modules:
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
        exec(f"from {module.__name__} import *", {})
