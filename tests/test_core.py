import math

import numpy as np
import pytest
from scipy.special import ndtri

from kdmc import (
    BackgroundParams,
    ParticleState,
    PiecewiseConstantField,
    RngStream,
    sample_maxwellian,
)
from kdmc.core import (
    exponential_keyed,
    map_chunked,
    normal_from_counter,
    normal_keyed,
    step_count,
    stream_keys,
    uniform_open_closed,
)
from conftest import StubRng, moment_check

_MASK = 2**64 - 1
_PHI = 0x9E3779B97F4A7C15
# both ends of the counter range, including the modular wrap
EDGE_COUNTERS = [0, 1, 2**64 - 2, 2**64 - 1]


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
        assert p.params_at(123.0) is p

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


class TestField:
    def test_lookup_and_clamp(self):
        cells = [BackgroundParams(s, 0.0, 1.0, 1.0) for s in (1.0, 2.0, 3.0)]
        field = PiecewiseConstantField(cells, breakpoints=(0.0, 1.0))
        assert field.params_at(-5.0) is cells[0]
        assert field.params_at(0.5) is cells[1]
        assert field.params_at(1.0) is cells[2]
        assert field.params_at(99.0) is cells[2]

    def test_validation(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PiecewiseConstantField(())
        with pytest.raises(ValueError):
            PiecewiseConstantField((p, p), breakpoints=())
        with pytest.raises(ValueError):
            PiecewiseConstantField((p, p, p), breakpoints=(1.0, 1.0))
        with pytest.raises(ValueError):
            PiecewiseConstantField((p, p), breakpoints=(np.inf,))

    def test_single_cell_matches_homogeneous(self):
        # a one-cell field must be observationally identical to plain params
        from kdmc import simulate_kinetic

        p = BackgroundParams(1.7, 0.4, 1.3, 0.8)
        field = PiecewiseConstantField((p,))
        for i in range(8):
            a = simulate_kinetic(ParticleState(0.3, -1.1, 0.0), 2.0, p, RngStream(5, i))
            b = simulate_kinetic(ParticleState(0.3, -1.1, 0.0), 2.0, field, RngStream(5, i))
            assert a.final_state == b.final_state
            assert a.collisions_executed == b.collisions_executed


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
        def work(lo, hi):
            ids = np.arange(lo, hi, dtype=np.uint64)
            return (uniform_open_closed(11, ids, np.uint64(0)),)

        (one,) = map_chunked(work, 10_000, threads=1, chunk=256)
        (four,) = map_chunked(work, 10_000, threads=4, chunk=256)
        assert np.array_equal(one, four)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            map_chunked(lambda lo, hi: (np.zeros(hi - lo),), 0)


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
