import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import chisquare, poisson

from kdmc import (
    BackgroundParams,
    ParticleState,
    PiecewiseConstantField,
    RngStream,
    final_flight_moments,
    sample_collision_time,
    simulate_kinetic,
    var_unconditioned,
)
from kdmc import kinetic as kinetic_module
from kdmc.kinetic import kinetic_ensemble
from conftest import StubRng, moment_check


def two_cell_field(s1=1.0, s2=2.0, at=1.0, eps=1.0, u=0.0, temp=1.0):
    return PiecewiseConstantField(
        (BackgroundParams(s1, u, temp, eps), BackgroundParams(s2, u, temp, eps)),
        breakpoints=(at,),
    )


@pytest.mark.parametrize("duration", [math.nan, math.inf, -0.5])
def test_ensemble_rejects_bad_duration(monkeypatch, duration):
    def no_lockstep(*args):
        raise AssertionError("the ensemble started before its duration was checked")

    monkeypatch.setattr(kinetic_module, "lockstep", no_lockstep)
    with pytest.raises(ValueError, match="duration must be finite"):
        kinetic_ensemble(BackgroundParams(1.0, 0.0, 1.0, 1.0), np.zeros(3), np.ones(3),
                         duration, seed=1)


class TestCollisionTime:
    def test_homogeneous_inverse(self):
        # constant-rate integral inverts to (eps^2/sigma) * E
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        rng = StubRng(exponentials=[math.log(2.0)])
        dtau = sample_collision_time(ParticleState(0.0, 1.0, 0.0), p, rng)
        assert dtau == pytest.approx(math.log(2.0))

    def test_homogeneous_mean(self):
        # sample mean of eps^2/sigma * E over 1e6 draws
        p = BackgroundParams(4.0, 0.0, 1.0, 2.0)
        scale = p.eps * p.eps / p.sigma
        draws = RngStream(8, 0).exponential(size=1_000_000) * scale
        # bitwise equivalence of the op with the scaled exponential
        rng = RngStream(8, 0)
        for k in range(1000):
            assert sample_collision_time(ParticleState(0.0, 1.0, 0.0), p, rng) == draws[k]
        assert abs(draws.mean() - 1.0) <= 0.004

    def test_two_cell_hand_integration(self):
        # rate 1 for one unit of travel time, then rate 2: budget 2 spends
        # 1 in the first cell and 0.5 in the second
        field = two_cell_field()
        rng = StubRng(exponentials=[2.0])
        state = ParticleState(0.0, 1.0, 0.0)  # speed 1 hits the boundary at t=1
        assert sample_collision_time(state, field, rng) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "x0,v,eps,budget",
        [
            (0.0, 1.0, 1.0, 2.0),
            (0.0, 3.0, 2.0, 2.2),
            (2.5, -1.2, 0.7, 1.7),
            (-3.0, 0.4, 1.0, 0.3),
            (0.5, -0.2, 0.5, 4.0),
        ],
    )
    def test_piecewise_matches_quadrature_inversion(self, x0, v, eps, budget):
        # independent oracle: integrate the rate along the flight path and
        # invert numerically
        cells = (
            BackgroundParams(0.7, 0.0, 1.0, eps),
            BackgroundParams(2.0, 0.0, 1.0, eps),
            BackgroundParams(0.4, 0.0, 1.0, eps),
        )
        field = PiecewiseConstantField(cells, breakpoints=(-1.0, 1.5))

        def rate(t):
            return field.params_at(x0 + (v / eps) * t).sigma / eps**2

        speed = v / eps
        crossings = sorted(
            t for t in ((b - x0) / speed for b in field.breakpoints if speed != 0) if t > 0
        )

        def cumulative(t):
            pts = [c for c in crossings if c < t]
            val, _ = quad(rate, 0.0, t, limit=200, points=pts or None)
            return val

        got = sample_collision_time(
            ParticleState(x0, v, 0.0), field, StubRng(exponentials=[budget])
        )
        hi = 1.0
        while cumulative(hi) < budget:
            hi *= 2.0
        expected = brentq(lambda t: cumulative(t) - budget, 0.0, hi, xtol=1e-13)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_zero_velocity_stays_in_cell(self):
        field = two_cell_field()
        got = sample_collision_time(
            ParticleState(0.0, 0.0, 0.0), field, StubRng(exponentials=[3.0])
        )
        assert got == pytest.approx(3.0)

    def test_clamped_tail_cell(self):
        # beyond the last breakpoint the edge rate applies forever
        field = two_cell_field(s1=1.0, s2=2.0, at=1.0)
        got = sample_collision_time(
            ParticleState(5.0, 1.0, 0.0), field, StubRng(exponentials=[4.0])
        )
        assert got == pytest.approx(2.0)


class TestSimulateKinetic:
    def test_no_collision_branch(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 2.0)
        rng = StubRng(exponentials=[100.0])  # flight time 400 >> 1
        rec = simulate_kinetic(ParticleState(1.0, 3.0, 0.0), 1.0, p, rng)
        assert rec.final_state.x == pytest.approx(1.0 + (3.0 / 2.0) * 1.0)
        assert rec.final_state.v == 3.0
        assert rec.collisions_executed == 0
        assert rec.final_state.t == 1.0

    def test_rejects_backward_time(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_kinetic(ParticleState(0.0, 0.0, 2.0), 1.0, p, RngStream(0))

    def test_segment_record(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        rng = RngStream(13, 5)
        rec = simulate_kinetic(ParticleState(0.0, 0.5, 0.0), 3.0, p, rng, record_segments=True)
        durations = [d for d, _ in rec.flight_segments]
        velocities = [w for _, w in rec.flight_segments]
        assert sum(durations) == pytest.approx(3.0, abs=1e-12)
        assert rec.collisions_executed == len(rec.flight_segments) - 1
        assert velocities[0] == 0.5  # first flight carries the initial velocity
        # displacement reconstructs from the segments
        assert rec.final_state.x == pytest.approx(sum(d * w for d, w in rec.flight_segments))

    def test_collision_counts_are_poisson(self):
        # chi^2 goodness of fit at N=1e6, significance 1e-3
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        n = 1_000_000
        v0 = RngStream(31, 1 << 40).normal(size=n)
        ens = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=31)
        kmax = 7  # pooled tail keeps every expected count above 5
        obs = np.bincount(np.minimum(ens.collisions, kmax), minlength=kmax + 1)
        expected = poisson.pmf(np.arange(kmax + 1), 1.0)
        expected[kmax] = 1.0 - expected[:kmax].sum()
        expected = expected * obs.sum()
        stat, pvalue = chisquare(obs, expected)
        assert pvalue > 1e-3
        assert abs(ens.collisions.mean() - 1.0) <= 4 * ens.collisions.std() / math.sqrt(n)
        assert abs((ens.collisions == 0).mean() - math.exp(-1.0)) <= 4 * math.sqrt(
            math.exp(-1.0) * (1 - math.exp(-1.0)) / n
        )

    def test_conditional_flighttime_law(self):
        # given K collisions in [0, dt], each overlap has mean dt/(K+1) and
        # second moment 2 dt^2/((K+1)(K+2)); checked on the first overlap
        p = BackgroundParams(2.0, 0.0, 1.0, 1.0)  # collisionality 2
        n = 1_000_000
        dt = 1.0
        v0 = RngStream(57, 1 << 40).normal(size=n)
        ens = kinetic_ensemble(p, np.zeros(n), v0, dt, seed=57)
        for k in (1, 2, 5):
            tau = ens.first_overlap[ens.collisions == k]
            assert tau.size > 1000
            m = tau.size
            mean_ref = dt / (k + 1)
            mom2_ref = 2 * dt**2 / ((k + 1) * (k + 2))
            assert abs(tau.mean() - mean_ref) <= 4 * tau.std() / math.sqrt(m)
            sq = tau**2
            assert abs(sq.mean() - mom2_ref) <= 4 * sq.std() / math.sqrt(m)

    def test_final_flight_overlap_moments(self):
        # last flight overlap: exponential with dt as a ceiling
        p = BackgroundParams(1.0, 0.0, 1.0, 1.0)
        n = 1_000_000
        v0 = RngStream(58, 1 << 40).normal(size=n)
        ens = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=58)
        mean_ref, var_ref = final_flight_moments(p, 1.0)
        assert mean_ref == pytest.approx(1.0 - math.exp(-1.0))
        moment_check(ens.last_overlap, target_mean=mean_ref, target_var=var_ref)

    def test_displacement_moments_match_closed_forms(self):
        p = BackgroundParams(1.0, 1.0, 1.0, 1.0)
        n = 1_000_000
        v0 = p.eps * p.u + np.sqrt(p.temperature) * RngStream(59, 1 << 40).normal(size=n)
        ens = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=59)
        var_ref = var_unconditioned(p, 1.0)
        assert var_ref == pytest.approx(2 * math.exp(-1.0))
        moment_check(ens.x, target_mean=1.0, target_var=var_ref)


class TestEnsembleDeterminism:
    def test_scalar_matches_vectorized_bitwise(self):
        p = BackgroundParams(1.3, 0.7, 2.0, 0.6)
        n = 48
        x0 = np.linspace(-1.0, 1.0, n)
        v0 = np.linspace(-2.0, 2.0, n)
        ens = kinetic_ensemble(p, x0, v0, 1.0, seed=99)
        for i in range(n):
            rec = simulate_kinetic(ParticleState(x0[i], v0[i], 0.0), 1.0, p, RngStream(99, i))
            assert rec.final_state.x == ens.x[i]
            assert rec.final_state.v == ens.v[i]
            assert rec.collisions_executed == ens.collisions[i]

    def test_matches_segment_recording_stepper(self):
        # per-particle start counters, and a population that mixes paths
        # finishing in round 0 with paths of many collisions
        p = BackgroundParams(1.5, 0.4, 1.5, 0.7)  # collisionality about 3
        n = 600
        rng = np.random.default_rng(21)
        x0 = rng.normal(size=n)
        v0 = rng.normal(size=n)
        ctr0 = rng.integers(0, 2**62, n, dtype=np.uint64)
        ens = kinetic_ensemble(p, x0, v0, 1.0, seed=17, stream_lo=40, ctr0=ctr0, chunk=256)
        assert (ens.collisions == 0).sum() >= 10
        assert ens.collisions.max() >= 9
        for i in range(n):
            rng_i = RngStream(17, 40 + i, counter=int(ctr0[i]))
            rec = simulate_kinetic(
                ParticleState(x0[i], v0[i], 0.0), 1.0, p, rng_i, record_segments=True
            )
            assert rec.final_state.x == ens.x[i]
            assert rec.final_state.v == ens.v[i]
            assert rec.collisions_executed == ens.collisions[i]
            assert rec.flight_segments[0][0] == ens.first_overlap[i]
            assert rec.flight_segments[-1][0] == ens.last_overlap[i]

    def test_rerun_and_threads_bit_identical(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 0.5)
        n = 30_000
        v0 = RngStream(4, 1 << 40).normal(size=n)
        a = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=4, chunk=4096)
        b = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=4, threads=4, chunk=4096)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.collisions, b.collisions)
