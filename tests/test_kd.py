import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from kdmc import (
    BackgroundParams,
    ParticleState,
    RngStream,
    diffusive_substep,
    simulate_kd,
    simulate_kinetic,
    simulate_random_walk,
    var_unconditioned,
)
from kdmc import kd as kd_module
from kdmc.core import normal_from_counter, normal_keyed, stream_keys
from kdmc.kd import kd_ensemble, random_walk_ensemble
from kdmc.kinetic import kinetic_ensemble
from kdmc.metrics import fit_order, w1_sorted
from kdmc.moments import conditioned_mean_var, mean_unconditioned
from conftest import (
    EDGE_COUNTERS,
    ROUND_ZERO_POPULATIONS,
    StubRng,
    moment_check,
    round_zero_inputs,
    same_bits,
)

P_UNIT = BackgroundParams(1.0, 0.0, 1.0, 1.0)


class TestDiffusiveSubstep:
    def test_zero_duration(self):
        assert diffusive_substep(1.0, 0.0, P_UNIT, StubRng(normals=[0.7])) == 0.0

    def test_negative_duration_rejected(self):
        for theta in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                diffusive_substep(1.0, theta, P_UNIT, StubRng(normals=[0.0]))

    def test_pinned_z_returns_conditioned_mean(self):
        got = diffusive_substep(1.0, 1.0, P_UNIT, StubRng(normals=[0.0]))
        assert got == pytest.approx(1.0 - math.exp(-1.0))
        assert got == conditioned_mean_var(P_UNIT, 1.0, 1.0)[0]

    def test_general_draw(self):
        got = diffusive_substep(0.7, 0.4, P_UNIT, StubRng(normals=[1.3]))
        mean, var = conditioned_mean_var(P_UNIT, 0.4, 0.7)
        ref = mean + math.sqrt(var) * 1.3
        assert got == pytest.approx(ref, rel=1e-15)

    def test_diffusive_limit_distribution(self):
        # eps -> 0: displacement over theta=1 tends to N(0, 2 T / sigma)
        p = BackgroundParams(1.0, 0.0, 1.0, 1e-3)
        n = 1_000_000
        rng = RngStream(17, 0)
        v_next = p.eps * p.u + math.sqrt(p.temperature) * rng.normal(size=n)
        z = rng.normal(size=n)
        mean, var = conditioned_mean_var(p, np.full(n, 1.0), v_next)
        disp = mean + np.sqrt(var) * z
        moment_check(disp, target_mean=0.0, target_var=2.0)

    def test_substep_is_gaussian_given_conditioning(self):
        # fixed (v_next, theta): exact normal with the conditioned moments
        n = 20_000
        rng = RngStream(23, 9)
        draws = np.array([diffusive_substep(1.2, 0.6, P_UNIT, rng) for _ in range(n)])
        m_ref, var_ref = conditioned_mean_var(P_UNIT, 0.6, 1.2)
        s_ref = math.sqrt(var_ref)
        moment_check(draws, target_mean=m_ref, target_var=s_ref**2, n_se=5.0)
        zs = (draws - m_ref) / s_ref
        assert abs(np.mean(zs**3)) < 5 * math.sqrt(6.0 / n)
        assert abs(np.mean(zs**4) - 3.0) < 5 * math.sqrt(24.0 / n)


class TestSimulateKd:
    def test_no_collision_is_pure_kinetic(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 2.0)
        rng = StubRng(exponentials=[50.0])
        rec = simulate_kd(ParticleState(1.0, 3.0, 0.0), 1.0, 1.0, p, rng)
        assert rec.final_state.x == pytest.approx(1.0 + 1.5)
        assert rec.final_state.v == 3.0
        assert rec.collisions_executed == 0

    def test_single_step_hand_trace(self):
        # E = ln 2 -> flight ln 2, then one substep over theta = 1 - ln 2
        v0, v_next, z = 0.4, 0.7, 0.3
        rng = StubRng(exponentials=[math.log(2.0)], normals=[v_next, z])
        rec = simulate_kd(ParticleState(0.0, v0, 0.0), 1.0, 1.0, P_UNIT, rng)
        theta = 1.0 - math.log(2.0)
        mean, var = conditioned_mean_var(P_UNIT, theta, v_next)
        expected = v0 * math.log(2.0) + mean + math.sqrt(var) * z
        assert rec.final_state.x == pytest.approx(expected, rel=1e-14)
        assert rec.final_state.v == v_next
        assert rec.collisions_executed == 1

    def test_flight_spanning_steps(self):
        # collision at 2.5 within step 2 of 3: substep fills [2.5, 3]
        v_next, z = -0.2, 0.0
        rng = StubRng(exponentials=[2.5], normals=[v_next, z])
        rec = simulate_kd(ParticleState(0.0, 1.0, 0.0), 1.0, 3.0, P_UNIT, rng)
        assert rec.collisions_executed == 1
        assert rec.final_state.x == pytest.approx(
            2.5 + conditioned_mean_var(P_UNIT, 0.5, v_next)[0], rel=1e-14
        )
        assert rec.final_state.t == 3.0

    def test_time_bookkeeping_invariant(self):
        rng = RngStream(37, 2)
        rec = simulate_kd(ParticleState(0.0, 0.5, 0.0), 0.25, 2.0, P_UNIT, rng)
        assert rec.final_state.t == 2.0
        assert rec.collisions_executed <= 8  # at most one per step

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            simulate_kd(ParticleState(0.0, 0.0, 0.0), 0.0, 1.0, P_UNIT, RngStream(0))
        with pytest.raises(ValueError):
            simulate_kd(ParticleState(0.0, 0.0, 0.0), 0.4, 1.0, P_UNIT, RngStream(0))
        with pytest.raises(ValueError):
            kd_ensemble(P_UNIT, np.zeros(2), np.zeros(2), -1.0, 1, 0)

    def test_scalar_matches_vectorized_bitwise(self):
        p = BackgroundParams(1.3, 0.7, 2.0, 0.6)
        n = 48
        x0 = np.linspace(-1.0, 1.0, n)
        v0 = np.linspace(-2.0, 2.0, n)
        ens = kd_ensemble(p, x0, v0, 0.25, 8, seed=99)
        for i in range(n):
            rec = simulate_kd(ParticleState(x0[i], v0[i], 0.0), 0.25, 2.0, p, RngStream(99, i))
            assert rec.final_state.x == ens.x[i]
            assert rec.final_state.v == ens.v[i]
            assert rec.collisions_executed == ens.collisions[i]

    @pytest.mark.parametrize("collisionality", [0.01, 1.0, 50.0, 100.0, 1000.0])
    def test_scalar_matches_vectorized_across_kernel_branches(self, collisionality):
        # per-step collisionality 0.01 puts most substeps below A_SMALL, and
        # 50 and above put substeps where the kernels reach their asymptotes
        dt = 0.5
        p = BackgroundParams(1.2, 0.3, 1.4, math.sqrt(1.2 * dt / collisionality))
        n = 120
        rng = np.random.default_rng(int(collisionality * 100))
        x0 = rng.normal(size=n)
        v0 = rng.normal(size=n)
        ctr0 = rng.integers(0, 2**62, n, dtype=np.uint64)
        ens = kd_ensemble(p, x0, v0, dt, 3, seed=31, stream_lo=9, ctr0=ctr0, chunk=50)
        for i in range(n):
            rng_i = RngStream(31, 9 + i, counter=int(ctr0[i]))
            rec = simulate_kd(ParticleState(x0[i], v0[i], 0.0), dt, 3 * dt, p, rng_i)
            assert rec.final_state.x == ens.x[i]
            assert rec.final_state.v == ens.v[i]
            assert rec.collisions_executed == ens.collisions[i]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 10.0),
        u=st.floats(-2.0, 2.0),
        temperature=st.floats(0.1, 5.0),
        eps=st.floats(0.05, 3.0),
        dt=st.floats(0.01, 2.0),
        n_steps=st.integers(1, 4),
    )
    def test_scalar_matches_vectorized_property(self, sigma, u, temperature, eps, dt, n_steps):
        p = BackgroundParams(sigma, u, temperature, eps)
        n = 6
        x0 = np.linspace(-1.0, 1.0, n)
        v0 = np.linspace(-2.0, 2.0, n)
        if p.collisionality(dt) * n_steps > 2000:  # keeps the scalar loop short
            dt = 2000 / n_steps * eps * eps / sigma
        kd = kd_ensemble(p, x0, v0, dt, n_steps, seed=3)
        kin = kinetic_ensemble(p, x0, v0, dt * n_steps, seed=3)
        for i in range(n):
            state = ParticleState(x0[i], v0[i], 0.0)
            rec = simulate_kd(state, dt, n_steps * dt, p, RngStream(3, i))
            assert (rec.final_state.x, rec.final_state.v) == (kd.x[i], kd.v[i])
            assert rec.collisions_executed == kd.collisions[i]
            ref = simulate_kinetic(state, dt * n_steps, p, RngStream(3, i))
            assert (ref.final_state.x, ref.final_state.v) == (kin.x[i], kin.v[i])
            assert ref.collisions_executed == kin.collisions[i]

    @pytest.mark.parametrize("horizon,least,most", ROUND_ZERO_POPULATIONS)
    def test_round_zero_finishers(self, horizon, least, most):
        p, x0, v0, ctr0 = round_zero_inputs()
        dt = horizon / 3
        kwargs = dict(seed=12, stream_lo=7, ctr0=ctr0)
        ens = kd_ensemble(p, x0, v0, dt, 3, **kwargs)
        assert least <= (ens.collisions > 0).sum() <= most
        names = ("x", "v", "collisions")
        for threads in (1, 2):
            got = kd_ensemble(p, x0, v0, dt, 3, threads=threads, chunk=7, **kwargs)
            assert all(same_bits(getattr(got, k), getattr(ens, k)) for k in names)
        for i in range(len(x0)):
            rng_i = RngStream(12, 7 + i, counter=int(ctr0[i]))
            rec = simulate_kd(ParticleState(x0[i], v0[i], 0.0), dt, 3 * dt, p, rng_i)
            assert (rec.final_state.x, rec.final_state.v) == (ens.x[i], ens.v[i])
            assert rec.collisions_executed == ens.collisions[i]

    def test_thread_determinism(self):
        n = 20_000
        v0 = RngStream(8, 1 << 40).normal(size=n)
        a = kd_ensemble(P_UNIT, np.zeros(n), v0, 0.5, 2, seed=8, chunk=4096)
        b = kd_ensemble(P_UNIT, np.zeros(n), v0, 0.5, 2, seed=8, threads=4, chunk=4096)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.collisions, b.collisions)


@pytest.mark.parametrize("stepper", [simulate_kd, simulate_random_walk])
@pytest.mark.parametrize(
    "dt,t_end,message",
    [
        pytest.param(0.0, 2.0, "multiple of dt", id="zero-dt"),
        pytest.param(-0.5, 2.0, "dt must be positive", id="negative-dt"),
        pytest.param(0.5, 0.5, "precedes", id="t-end-before-t"),
        pytest.param(0.4, 2.0, "multiple of dt", id="two-and-a-half-steps"),
    ],
)
def test_scalar_steppers_reject_bad_step_grid(stepper, dt, t_end, message):
    with pytest.raises(ValueError, match=message):
        stepper(ParticleState(0.0, 0.0, 1.0), dt, t_end, P_UNIT, RngStream(0))


@pytest.mark.parametrize("dt", [math.inf, math.nan])
@pytest.mark.parametrize(
    "ensemble",
    [lambda dt: kd_ensemble(P_UNIT, np.zeros(4), np.ones(4), dt, 2, seed=1),
     lambda dt: random_walk_ensemble(P_UNIT, np.zeros(4), dt, 2, seed=1)],
    ids=["kd", "random-walk"],
)
def test_ensembles_reject_non_finite_dt(monkeypatch, ensemble, dt):
    def no_lockstep(*args):
        raise AssertionError("the ensemble started before its dt was checked")

    monkeypatch.setattr(kd_module, "lockstep", no_lockstep)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ensemble(dt)


class TestRandomWalk:
    def test_vanishing_diffusion(self):
        p = BackgroundParams(1.0, 0.0, 1e-12, 1.0)
        rng = RngStream(3, 0)
        out = simulate_random_walk(ParticleState(2.0, 0.0, 0.0), 1.0, 1.0, p, rng)
        assert abs(out.x - 2.0) < 1e-5

    def test_drift_only(self):
        p = BackgroundParams(1.0, 1.0, 1.0, 1.0)
        out = simulate_random_walk(ParticleState(0.5, 0.0, 0.0), 1.0, 1.0, p, StubRng(normals=[0.0]))
        assert out.x == pytest.approx(1.5)

    def test_variance(self):
        n = 1_000_000
        x = random_walk_ensemble(P_UNIT, np.zeros(n), 1.0, 1, seed=12)
        moment_check(x, target_mean=0.0, target_var=2.0)

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5])
    def test_step_count_validated(self, n_steps):
        with pytest.raises(ValueError):
            random_walk_ensemble(P_UNIT, np.zeros(4), 0.5, n_steps, seed=5)

    def test_scalar_matches_vectorized(self):
        n = 32
        x = random_walk_ensemble(P_UNIT, np.zeros(n), 0.5, 4, seed=5)
        for threads in (1, 2):
            got = random_walk_ensemble(
                P_UNIT, np.zeros(n), 0.5, 4, seed=5, threads=threads, chunk=7)
            assert same_bits(got, x)
        for i in range(n):
            out = simulate_random_walk(ParticleState(0.0, 0.0, 0.0), 0.5, 2.0, P_UNIT, RngStream(5, i))
            assert out.x == x[i]

    @pytest.mark.parametrize("ctr0", [np.resize(np.array(EDGE_COUNTERS, dtype=np.uint64), 600),
                                      2**64 - 2], ids=["per-particle", "one-for-all"])
    def test_blocks_match_the_steppers(self, ctr0):
        # 600 particles make blocks of 256, 256 and 88 in one chunk, and
        # chunks of 100 make six; the counters wrap modulo 2**64 mid-walk
        p, n, dt, n_steps, seed, lo = BackgroundParams(1.3, 0.7, 2.0, 0.6), 600, 0.25, 4, 9, 5
        x0 = np.random.default_rng(4).normal(size=n)
        ctr = np.broadcast_to(np.asarray(ctr0, dtype=np.uint64), (n,)).copy()
        scalar = [simulate_random_walk(ParticleState(x0[i], 0.0, 0.0), dt, n_steps * dt, p,
                                       RngStream(seed, lo + i, int(ctr[i]))).x for i in range(n)]
        # the per-step numpy composition the C walk replaced
        keys, want = stream_keys(seed, lo + np.arange(n, dtype=np.uint64)), x0.copy()
        drift, scale = p.u * dt, math.sqrt(2.0 * (p.temperature / p.sigma) * dt)
        for _ in range(n_steps):
            z = normal_keyed(keys, ctr)
            z *= scale
            want += drift
            want += z
            ctr += np.uint64(1)
        assert same_bits(np.array(scalar), want)
        for threads in (1, 3):
            for chunk in (1 << 16, 100):
                got = random_walk_ensemble(p, x0, dt, n_steps, seed, stream_lo=lo, ctr0=ctr0,
                                           threads=threads, chunk=chunk)
                assert same_bits(got, want), (threads, chunk)


class TestKdStatistics:
    def test_expected_collisions_per_step(self):
        # executed collisions per step are Bernoulli(1 - e^-a)
        for a in (0.1, 1.0, 10.0):
            eps = math.sqrt(1.0 / a)
            p = BackgroundParams(1.0, 0.0, 1.0, eps)
            n = 1_000_000
            v0 = p.eps * p.u + normal_from_counter(41, np.arange(n, dtype=np.uint64), 0)
            ens = kd_ensemble(p, np.zeros(n), v0, 1.0, 1, seed=41, ctr0=np.uint64(1))
            rate = ens.collisions.mean()
            ref = 1.0 - math.exp(-a)
            se = math.sqrt(ref * (1.0 - ref) / n)
            assert abs(rate - ref) <= 4 * se

    def test_kinetic_limit_no_collision_paths_bit_identical(self):
        # same draws, low collisionality: KD collapses onto the kinetic path
        p = BackgroundParams(1.0, 0.0, 1.0, 10.0)  # a = 0.01
        n = 50_000
        v0 = RngStream(5, 1 << 40).normal(size=n)
        kin = kinetic_ensemble(p, np.zeros(n), v0, 1.0, seed=5)
        kd = kd_ensemble(p, np.zeros(n), v0, 1.0, 1, seed=5)
        mask = kin.collisions == 0
        assert mask.mean() > 0.95
        assert np.array_equal(kin.x[mask], kd.x[mask])
        assert np.array_equal(kin.v[mask], kd.v[mask])

    @pytest.mark.parametrize("collisionality", [0.1, 1.0, 10.0, 100.0])
    def test_one_step_moments_match_closed_forms(self, collisionality):
        eps = math.sqrt(1.0 / collisionality)
        p = BackgroundParams(1.0, 1.0, 1.0, eps)
        n = 400_000
        v0 = p.eps * p.u + math.sqrt(p.temperature) * normal_from_counter(
            43, np.arange(n, dtype=np.uint64), 0
        )
        ens = kd_ensemble(p, np.zeros(n), v0, 1.0, 1, seed=43, ctr0=np.uint64(1))
        moment_check(ens.x, target_mean=mean_unconditioned(p, 1.0),
                     target_var=var_unconditioned(p, 1.0))

    def test_multi_step_variance_exact(self):
        # the carried final velocity preserves the variance across steps
        p = BackgroundParams(1.0, 0.0, 1.0, 0.5)
        n = 400_000
        v0 = math.sqrt(p.temperature) * normal_from_counter(44, np.arange(n, dtype=np.uint64), 0)
        ens = kd_ensemble(p, np.zeros(n), v0, 0.25, 4, seed=44, ctr0=np.uint64(1))
        moment_check(ens.x, target_mean=0.0, target_var=var_unconditioned(p, 1.0))

    def test_diffusive_regime_w1_decreases(self):
        # two-sample check inside the diffusive regime
        n = 200_000
        vals = []
        for k, eps in enumerate((0.3, 0.2)):
            p = BackgroundParams(1.0, 0.0, 1.0, eps)
            lo = k << 40
            v0 = normal_from_counter(71, lo + np.arange(n, dtype=np.uint64), 0)
            kin = kinetic_ensemble(p, np.zeros(n), v0, 1.0, 71, stream_lo=lo, ctr0=np.uint64(1))
            v0b = normal_from_counter(72, lo + np.arange(n, dtype=np.uint64), 0)
            kd = kd_ensemble(p, np.zeros(n), v0b, 1.0, 1, 72, stream_lo=lo, ctr0=np.uint64(1))
            vals.append(w1_sorted(kin.x, kd.x))
        assert vals[1] < vals[0]


def kd_law_w1_to_limit_gaussian(eps, sigma=1.0, u=0.0, temp=1.0, dt=1.0, nq=64):
    """Exact Wasserstein distance between the one-step KD law and the
    limiting Gaussian N(u dt, 2 T dt / sigma), by quadrature.

    The KD displacement given the first collision time tau and the sampled
    velocity v_next is Gaussian, so the law is a Gaussian mixture over
    (tau, v_next) plus the no-collision flight branch; its CDF is summed
    exactly and the W1 is the integral of |F - G|. No Monte Carlo noise.
    """
    p = BackgroundParams(sigma, u, temp, eps)
    rho = sigma / eps**2
    a = rho * dt
    p_free = math.exp(-a)
    gl_x, gl_w = np.polynomial.legendre.leggauss(nq)
    q = 0.5 * (gl_x + 1.0)
    wq = 0.5 * gl_w * (1.0 - p_free)
    tau = -np.log1p(-q * (1.0 - p_free)) / rho
    gh_x, gh_w = np.polynomial.hermite_e.hermegauss(nq)
    nu = eps * u + math.sqrt(temp) * gh_x
    wnu = gh_w / math.sqrt(2.0 * math.pi)
    theta = dt - tau[:, None] + 0.0 * nu[None, :]
    vv = 0.0 * tau[:, None] + nu[None, :]
    m, s2 = conditioned_mean_var(p, theta, vv)
    mean_ij = (u * tau[:, None] + m).ravel()
    sd_ij = np.sqrt((temp / eps**2) * tau[:, None] ** 2 + s2).ravel()
    w_ij = (wq[:, None] * wnu[None, :]).ravel()
    sd_lim = math.sqrt(2.0 * temp * dt / sigma)
    core = np.linspace(-10 * sd_lim, 10 * sd_lim, 6001)
    wing = np.linspace(10 * sd_lim, 10 * sd_lim + 12.0 * math.sqrt(temp) * dt / eps, 1500)[1:]
    x = np.concatenate([u * dt - wing[::-1], core, u * dt + wing])
    cdf = (w_ij[None, :] * ndtr((x[:, None] - mean_ij[None, :]) / sd_ij[None, :])).sum(axis=1)
    cdf += p_free * ndtr((x - u * dt) / (math.sqrt(temp) * dt / eps))
    limit = ndtr((x - u * dt) / sd_lim)
    return float(np.trapezoid(np.abs(cdf - limit), x))


class TestDiffusiveLimitOrder:
    def test_one_step_law_converges_quadratically(self):
        # exact quadrature over the eps grid; the verified local error of
        # the scheme is quadratic in eps (see the decisions ledger for why
        # the cubic reading is not attainable)
        eps_grid = [0.3, 0.15, 0.075]
        vals = [kd_law_w1_to_limit_gaussian(e) for e in eps_grid]
        assert vals[0] > vals[1] > vals[2] > 0
        order = fit_order(eps_grid, vals)
        assert 1.85 <= order <= 2.25
        refined = kd_law_w1_to_limit_gaussian(0.15, nq=96)
        assert abs(refined - vals[1]) < 1e-3 * vals[1]
