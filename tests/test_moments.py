import math

import numpy as np
import pytest
from scipy.integrate import quad

from kdmc import (
    BackgroundParams,
    bound_high_collisional,
    bound_low_collisional,
    bound_low_conditioned,
    conditional_flighttime_pdf,
    final_flight_moments,
    mean_conditioned,
    mean_unconditioned,
    var_conditioned,
    var_unconditioned,
    verify_paper_constants,
)
from kdmc.moments import _kernel_table, conditioned_mean_var

P_UNIT = BackgroundParams(1.0, 0.0, 1.0, 1.0)
P_DRIFT = BackgroundParams(1.0, 1.0, 1.0, 1.0)


def hermite_average(f, params, nodes=96):
    """E[f(V)] for V ~ Maxwellian(eps*u, T), by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    v = params.eps * params.u + math.sqrt(params.temperature) * x
    return float(np.sum(w * f(v)) / math.sqrt(2.0 * math.pi))


class TestUnconditioned:
    def test_mean_zero_drift(self):
        for dt in (0.0, 0.1, 7.0):
            assert mean_unconditioned(P_UNIT, dt) == 0.0

    def test_mean_linear(self):
        p = BackgroundParams(1.0, 2.0, 1.0, 1.0)
        assert mean_unconditioned(p, 0.5) == 1.0

    def test_var_zero_dt(self):
        assert var_unconditioned(P_UNIT, 0.0) == 0.0

    def test_var_diffusive_limit(self):
        # eps -> 0 at fixed dt approaches 2 (T/sigma) dt
        p = BackgroundParams(1.0, 0.0, 1.0, 1e-4)
        got = var_unconditioned(p, 0.5)
        assert abs(got / (2.0 * 0.5) - 1.0) < 1e-6

    def test_var_unit_point(self):
        assert var_unconditioned(P_UNIT, 1.0) == pytest.approx(2.0 * math.exp(-1.0))

    def test_var_monotone_in_dt(self):
        dts = np.linspace(0.01, 5.0, 200)
        vals = var_unconditioned(P_UNIT, dts)
        assert np.all(np.diff(vals) > 0)


class TestConditioned:
    def test_mean_reduces_to_drift(self):
        p = BackgroundParams(2.0, 1.5, 1.0, 0.5)
        v_mean = p.eps * p.u
        assert mean_conditioned(p, 0.8, v_mean) == pytest.approx(p.u * 0.8)

    def test_mean_diffusive_limit(self):
        # the conditioning term scales as (v - eps u) eps / sigma
        p = BackgroundParams(1.0, 1.0, 1.0, 1e-4)
        v_final = p.eps * p.u + 2.0 * math.sqrt(p.temperature)
        got = mean_conditioned(p, 0.7, v_final)
        assert abs(got - p.u * 0.7) < 1.01 * 2.0 * p.eps / p.sigma
        assert abs(got / (p.u * 0.7) - 1.0) < 1e-3

    def test_mean_unit_point(self):
        assert mean_conditioned(P_UNIT, 1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_var_zero_dt(self):
        assert var_conditioned(P_UNIT, 0.0, 1.0) == 0.0

    def test_var_diffusive_limit(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 1e-4)
        got = var_conditioned(p, 0.5, 1.0)
        assert abs(got / (2.0 * 0.5) - 1.0) < 1e-6

    def test_var_small_dt_cubic(self):
        # leading order (T + (v - eps u)^2) sigma dt^3 / (3 eps^4)
        dt = 1e-4
        got = var_conditioned(P_UNIT, dt, 1.0)
        assert abs(got / dt**3 - 2.0 / 3.0) < 1e-3 * (2.0 / 3.0)

    def test_var_nonnegative_everywhere(self):
        for a in (1e-8, 1e-4, 1.0, 10.0, 1e3):
            for v in (-3.0, 0.0, 0.5, 4.0):
                p = BackgroundParams(1.0, 0.3, 0.7, 1.0)
                assert var_conditioned(p, a, v) >= 0.0
                assert np.isfinite(var_conditioned(p, a, v))

    def test_law_of_total_expectation(self):
        # averaging the conditioned mean over the Maxwellian recovers u dt
        for a in (0.1, 1.0, 10.0, 100.0):
            p = BackgroundParams(1.3, 0.7, 1.7, math.sqrt(1.3 * 0.8 / a))
            dt = 0.8
            avg = hermite_average(lambda v: mean_conditioned(p, dt, v), p)
            ref = mean_unconditioned(p, dt)
            assert abs(avg - ref) <= 1e-8 * max(abs(ref), 1.0)

    def test_law_of_total_variance(self):
        # E[var_cond] + Var[mean_cond] equals var_uncond
        for a in (0.1, 1.0, 10.0, 100.0):
            p = BackgroundParams(1.3, 0.7, 1.7, math.sqrt(1.3 * 0.8 / a))
            dt = 0.8
            e_var = hermite_average(lambda v: var_conditioned(p, dt, v), p)
            mean_sq = hermite_average(
                lambda v: (mean_conditioned(p, dt, v) - mean_unconditioned(p, dt)) ** 2, p
            )
            ref = var_unconditioned(p, dt)
            assert abs(e_var + mean_sq - ref) <= 1e-6 * ref

    def test_scalar_matches_array(self):
        p = BackgroundParams(1.1, 0.4, 0.9, 0.8)
        dts = np.array([1e-8, 1e-3, 0.5, 3.0])
        vs = np.array([-1.0, 0.0, 0.3, 2.0])
        mean_arr, var_arr = conditioned_mean_var(p, dts, vs)
        for i in range(dts.size):
            assert mean_conditioned(p, dts[i], vs[i]) == mean_arr[i]
            assert var_conditioned(p, dts[i], vs[i]) == var_arr[i]

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            var_conditioned(P_UNIT, -0.1, 1.0)


class TestFlighttimePdf:
    def test_k1_uniform(self):
        assert conditional_flighttime_pdf(0.3, 1, 2.0) == pytest.approx(0.5)
        assert conditional_flighttime_pdf(1.999, 1, 2.0) == pytest.approx(0.5)

    def test_k2_at_zero(self):
        assert conditional_flighttime_pdf(0.0, 2, 1.0) == pytest.approx(2.0)

    def test_outside_support(self):
        assert conditional_flighttime_pdf(-0.1, 3, 1.0) == 0.0
        assert conditional_flighttime_pdf(1.1, 3, 1.0) == 0.0

    def test_quadrature_moments(self):
        # mean dt/(K+1) and normalization, by quadrature
        for k, dt in ((1, 1.0), (3, 1.0), (5, 2.0)):
            total, _ = quad(lambda t: conditional_flighttime_pdf(t, k, dt), 0, dt)
            mean, _ = quad(lambda t: t * conditional_flighttime_pdf(t, k, dt), 0, dt)
            assert total == pytest.approx(1.0, abs=1e-10)
            assert mean == pytest.approx(dt / (k + 1), rel=1e-9)
        assert quad(lambda t: t * conditional_flighttime_pdf(t, 3, 1.0), 0, 1.0)[0] == pytest.approx(0.25)

    def test_k0_rejected(self):
        with pytest.raises(ValueError):
            conditional_flighttime_pdf(0.5, 0, 1.0)
        with pytest.raises(ValueError):
            conditional_flighttime_pdf(0.5, 2, 0.0)


class TestFinalFlight:
    def test_zero_dt(self):
        assert final_flight_moments(P_UNIT, 0.0) == (0.0, 0.0)

    def test_saturation(self):
        # exponential terms vanish by a = 50
        p = BackgroundParams(2.0, 0.0, 1.0, 1.0)
        mean, var = final_flight_moments(p, 25.0)  # a = 50
        assert mean == pytest.approx(p.eps**2 / p.sigma, rel=1e-12)
        assert var == pytest.approx((p.eps**2 / p.sigma) ** 2, rel=1e-12)


class TestBounds:
    def test_low_direct_value(self):
        local, total = bound_low_collisional(P_UNIT, 0.1, 1.0)
        assert total == pytest.approx(0.24959 * 0.1**1.5)
        assert total == pytest.approx(7.893e-3, rel=1e-3)
        assert local == pytest.approx(0.24959 * 0.1**2.5)

    def test_low_power_law(self):
        _, t1 = bound_low_collisional(P_UNIT, 0.2, 1.0)
        _, t2 = bound_low_collisional(P_UNIT, 0.1, 1.0)
        assert t1 / t2 == pytest.approx(2.0**1.5)

    def test_low_conditioned(self):
        assert bound_low_conditioned(P_UNIT, 0.25) == pytest.approx(0.24959 * 0.25**1.5)

    def test_high_direct_value(self):
        p = BackgroundParams(1.0, 0.0, 1.0, 0.1)
        local, total = bound_high_collisional(p, 1.0, 1.0)
        assert total == pytest.approx(0.58e-3)
        assert local == pytest.approx(0.58e-3)

    def test_high_power_law(self):
        p1 = BackgroundParams(1.0, 0.0, 1.0, 0.2)
        p2 = BackgroundParams(1.0, 0.0, 1.0, 0.1)
        l1, t1 = bound_high_collisional(p1, 1.0, 1.0)
        l2, t2 = bound_high_collisional(p2, 1.0, 1.0)
        assert l1 / l2 == pytest.approx(8.0)
        assert t1 / t2 == pytest.approx(8.0)


class TestKernels:
    def test_expm1_plus_small(self):
        # the series branch resolves the a^2/2 leading term, not zero
        (k1, _, _, _), _ = _kernel_table(1e-8)
        assert k1[0] == pytest.approx(5e-17, rel=0.01)

    def test_series_closed_crossover(self):
        # the direct expressions carry ~1e-16 absolute cancellation noise at
        # the switch point, which limits how closely the branches can agree;
        # the series side is the accurate one
        for a in (9.99e-4, 1.001e-3):
            closed = (
                math.exp(-a) - 1.0 + a,
                1.0 - math.exp(-a),
                1.0 - 2 * a * math.exp(-a) - math.exp(-2 * a),
                2 * math.exp(-a) + a + a * math.exp(-a) - 2.0,
            )
            kernels, scalar = _kernel_table(a)
            assert scalar
            for k, want in zip(kernels, closed):
                assert k[0] == pytest.approx(want, abs=5e-16)

    def test_large_a_asymptote_bitwise(self):
        # beyond a = 45 every e^-a term is below half an ulp of the value it
        # joins, so the exponential expressions give the asymptotes exactly
        a = np.linspace(45.0, 900.0, 4001)
        (k1, k2, k3, k4), _ = _kernel_table(a)
        assert np.array_equal(k1, a - 1.0)
        assert np.array_equal(k2, np.ones_like(a))
        assert np.array_equal(k3, np.ones_like(a))
        assert np.array_equal(k4, a - 2.0)

    def test_all_kernels_finite_nonnegative(self):
        a = np.array([0.0, 1e-8, 1e-4, 1e-3, 1.0, 10.0, 1e3])
        (k1, k2, k3, k4), _ = _kernel_table(a)
        for k in (k1, k2, k3, k4):
            assert np.all(np.isfinite(k))
            assert np.all(k >= 0.0)


class TestPaperConstants:
    def test_targets(self):
        report = verify_paper_constants()
        assert abs(report.velocity_integral - 1.3545) <= 5e-4
        assert abs(report.hermite_w1 - 1.51) <= 1e-2
        assert report.velocity_integral_ok and report.hermite_w1_ok

    def test_richardson_self_consistency(self):
        report = verify_paper_constants()
        assert abs(report.velocity_integral - report.velocity_integral_refined) < 1e-6
        assert abs(report.hermite_w1 - report.hermite_w1_refined) < 1e-6

    def test_k4_not_verified(self):
        report = verify_paper_constants()
        assert report.k4 == 18.3
        assert report.k4_verified is False

    def test_hermite_norm_is_abs_third_hermite_moment(self):
        # independent identity check: the W1 norm of phi(x)(x^4-6x^2+3)
        # equals E|X^3 - 3X| because -phi He3 is its antiderivative
        val, _ = quad(
            lambda x: abs(x**3 - 3 * x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -10,
            10,
            points=[-math.sqrt(3), 0.0, math.sqrt(3)],
            limit=200,
        )
        report = verify_paper_constants()
        assert report.hermite_w1 == pytest.approx(val, abs=1e-7)
