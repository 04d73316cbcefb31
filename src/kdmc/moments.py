"""Closed-form moments of the positional increment and error-bound evaluators.

All formulas are driven by the dimensionless group a = sigma * dt / eps**2
(the collisionality). The exponential combinations they need cancel
catastrophically for small a, so every kernel switches to a truncated
series below A_SMALL; the leading dt**3 behavior of the conditioned
variance is pure cancellation in naive arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "mean_unconditioned",
    "var_unconditioned",
    "mean_conditioned",
    "var_conditioned",
    "conditioned_mean_var",
    "conditional_flighttime_pdf",
    "final_flight_moments",
    "bound_low_conditioned",
    "bound_low_collisional",
    "bound_high_collisional",
    "verify_paper_constants",
    "ConstantsReport",
    "LOW_COLLISIONAL_CONSTANT",
    "HIGH_COLLISIONAL_CONSTANT",
    "VELOCITY_INTEGRAL",
    "HERMITE_W1_NORM",
    "K4_CONSTANT",
]

# taken verbatim from the source analysis, not re-derived
LOW_COLLISIONAL_CONSTANT = 0.24959
HIGH_COLLISIONAL_CONSTANT = 0.58
VELOCITY_INTEGRAL = 1.3545
HERMITE_W1_NORM = 1.51
K4_CONSTANT = 18.3

A_SMALL = 1e-3


def _kernel_table(a):
    """The four exponential kernels at a >= 0, series-patched below A_SMALL.

    Returns (e^-a - 1 + a, 1 - e^-a, 1 - 2a e^-a - e^-2a,
    2 e^-a + a + a e^-a - 2) and a scalar-input flag. One shared pair of
    exponentials serves all four.
    """
    a = np.asarray(a, dtype=np.float64)
    scalar = a.ndim == 0
    if scalar:
        a = a.reshape(1)
    if a.size and float(a.min()) < 0:
        raise ValueError("negative duration")
    ea = np.exp(-a)
    e2a = ea * ea
    k1 = ea - 1.0 + a
    k2 = 1.0 - ea
    k3 = 1.0 - 2.0 * a * ea - e2a
    k4 = 2.0 * ea + a + a * ea - 2.0
    small = a < A_SMALL
    if np.any(small):
        s = a[small]
        s3 = s * s * s
        k1[small] = s * s * (1.0 / 2 + s * (-1.0 / 6 + s * (1.0 / 24 + s * (-1.0 / 120 + s / 720))))
        k2[small] = s * (1.0 + s * (-1.0 / 2 + s * (1.0 / 6 + s * (-1.0 / 24 + s / 120))))
        k3[small] = s3 * (1.0 / 3 + s * (-1.0 / 3 + s * (11.0 / 60 - s * 13.0 / 180)))
        k4[small] = s3 * (1.0 / 6 + s * (-1.0 / 12 + s * (1.0 / 40 - s / 180)))
    return (k1, k2, k3, k4), scalar


def mean_unconditioned(params, dt):
    """Mean displacement over dt with all velocities Maxwellian: u * dt."""
    dt = np.asarray(dt, dtype=np.float64)
    out = params.u * dt
    return out if out.ndim else float(out)


def var_unconditioned(params, dt):
    """Variance of the displacement over dt, all velocities Maxwellian.

    2 (eps/sigma)**2 T (e**(-a) - 1 + a) with a = sigma dt / eps**2.
    """
    (k1, _, _, _), scalar = _kernel_table(params.collisionality(np.asarray(dt, dtype=np.float64)))
    out = 2.0 * (params.eps / params.sigma) ** 2 * params.temperature * k1
    return float(out[0]) if scalar else out


def conditioned_mean_var(params, dt, v_final):
    """Mean and variance of the displacement over dt given the final
    velocity sample v_final, from one shared kernel evaluation.

    mean = u dt + (v_final/eps - u) (eps**2/sigma) (1 - e**(-a)),
    var  = 2 T (eps/sigma)**2 (2e**(-a) + a + a e**(-a) - 2)
           + (v_final/eps - u)**2 (eps**4/sigma**2) (1 - 2a e**(-a) - e**(-2a)).
    The variance is clamped at zero: round-off must not poison the square
    root in the diffusive substep.
    """
    dt = np.asarray(dt, dtype=np.float64)
    (_, k2, k3, k4), scalar = _kernel_table(params.collisionality(dt))
    drift = np.asarray(v_final, dtype=np.float64) / params.eps - params.u
    rate_scale = params.eps**2 / params.sigma
    diffusive = 2.0 * params.temperature * (params.eps / params.sigma) ** 2
    mean = params.u * dt + drift * rate_scale * k2
    var = np.maximum(diffusive * k4 + drift * drift * rate_scale * rate_scale * k3, 0.0)
    if scalar and mean.ndim == 1 and mean.shape[0] == 1 and np.ndim(v_final) == 0:
        return float(mean[0]), float(var[0])
    return mean, var


def mean_conditioned(params, dt, v_final):
    """Mean displacement over dt given the final velocity sample v_final."""
    return conditioned_mean_var(params, dt, v_final)[0]


def var_conditioned(params, dt, v_final):
    """Variance of the displacement over dt given the final velocity."""
    return conditioned_mean_var(params, dt, v_final)[1]


def conditional_flighttime_pdf(dtau, k, dt):
    """Density of one flight-time overlap given k >= 1 collisions in [0, dt].

    k (dt - dtau)**(k-1) / dt**k on [0, dt], zero outside. For k = 0 the
    single overlap is deterministically dt and the formula is undefined.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"collision count must be a positive integer, got {k}")
    if not dt > 0:
        raise ValueError("dt must be positive")
    dtau = np.asarray(dtau, dtype=np.float64)
    inside = (dtau >= 0.0) & (dtau <= dt)
    base = np.where(inside, dt - dtau, 0.0)
    out = np.where(inside, k * base ** (k - 1) / dt**k, 0.0)
    return out if out.ndim else float(out)


def final_flight_moments(params, dt):
    """Mean and variance of the last flight overlap, dt acting as a ceiling.

    mean = (eps**2/sigma)(1 - e**(-a)),
    var  = (eps**4/sigma**2)(1 - 2a e**(-a) - e**(-2a)).
    """
    (_, k2, k3, _), scalar = _kernel_table(params.collisionality(np.asarray(dt, dtype=np.float64)))
    rate_scale = params.eps**2 / params.sigma
    mean = rate_scale * k2
    var = rate_scale * rate_scale * k3
    if scalar:
        return float(mean[0]), float(var[0])
    return mean, var


def bound_low_conditioned(params, dt):
    """Single-collision error bound given a collision occurred.

    0.24959 sqrt(T sigma dt**3 / eps**4).
    """
    dt = np.asarray(dt, dtype=np.float64)
    out = LOW_COLLISIONAL_CONSTANT * np.sqrt(
        params.temperature * params.sigma * dt**3 / params.eps**4
    )
    return out if out.ndim else float(out)


def bound_low_collisional(params, dt, t_end):
    """(local, total) error bounds in the low-collisional regime.

    local = 0.24959 sqrt(T sigma**3 dt**5 / eps**8),
    total = 0.24959 t_end sqrt(T sigma**3 dt**3 / eps**8).
    """
    dt = np.asarray(dt, dtype=np.float64)
    base = params.temperature * params.sigma**3 / params.eps**8
    local = LOW_COLLISIONAL_CONSTANT * np.sqrt(base * dt**5)
    total = LOW_COLLISIONAL_CONSTANT * t_end * np.sqrt(base * dt**3)
    if local.ndim:
        return local, total
    return float(local), float(total)


def bound_high_collisional(params, dt, t_end):
    """(local, total) error bounds in the high-collisional regime.

    local = 0.58 sqrt(T) eps**3 / sqrt(sigma**3 dt),
    total = 0.58 sqrt(T) eps**3 t_end / sqrt(sigma**3 dt**3).
    """
    dt = np.asarray(dt, dtype=np.float64)
    root_t = np.sqrt(params.temperature)
    local = HIGH_COLLISIONAL_CONSTANT * root_t * params.eps**3 / np.sqrt(params.sigma**3 * dt)
    total = (
        HIGH_COLLISIONAL_CONSTANT * root_t * params.eps**3 * t_end / np.sqrt(params.sigma**3 * dt**3)
    )
    if local.ndim:
        return local, total
    return float(local), float(total)


def _simpson(f, lo, hi, n):
    # composite Simpson; n must be even
    x = np.linspace(lo, hi, n + 1)
    y = f(x)
    h = (hi - lo) / n
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


@dataclass(frozen=True)
class ConstantsReport:
    velocity_integral: float
    velocity_integral_target: float
    velocity_integral_refined: float
    hermite_w1: float
    hermite_w1_target: float
    hermite_w1_refined: float
    k4: float
    k4_verified: bool

    @property
    def velocity_integral_ok(self):
        return abs(self.velocity_integral - self.velocity_integral_target) <= 5e-4

    @property
    def hermite_w1_ok(self):
        return abs(self.hermite_w1 - self.hermite_w1_target) <= 1e-2

    @property
    def richardson_ok(self):
        return (
            abs(self.velocity_integral - self.velocity_integral_refined) < 1e-6
            and abs(self.hermite_w1 - self.hermite_w1_refined) < 1e-6
        )

    @property
    def all_ok(self):
        return self.velocity_integral_ok and self.hermite_w1_ok and self.richardson_ok


def verify_paper_constants(n=4096):
    """Recompute the two well-defined constants behind the error bounds.

    The velocity integral is E[sqrt(Z**2 + 1)] for standard normal Z. The
    Wasserstein norm of the degree-4 Hermite-weighted Gaussian equals
    E|Z**3 - 3Z| because phi(x)(x**3 - 3x) is its antiderivative. k4 has no
    independent definition here and is reported unverified.
    """

    def phi(x):
        return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)

    def f_vel(x):
        return np.sqrt(x * x + 1.0) * phi(x)

    def f_herm(x):
        return np.abs(x**3 - 3.0 * x) * phi(x)

    lo, hi = -12.0, 12.0
    vel = _simpson(f_vel, lo, hi, n)
    vel2 = _simpson(f_vel, lo, hi, 2 * n)
    # |x^3 - 3x| has kinks at 0 and +-sqrt(3); integrate between them
    knots = [lo, -np.sqrt(3.0), 0.0, np.sqrt(3.0), hi]
    herm = sum(_simpson(f_herm, a, b, n) for a, b in zip(knots, knots[1:]))
    herm2 = sum(_simpson(f_herm, a, b, 2 * n) for a, b in zip(knots, knots[1:]))
    return ConstantsReport(
        velocity_integral=vel,
        velocity_integral_target=VELOCITY_INTEGRAL,
        velocity_integral_refined=vel2,
        hermite_w1=herm,
        hermite_w1_target=HERMITE_W1_NORM,
        hermite_w1_refined=herm2,
        k4=K4_CONSTANT,
        k4_verified=False,
    )
