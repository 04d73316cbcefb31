"""Closed-form moments of the positional increment and error-bound evaluators.

All formulas are driven by the dimensionless group a = sigma * dt / eps**2
(the collisionality). The exponential combinations they need cancel
catastrophically for small a, so every kernel switches to a truncated
series below A_SMALL; the leading dt**3 behavior of the conditioned
variance is pure cancellation in naive arithmetic.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .core import _draws

__all__ = [
    "mean_unconditioned",
    "var_unconditioned",
    "conditioned_mean_var",
    "final_flight_moments",
    "bound_low_conditioned",
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
VELOCITY_INTEGRAL_TOL = 5e-4  # |quadrature - target| the constants check accepts
HERMITE_W1_TOL = 1e-2

A_SMALL = ctypes.c_double.in_dll(_draws, "A_SMALL").value  # the series switch


def _durations(dt, zero_ok=True):
    """dt as a float64 array; raises ValueError on a negative or NaN value,
    or on a zero one unless zero_ok."""
    dt = np.asarray(dt, dtype=np.float64)
    low = float(dt.min()) if dt.size else 1.0
    if not (low >= 0 if zero_ok else low > 0):
        raise ValueError(f"durations must be {'>= 0' if zero_ok else '> 0'}, got {low}")
    return dt


def _value(a):
    """a, or a float if it is 0-d: scalar inputs give floats."""
    return float(a) if np.ndim(a) == 0 else a


def _kernel_table(a):
    """The four exponential kernels at a >= 0, series-patched below A_SMALL.

    Returns (e^-a - 1 + a, 1 - e^-a, 1 - 2a e^-a - e^-2a,
    2 e^-a + a + a e^-a - 2), each in the shape of a. One np.exp serves all
    four; the rest is `kernels` in `_draws.c`, which KD collisions share.
    """
    a = _durations(a)
    flat = np.ascontiguousarray(a.reshape(-1))  # 1-d: numpy's exp may take another loop on 0-d
    ea = np.exp(-flat)
    k = np.empty((4, flat.size))
    _draws.kernels(flat.ctypes.data, ea.ctypes.data, k.ctypes.data, flat.size)
    return tuple(k.reshape(4, *a.shape))


def _substep_constants(params, dt):
    """dt, sigma, eps^2, u, eps^2 / sigma and 2 T (eps / sigma)^2: the
    constants of conditioned_mean_var, and `struct kd` of `_draws.c`."""
    return (dt, params.sigma, params.eps * params.eps, params.u, params.eps**2 / params.sigma,
            2.0 * params.temperature * (params.eps / params.sigma) ** 2)


def mean_unconditioned(params, dt):
    """Mean displacement over dt with all velocities Maxwellian: u * dt."""
    return _value(params.u * _durations(dt))


def var_unconditioned(params, dt):
    """Variance of the displacement over dt, all velocities Maxwellian.

    2 (eps/sigma)**2 T (e**(-a) - 1 + a) with a = sigma dt / eps**2.
    """
    k1 = _kernel_table(params.collisionality(np.asarray(dt, dtype=np.float64)))[0]
    return _value(2.0 * (params.eps / params.sigma) ** 2 * params.temperature * k1)


def conditioned_mean_var(params, dt, v_final):
    """Mean and variance of the displacement over dt given the final
    velocity sample v_final, from one shared kernel evaluation.

    mean = u dt + (v_final/eps - u) (eps**2/sigma) (1 - e**(-a)),
    var  = 2 T (eps/sigma)**2 (2e**(-a) + a + a e**(-a) - 2)
           + (v_final/eps - u)**2 (eps**4/sigma**2) (1 - 2a e**(-a) - e**(-2a)).
    k3 and k4 are never negative (tests sweep the series/closed-form switch
    densely), so neither is the variance: its square root needs no clamp.
    """
    dt = np.asarray(dt, dtype=np.float64)
    _, k2, k3, k4 = _kernel_table(params.collisionality(dt))
    drift = np.asarray(v_final, dtype=np.float64) / params.eps - params.u
    rate_scale, diffusive = _substep_constants(params, dt)[4:]
    mean = params.u * dt + drift * rate_scale * k2
    var = diffusive * k4 + drift * drift * rate_scale * rate_scale * k3
    return _value(mean), _value(var)


def final_flight_moments(params, dt):
    """Mean and variance of the last flight overlap, dt acting as a ceiling.

    mean = (eps**2/sigma)(1 - e**(-a)),
    var  = (eps**4/sigma**2)(1 - 2a e**(-a) - e**(-2a)).
    """
    _, k2, k3, _ = _kernel_table(params.collisionality(np.asarray(dt, dtype=np.float64)))
    rate_scale = params.eps**2 / params.sigma
    return _value(rate_scale * k2), _value(rate_scale * rate_scale * k3)


def bound_low_conditioned(params, dt):
    """Single-collision error bound given a collision occurred.

    0.24959 sqrt(T sigma dt**3 / eps**4).
    """
    dt = _durations(dt)
    return _value(LOW_COLLISIONAL_CONSTANT * np.sqrt(
        params.temperature * params.sigma * dt**3 / params.eps**4
    ))


def bound_high_collisional(params, dt, t_end):
    """(local, total) error bounds in the high-collisional regime.

    local = 0.58 sqrt(T) eps**3 / sqrt(sigma**3 dt),
    total = 0.58 sqrt(T) eps**3 t_end / sqrt(sigma**3 dt**3).
    """
    dt = _durations(dt, zero_ok=False)
    root_t = np.sqrt(params.temperature)
    local = HIGH_COLLISIONAL_CONSTANT * root_t * params.eps**3 / np.sqrt(params.sigma**3 * dt)
    total = (
        HIGH_COLLISIONAL_CONSTANT * root_t * params.eps**3 * t_end / np.sqrt(params.sigma**3 * dt**3)
    )
    return _value(local), _value(total)


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
        return abs(self.velocity_integral - self.velocity_integral_target) <= VELOCITY_INTEGRAL_TOL

    @property
    def hermite_w1_ok(self):
        return abs(self.hermite_w1 - self.hermite_w1_target) <= HERMITE_W1_TOL

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
