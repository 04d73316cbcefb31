"""Experiment suites: single-step error sweeps, histograms, speedup, and
the self-verifying moment/constant checks.

Every experiment is a pure function of (config, seed): particle streams are
derived from the seed and fixed stream offsets, so reruns produce identical
rows at any thread count. Wall-clock columns are the one exception and can
be switched off (measure_time) when byte-identical output matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _POINT_STRIDE, emit_csv
from .core import (CHUNK, RECORDS, BackgroundParams, _draws, _stream_draws, ndtr,
                   normal_from_counter, step_count, uniform_open_closed)
from .kd import kd_ensemble, random_walk_ensemble
from .kinetic import kinetic_ensemble
from .metrics import HistogramSpec, w1_sorted
from .moments import (
    HERMITE_W1_TOL,
    VELOCITY_INTEGRAL_TOL,
    _kernel_table,
    bound_high_collisional,
    bound_low_conditioned,
    conditioned_mean_var,
    mean_unconditioned,
    var_unconditioned,
    verify_paper_constants,
)
from .oracles import conditioned_increment_ensemble, sample_moments

__all__ = [
    "ExperimentResult",
    "run_single_step_low",
    "run_single_step_high",
    "run_histogram",
    "run_speedup",
    "run_moments_check",
    "run_constants_check",
    "run_experiment",
]

# disjoint stream ranges for the independent draw families of one point
_SIDE_OFFSET = 1 << 60
_PERMUTE_OFFSET = 3 << 60


@dataclass(frozen=True)
class ExperimentResult:
    header: tuple
    rows: list
    ok: bool | None = None
    message: str = ""

    def write(self, path):
        emit_csv(self.rows, path, self.header)


def _maxwellian(params, seed, lo, n):
    """eps * u + sqrt(T) z, z drawn at counter 0 of streams lo .. lo + n - 1."""
    z = _stream_draws(_draws.normals, seed, lo, 0, np.empty(n))
    sd = math.sqrt(params.temperature)
    return np.add(params.eps * params.u, np.multiply(sd, z, out=z), out=z)


def _rejection_kinetic_paths(params, v0, dt, n, seed, stream_lo, threads=1):
    """Simulate kinetic single steps from (0, v0), keeping the first n
    paths with at least one collision.

    Candidates run in stream order, in slices of threads * CHUNK from the
    start of the point's window of _POINT_STRIDE streams, until a slice
    holds the n-th accepted path, so the accepted set is a pure function of
    the seed. Rejection leaves the conditioned law unbiased. The last slice
    is clipped at the window's end, and a point that needs more fails rather
    than reuse the next point's. The engine reads v0, one value for all,
    and each slice's positions, windows on one buffer, in place: it copies
    only the candidates that collide, and every slice records into one
    buffer allocated per call, so no slice faults in output pages of its
    own. The accepted paths go straight into n-sized outputs, so memory is
    O(threads * CHUNK + n) whatever the acceptance rate, and each grid
    point's arrays die before the next point starts. Returns (stream ids,
    displacement, first overlap, last overlap, final velocity) of the
    accepted paths.
    """
    width = threads * CHUNK
    x0 = np.zeros(width)
    records = tuple(np.empty(width, dtype=d) for d in RECORDS)
    out = (np.empty(n, dtype=np.uint64), np.empty(n), np.empty(n), np.empty(n), np.empty(n))
    got = 0
    for lo in range(0, _POINT_STRIDE, width):
        m = min(width, _POINT_STRIDE - lo)
        ens = kinetic_ensemble(params, x0[:m], v0, dt, seed, stream_lo=stream_lo + lo,
                               threads=threads, out=[a[:m] for a in records])
        keep = np.flatnonzero(ens.collisions != 0)[:n - got]
        new = slice(got, got + keep.size)
        out[0][new] = np.uint64(stream_lo + lo) + keep.astype(np.uint64)
        for dst, src in zip(out[1:], (ens.x, ens.first_overlap, ens.last_overlap, ens.v)):
            dst[new] = src[keep]
        got += keep.size
        if got == n:
            return out
    raise RuntimeError(
        f"{n} paths with a collision at dt={dt} need more than the "
        f"{_POINT_STRIDE} candidate streams of one grid point"
    )


def _w1_point_vs_gaussian(mean, sd, point):
    """Closed-form W1 between N(mean, sd**2) and a point mass: E|X - d|."""
    sd = np.asarray(sd, dtype=np.float64)
    t = np.where(sd > 0, (point - mean) / np.where(sd > 0, sd, 1.0), 0.0)
    phi = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    value = sd * (2.0 * phi + t * (2.0 * ndtr(t) - 1.0))
    return np.where(sd > 0, value, np.abs(point - mean))


def _stratified_w1(order_key, a, b, bins):
    """Mean within-stratum W1 after sorting pairs into equal-count bins of
    the conditioning key: the coupling matches on the key and is optimal
    (comonotone) inside each stratum."""
    order = np.argsort(order_key)
    key = order_key[order]
    if not (key[1:] > key[:-1]).all():
        # tied keys may straddle a stratum edge, and only the stable order is the reference
        order = np.argsort(order_key, kind="stable")
    a = a[order]
    b = b[order]
    n = a.size
    edges = np.linspace(0, n, bins + 1).astype(np.int64)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            total += w1_sorted(a[lo:hi], b[lo:hi]) * (hi - lo)
    return total / n


def _single_step_low_point(config, params, i, dt):
    """One dt of run_single_step_low: its row, from arrays that die on return."""
    base = config.seed
    streams, dx_kin, tau_first, theta_last, v_next = _rejection_kinetic_paths(
        params, config.v0, dt, config.particles, base, i * _POINT_STRIDE, threads=config.threads
    )
    m_last, var_last = conditioned_mean_var(params, theta_last, v_next)
    cond_w1 = _w1_point_vs_gaussian(m_last, np.sqrt(var_last), (v_next / params.eps) * theta_last)
    w1_vtheta = float(np.mean(cond_w1))
    # coupled KD paths: same first collision, same final velocity
    theta_kd = dt - tau_first
    z = normal_from_counter(base, streams + np.uint64(_SIDE_OFFSET), np.uint64(0))
    m_kd, var_kd = conditioned_mean_var(params, theta_kd, v_next)
    dx_kd = (config.v0 / params.eps) * tau_first + m_kd + np.sqrt(var_kd) * z
    w1_v = _stratified_w1(v_next, dx_kin, dx_kd, config.velocity_bins)
    return dt, w1_vtheta, w1_v, bound_low_conditioned(params, dt)


def run_single_step_low(config):
    """Single-step kinetic-vs-KD error against the low-collisional bound.

    Paths are restricted to at least one collision by rejection. The
    (v, theta) column conditions on the final velocity and the final-flight
    window of each simulated path and averages the conditional W1, which is
    available in closed form because the conditional KD law is Gaussian and
    the conditional kinetic motion over that window is the straight flight.
    The v column couples the two simulated schemes (shared first collision
    and final velocity per pair) within strata of the final velocity.
    """
    params = BackgroundParams(config.sigma, config.u, config.temperature, config.eps)
    rows = [_single_step_low_point(config, params, i, dt) for i, dt in enumerate(config.dt_grid)]
    return ExperimentResult(("dt", "w1_cond_v_theta", "w1_cond_v", "bound"), rows)


def _permutation_floor(pooled, reps, seed, stream):
    """Mean W1 between random halves of the pooled sample (two halves of n
    values): the resolution limit of the two-sample distance at this size.

    Replicate b splits the pool by uniforms u at stream + b: the n values
    with the smallest u, in stable order, against the rest. If the n-th and
    (n+1)-th smallest u differ, the first half is u <= the n-th, found by a
    linear-time partition, and both halves come out sorted from the pool
    sorted once; on a tie the stable argsort of u splits it.
    """
    n = pooled.size // 2
    by_value = np.argsort(pooled, kind="stable")
    ps = pooled[by_value]
    vals = []
    for b in range(reps):
        u = uniform_open_closed(seed, np.uint64(stream + b), np.arange(pooled.size, dtype=np.uint64))
        lo, hi = np.partition(u, (n - 1, n))[n - 1 : n + 1]
        if lo < hi:
            first = (u <= lo)[by_value]
            vals.append(float(np.mean(np.abs(ps[first] - ps[~first]))))
        else:
            order = np.argsort(u, kind="stable")
            vals.append(w1_sorted(pooled[order[:n]], pooled[order[n : 2 * n]]))
    return float(np.mean(vals))


def run_single_step_high(config):
    """Single-step kinetic-vs-KD error sweep over the collisionality.

    Both schemes drop the initial correlated flight (it is identical in the
    two processes and vanishes in the diffusive limit): the kinetic side
    starts from a resampled velocity and the KD side is one diffusive
    substep over the whole step.
    """
    rows = []
    n = config.particles
    dt = config.dt
    for i, coll in enumerate(config.collisionality_grid):
        eps = math.sqrt(config.sigma * dt / coll)
        params = BackgroundParams(config.sigma, config.u, config.temperature, eps)
        lo = i * _POINT_STRIDE
        dx_kin = conditioned_increment_ensemble(
            params,
            dt,
            _maxwellian(params, config.seed, lo, n),
            n=n,
            seed=config.seed,
            stream_lo=lo,
            ctr0=np.uint64(1),
            threads=config.threads,
        )
        z = _stream_draws(_draws.normals, config.seed, lo + _SIDE_OFFSET, 1, np.empty(n))
        v_kd = _maxwellian(params, config.seed, lo + _SIDE_OFFSET, n)
        mean_kd, var_kd = conditioned_mean_var(params, dt, v_kd)
        dx_kd = mean_kd + np.sqrt(var_kd) * z
        w1 = w1_sorted(dx_kin, dx_kd)
        floor = _permutation_floor(
            np.concatenate([dx_kin, dx_kd]),
            config.bootstrap_reps,
            config.seed,
            _PERMUTE_OFFSET + i * config.bootstrap_reps,
        )
        bound, _ = bound_high_collisional(params, dt, dt)
        rows.append((coll, eps, w1, bound, floor))
    return ExperimentResult(("collisionality", "eps", "w1", "bound", "noise_floor"), rows)


def _bimodal_source(n, seed, stream_lo):
    """Positions at zero; velocities an even mix of N(-10, 1) and N(10, 1)."""
    u = _stream_draws(_draws.uniforms, seed, stream_lo, 0, np.empty(n), 1.0)
    v0 = _stream_draws(_draws.normals, seed, stream_lo, 1, np.empty(n))
    v0 += np.where(u <= 0.5, -10.0, 10.0)
    return np.zeros(n), v0


def _histogram_point(config, spec, i, eps, n_steps):
    """One eps of run_histogram: its rows, from arrays that die on return."""
    params = BackgroundParams(config.sigma, config.u, config.temperature, eps)
    lo = i * _POINT_STRIDE
    x0, v0 = _bimodal_source(config.particles, config.seed, lo)
    ctr0 = np.uint64(2)
    kin = kinetic_ensemble(
        params, x0, v0, config.t_end, config.seed, stream_lo=lo, ctr0=ctr0,
        threads=config.threads, out=(np.empty_like(x0),),
    ).x
    kd = kd_ensemble(
        params, x0, v0, config.dt, n_steps, config.seed, stream_lo=lo, ctr0=ctr0,
        threads=config.threads, out=(np.empty_like(x0),),
    ).x
    rw = random_walk_ensemble(
        params, x0, config.dt, n_steps, config.seed, stream_lo=lo, ctr0=ctr0,
        threads=config.threads,
    )
    w1s = (w1_sorted(kin, kd), w1_sorted(kin, rw), w1_sorted(kd, rw))
    pooled = float(np.std(np.concatenate([kin, kd]), ddof=1))
    counts = (spec.counts(kin), spec.counts(kd), spec.counts(rw))
    edges = spec.edges
    return [(eps, float(edges[b]), float(edges[b + 1]), *(int(c[b]) for c in counts), *w1s,
             pooled) for b in range(spec.bins)]


def run_histogram(config):
    """Final-position histograms of the three schemes from the bimodal
    source, one KD/random-walk step covering the whole horizon."""
    spec = HistogramSpec(config.histogram_lo, config.histogram_hi, config.histogram_bins)
    header = (
        "eps",
        "bin_lo",
        "bin_hi",
        "kinetic_count",
        "kd_count",
        "rw_count",
        "w1_kinetic_kd",
        "w1_kinetic_rw",
        "w1_kd_rw",
        "pooled_std",
    )
    n_steps = step_count(config.t_end, config.dt)
    rows = [row for i, eps in enumerate(config.eps_list)
            for row in _histogram_point(config, spec, i, eps, n_steps)]
    return ExperimentResult(header, rows)


def run_speedup(config):
    """Executed-collision counts and wall time, kinetic vs KD, over a
    collisionality sweep. Both schemes run on the same streams so the
    count ratio has almost no Monte Carlo noise."""
    rows = []
    n = config.particles
    dt = config.dt
    n_steps = step_count(config.t_end, dt)
    header = ["collisionality", "eps", "kinetic_collisions", "kd_collisions",
              "measured_ratio", "analytic_ratio"]
    if config.measure_time:
        header += ["kinetic_seconds", "kd_seconds", "speedup"]
    for i, coll in enumerate(config.collisionality_grid):
        eps = math.sqrt(config.sigma * dt / coll)
        params = BackgroundParams(config.sigma, config.u, config.temperature, eps)
        lo = i * _POINT_STRIDE
        v0 = _maxwellian(params, config.seed, lo, n)
        x0, x = np.zeros(n), np.empty(n)

        def run(ensemble, *steps):
            # the collision total and the loop seconds; only the positions are
            # recorded, into one array that every rep of both schemes reuses
            ens = ensemble(params, x0, v0, *steps, config.seed, stream_lo=lo, ctr0=np.uint64(1),
                           threads=config.threads, out=(x,))
            return ens.total_collisions, ens.loop_seconds

        reps = config.timing_reps if config.measure_time else 1
        kin_times, kd_times = [], []
        for _ in range(reps):
            kin_total, t = run(kinetic_ensemble, config.t_end)
            kin_times.append(t)
            kd_total, t = run(kd_ensemble, dt, n_steps)
            kd_times.append(t)
        measured = kin_total / max(kd_total, 1)
        analytic = coll / float(_kernel_table(coll)[1])
        row = [coll, eps, kin_total, kd_total, measured, analytic]
        if config.measure_time:
            kin_t = float(np.median(kin_times))
            kd_t = float(np.median(kd_times))
            row += [kin_t, kd_t, kin_t / kd_t]
        rows.append(tuple(row))
    return ExperimentResult(tuple(header), rows)


_MOMENTS_COLLISIONALITY = (0.1, 1.0, 10.0, 100.0)
_MOMENTS_TEMPERATURE = (0.5, 1.0)
_MOMENTS_DRIFT = (0.0, 1.0)
_MOMENTS_VSTD = (-2.0, 0.0, 2.0)


def _moments_row(kind, coll, params, v_final, mom, mean_ref, var_ref):
    """One row of run_moments_check: the sample moments mom against the
    closed forms, each within 4 standard errors."""
    mean_ok = abs(mom.mean - mean_ref) <= 4 * mom.se_mean
    var_ok = abs(mom.variance - var_ref) <= 4 * mom.se_variance
    return (kind, coll, params.temperature, params.u, v_final, mean_ref, mom.mean, mom.se_mean,
            var_ref, mom.variance, mom.se_variance, mean_ok and var_ok)


def run_moments_check(config):
    """Closed-form moments against brute-force ensembles at 4 standard
    errors, over the collisionality/temperature/drift grid. Row k draws
    from the streams of grid point k."""
    rows = []
    n = config.particles
    dt = config.dt
    for coll in _MOMENTS_COLLISIONALITY:
        eps = math.sqrt(config.sigma * dt / coll)
        for temp in _MOMENTS_TEMPERATURE:
            for u in _MOMENTS_DRIFT:
                params = BackgroundParams(config.sigma, u, temp, eps)
                lo = len(rows) * _POINT_STRIDE
                v0 = _maxwellian(params, config.seed, lo, n)
                mom = sample_moments(kinetic_ensemble(
                    params, np.zeros(n), v0, dt, config.seed, stream_lo=lo, ctr0=np.uint64(1),
                    threads=config.threads, out=(np.empty(n),),
                ).x)
                rows.append(_moments_row("unconditioned", coll, params, "", mom,
                                         mean_unconditioned(params, dt),
                                         var_unconditioned(params, dt)))
                for c in _MOMENTS_VSTD:
                    v_final = params.eps * u + c * math.sqrt(temp)
                    mom = sample_moments(conditioned_increment_ensemble(
                        params, dt, v_final, n=n, seed=config.seed,
                        stream_lo=len(rows) * _POINT_STRIDE, threads=config.threads,
                    ))
                    rows.append(_moments_row("conditioned", coll, params, v_final, mom,
                                             *conditioned_mean_var(params, dt, v_final)))
    header = (
        "kind", "collisionality", "temperature", "u", "v_final",
        "mean_closed", "mean_mc", "mean_se", "var_closed", "var_mc", "var_se", "ok",
    )
    ok = all(row[-1] for row in rows)
    message = "all moment comparisons within 4 SE" if ok else "moment comparison outside 4 SE"
    return ExperimentResult(header, rows, ok=ok, message=message)


def run_constants_check(config):
    """Quadrature reproduction of the two bound constants."""
    report = verify_paper_constants(config.quadrature_points)
    rows = [
        ("velocity_integral", report.velocity_integral, report.velocity_integral_target,
         VELOCITY_INTEGRAL_TOL, report.velocity_integral_ok, "quadrature"),
        ("hermite_w1", report.hermite_w1, report.hermite_w1_target,
         HERMITE_W1_TOL, report.hermite_w1_ok, "quadrature"),
        ("k4", "", report.k4, "", "", "not independently verifiable"),
    ]
    header = ("name", "computed", "target", "tolerance", "ok", "note")
    ok = report.all_ok
    message = "constants reproduced" if ok else "constant quadrature outside tolerance"
    return ExperimentResult(header, rows, ok=ok, message=message)


_RUNNERS = {
    "single-step-low": run_single_step_low,
    "single-step-high": run_single_step_high,
    "histogram": run_histogram,
    "speedup": run_speedup,
    "moments-check": run_moments_check,
    "constants-check": run_constants_check,
}


def run_experiment(config):
    return _RUNNERS[config.experiment](config)
