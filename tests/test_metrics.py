import math

import numpy as np
import pytest

from kdmc import HistogramSpec, RngStream, fit_order, w1_sorted
from kdmc import experiments
from kdmc.oracles import sample_moments


class TestW1:
    def test_identical_sets(self):
        x = np.array([3.0, -1.0, 2.0])
        assert w1_sorted(x, x.copy()) == 0.0

    def test_translation(self):
        x = RngStream(1, 0).normal(size=10_000)
        for c in (-2.5, 0.75):
            assert w1_sorted(x, x + c) == pytest.approx(abs(c), rel=1e-12)

    def test_normal_vs_point_mass(self):
        # W1(N(0,1), delta_0) = E|Z| = sqrt(2/pi)
        n = 1_000_000
        z = RngStream(2, 0).normal(size=n)
        got = w1_sorted(z, np.zeros(n))
        assert abs(got - math.sqrt(2.0 / math.pi)) <= 0.003

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            w1_sorted(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            w1_sorted(np.ones(0), np.ones(0))

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=257)
            b = rng.normal(size=257) * rng.uniform(0.5, 2.0)
            d1 = w1_sorted(a, b)
            assert d1 == w1_sorted(b, a)
            # common reshuffling cannot change the sorted pairing
            assert d1 == w1_sorted(rng.permutation(a), rng.permutation(b))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c = (rng.normal(scale=s, size=128) for s in rng.uniform(0.2, 3.0, 3))
            assert w1_sorted(a, c) <= w1_sorted(a, b) + w1_sorted(b, c) + 1e-12

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=512)
        b = rng.normal(size=512)
        base = w1_sorted(a, b)
        for lam in (0.25, 3.0):
            assert w1_sorted(lam * a, lam * b) == pytest.approx(lam * base, rel=1e-12)


class TestSummarize:
    """The ensemble summaries the experiments report: sample moments and
    histogram counts."""

    def test_two_point_unbiased_variance(self):
        s = sample_moments(np.array([1.0, -1.0]))
        assert s.mean == 0.0
        assert s.variance == pytest.approx(2.0)  # unbiased convention
        assert s.n == 2

    def test_large_normal_sample(self):
        x = RngStream(4, 0).normal(size=1_000_000)
        s = sample_moments(x)
        assert abs(s.mean) <= 0.004
        assert abs(s.variance - 1.0) <= 0.006

    def test_histogram_counts_total_n(self):
        spec = HistogramSpec(-1.0, 1.0, 10)
        x = np.array([-5.0, -1.0, -0.05, 0.0, 0.3, 0.9999, 1.0, 7.0])
        counts = spec.counts(x)
        assert counts.sum() == x.size  # edge bins absorb out-of-range
        assert counts[0] >= 2 and counts[-1] >= 2
        assert len(spec.edges) == 11


class TestFitOrder:
    def test_linear(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_order(xs, xs) == pytest.approx(1.0)

    def test_three_halves(self):
        xs = np.array([0.01, 0.1, 1.0])
        assert fit_order(xs, xs**1.5) == pytest.approx(1.5)

    def test_noisy_quadratic(self):
        rng = np.random.default_rng(21)
        xs = np.logspace(-2, 0, 12)
        ys = 3.0 * xs**2 * (1.0 + 0.01 * rng.standard_normal(12))
        assert fit_order(xs, ys) == pytest.approx(2.0, abs=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


def argsort_floor(pooled, reps, seed, stream):
    """The permutation floor by a stable argsort of each replicate's
    uniforms, as it was first written: the oracle of the partition."""
    n = pooled.size // 2
    vals = []
    for b in range(reps):
        u = experiments.uniform_open_closed(seed, np.uint64(stream + b),
                                            np.arange(pooled.size, dtype=np.uint64))
        order = np.argsort(u, kind="stable")
        vals.append(w1_sorted(pooled[order[:n]], pooled[order[n : 2 * n]]))
    return float(np.mean(vals))


def stable_stratified_w1(key, a, b, bins):
    """_stratified_w1 on the stable argsort of the key alone: its oracle."""
    order = np.argsort(key, kind="stable")
    a, b = a[order], b[order]
    edges = np.linspace(0, a.size, bins + 1).astype(np.int64)
    return sum(w1_sorted(a[lo:hi], b[lo:hi]) * (hi - lo)
               for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo) / a.size


class TestExperimentW1:
    @pytest.mark.parametrize("levels, fallbacks", [(None, 0), (4096, 3), (2, 6)])
    def test_permutation_floor_matches_argsort(self, monkeypatch, levels, fallbacks):
        # levels quantises the replicates' uniforms, forcing ties: at 4096
        # levels half the thresholds tie, at 2 all of them, and each tied one
        # takes the argsort fallback, the one path that calls w1_sorted
        if levels is not None:
            draw = experiments.uniform_open_closed
            monkeypatch.setattr(experiments, "uniform_open_closed",
                                lambda *args: np.ceil(draw(*args) * levels) / levels)
        calls = []
        monkeypatch.setattr(experiments, "w1_sorted",
                            lambda a, b: calls.append(a) or w1_sorted(a, b))
        rng = np.random.default_rng(8)
        pooled = np.concatenate([rng.normal(size=3000), np.round(rng.normal(size=3000), 2)])
        got = experiments._permutation_floor(pooled, 6, 22, 3 << 60)
        assert got == argsort_floor(pooled, 6, 22, 3 << 60)
        assert len(calls) == fallbacks

    @pytest.mark.parametrize("decimals", [None, 1, 0])
    def test_stratified_w1_matches_stable_order(self, decimals):
        # rounded keys tie, and the ties straddle the stratum edges
        rng = np.random.default_rng(9)
        key = rng.normal(size=20_000)
        if decimals is not None:
            key = np.round(key, decimals)
        a, b = rng.normal(size=key.size), rng.normal(size=key.size)
        for bins in (1, 7, 64):
            want = stable_stratified_w1(key, a, b, bins)
            assert experiments._stratified_w1(key, a, b, bins) == want
