"""Empirical Wasserstein-1 distance, histogram binning, and order fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HistogramSpec",
    "w1_sorted",
    "fit_order",
]


@dataclass(frozen=True)
class HistogramSpec:
    """Uniform binning; edge bins absorb out-of-range samples so counts
    always total the ensemble size."""

    lo: float = -15.0
    hi: float = 15.0
    bins: int = 100

    def __post_init__(self):
        if not (self.hi > self.lo and self.bins >= 1):
            raise ValueError(f"bad histogram spec ({self.lo}, {self.hi}, {self.bins})")

    @property
    def edges(self):
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def counts(self, samples):
        samples = np.asarray(samples, dtype=np.float64)
        width = (self.hi - self.lo) / self.bins
        k = np.floor((samples - self.lo) / width).astype(np.int64)
        np.clip(k, 0, self.bins - 1, out=k)
        return np.bincount(k, minlength=self.bins)


def w1_sorted(samples_a, samples_b):
    """Bare W1 distance: mean absolute difference of order statistics.

    For equal-size empirical measures on the line the sorted pairing is the
    optimal coupling, so this is exact, not an estimate of the coupling.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64))
    b = np.sort(np.asarray(samples_b, dtype=np.float64))
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"need equal nonzero sample counts, got {a.shape} and {b.shape}")
    return float(np.mean(np.abs(a - b)))


def fit_order(xs, ys):
    """Least-squares slope of log ys against log xs; needs >= 3 points."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError(f"need >= 3 paired points, got {xs.shape} and {ys.shape}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive values")
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)
