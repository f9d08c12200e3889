"""Small shared statistics helpers: KS distances and the jackknife covariance."""

from __future__ import annotations

import numpy as np

__all__ = ["ks_distance_vs_cdf", "ks_distance_two_sample", "jackknife_cov"]


def ks_distance_vs_cdf(samples, cdf) -> float:
    """sup |empirical CDF - cdf| over the sample points."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_distance_two_sample(a, b) -> float:
    """sup distance between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def jackknife_cov(a, b) -> dict:
    """Sample covariance of paired samples with its delete-one jackknife
    standard error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    reps = len(a)
    sa, sb, sab = a.sum(), b.sum(), (a * b).sum()
    cov = sab / reps - (sa / reps) * (sb / reps)
    d = reps - 1
    cov_del = (sab - a * b) / d - (sa - a) * (sb - b) / (d * d)
    se = float(np.sqrt((d / reps) * np.sum((cov_del - cov_del.mean()) ** 2)))
    return {"cov_hat": float(cov), "stderr": se}
