"""Moment estimators and distribution tests for the Monte-Carlo harness.

The Kolmogorov-Smirnov tests use the exact statistic and the asymptotic
Kolmogorov distribution with the standard effective-sample-size correction

    lam = D * (ne + 0.12 + 0.11 / ne),   ne = sqrt(n*m/(n+m))

(one-sample: ne = sqrt(n)).  Asymptotic p-values are adequate here because
harness sample sizes are at least 1e4.

Test budget: the harness keeps a suite under ~100 tests at alpha = 0.001, so
the family-wise false-failure probability stays below 0.1; seeds are fixed,
and a failing arm is rerun once with an independent seed before the failure
is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# Values per list read out by normality_check.
_CDF_CHUNK = 4096


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test: ``passed`` is ``p_value >
    threshold``, the threshold being the test's significance level."""

    name: str
    statistic: float
    p_value: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic, "p_value": self.p_value,
                "threshold": self.threshold, "passed": self.passed}


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / _SQRT2)


def kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution,
    Q(lam) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2).

    The alternating series converges poorly for small lam, so below 1.18 we
    use the equivalent theta-function form of the CDF (Marsaglia-Tsang-Wang
    switch point).  Monotone decreasing in lam.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        t = math.exp(-math.pi * math.pi / (8.0 * lam * lam))
        cdf = (_SQRT2PI / lam) * (t + t ** 9 + t ** 25 + t ** 49)
        return min(1.0, max(0.0, 1.0 - cdf))
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = 2.0 * sign * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-17:
            break
        sign = -sign
    return min(1.0, max(0.0, total))


def _ks_p_value(d: float, effective_n: float) -> float:
    lam = d * (effective_n + 0.12 + 0.11 / effective_n)
    return kolmogorov_sf(lam)


def _finite_sorted(sample, what: str) -> np.ndarray:
    a = np.sort(np.asarray(sample, dtype=float))
    if a.size == 0:
        raise ValueError(f"{what} must be nonempty")
    # Sorting puts -inf first and +inf, then NaN, last.
    if not (math.isfinite(a[0]) and math.isfinite(a[-1])):
        raise ValueError(f"{what} contains non-finite values")
    return a


def ks_two_sample(x, y, alpha: float = 0.001, name: str = "ks_two_sample") -> TestReport:
    """Two-sample KS test: exact statistic sup |F_x - F_y|, asymptotic p.

    A stable argsort of the sorted samples end to end merges the two runs;
    the running count of x in it, read at the last key of each tie group,
    gives both empirical CDFs at every data point."""
    x, y = _finite_sorted(x, "x"), _finite_sorted(y, "y")
    n, m = x.size, y.size
    data = np.concatenate([x, y])
    order = np.argsort(data, kind="stable")
    merged = data[order]
    ends = np.append(np.flatnonzero(merged[1:] != merged[:-1]), n + m - 1)
    count_x = np.cumsum(order < n)[ends]
    d = float(np.max(np.abs(count_x / n - (ends + 1 - count_x) / m)))
    p = _ks_p_value(d, math.sqrt(n * m / (n + m)))
    return TestReport(name, d, p, alpha, p > alpha)


def normality_check(sample, alpha: float = 0.001, name: str = "normality") -> TestReport:
    """One-sample KS test against the standard normal CDF.

    Intended for samples of at least 1e4 draws (asymptotic p-value).
    """
    z = _finite_sorted(sample, "sample")
    n = z.size
    # math.erfc mapped in C over normal_cdf's arguments, read out as Python
    # floats one chunk at a time, so f is bitwise equal to the per-value
    # form and only one chunk's float objects are alive at once.
    f = 0.5 * np.fromiter(chain.from_iterable(
        map(math.erfc, (-z[i:i + _CDF_CHUNK] / _SQRT2).tolist())
        for i in range(0, n, _CDF_CHUNK)), float, n)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    p = _ks_p_value(d, math.sqrt(n))
    return TestReport(name, d, p, alpha, p > alpha)


def empirical_moments(samples, cols=None) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased mean vector and covariance matrix of columns ``cols`` (all
    by default) of an (n_trials, n_rounds) sample matrix, columns indexed
    by round.  The chosen columns are taken with an integer index, so they
    are always one owned copy (an F-order input's stays F-order), and that
    copy is centred in place.  The covariance is computed as ``np.cov(
    samples[:, cols], rowvar=False)`` computes it, so its bits are the same."""
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D trials-by-rounds array, got ndim={a.ndim}")
    a = a.copy(order="K") if cols is None else a[:, np.asarray(cols, dtype=np.intp)]
    if not np.all(np.isfinite(a)):
        raise ValueError("sample matrix contains non-finite entries")
    if a.shape[0] < 2:
        raise ValueError("need at least two trials for moment estimates")
    mean = a.mean(axis=0)
    a -= mean
    centered = a.T
    cov = np.dot(centered, centered.T)
    cov *= 1.0 / (a.shape[0] - 1)
    return mean, cov


def covariance_deviation(cov, target) -> float:
    """Maximum absolute entrywise deviation between two matrices."""
    cov = np.asarray(cov, dtype=float)
    target = np.asarray(target, dtype=float)
    if cov.shape != target.shape:
        raise ValueError(f"shape mismatch: {cov.shape} vs {target.shape}")
    if cov.size == 0:
        return 0.0
    return float(np.max(np.abs(cov - target)))


def two_proportion_z(
    k1: int, n1: int, k2: int, n2: int, alpha: float = 0.001,
    name: str = "two_proportion_z",
) -> TestReport:
    """Two-sided pooled two-proportion z-test for k1/n1 vs k2/n2."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("sample sizes must be positive")
    p1 = k1 / n1
    p2 = k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = 0.0 if se == 0.0 else (p1 - p2) / se
    p = math.erfc(abs(z) / _SQRT2)
    return TestReport(name, z, p, alpha, p > alpha)
