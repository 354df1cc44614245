"""Moment estimators and distribution tests for the Monte-Carlo harness.

The Kolmogorov-Smirnov tests use the exact statistic and the asymptotic
Kolmogorov distribution with the standard effective-sample-size correction

    lam = D * (ne + 0.12 + 0.11 / ne),   ne = sqrt(n*m/(n+m))

(one-sample: ne = sqrt(n)).  The harness runs a test only when each
sample holds ``min_test_samples`` values, which a config may set as low as
2: ``configs/acceptance.cfg`` uses 1e4, the benchmark's configs 10 to 250.
At such small sizes the asymptotic p-value runs below the exact one, so a
test rejects somewhat more often than alpha: for two samples of 100 at
D = 0.25 it gives 0.0030 where the exact two-sample law gives 0.0037, and
for 250 at D = 0.152, 0.0054 against 0.0061.

Test budget: nothing caps a suite's test count.  ``configs/acceptance.cfg``
runs 93 tests, so at alpha = 0.001 the family-wise false-failure
probability is about 8.9% before retries; one 256-round section alone runs
257 tests (about 23%).  Seeds are fixed, and a failing section is rerun
once with an independent seed before the failure is declared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# Abramowitz-Stegun 7.1.26: for x >= 0, erfc(x) = t (a1 + t (a2 + ... + t a5))
# exp(-x^2) + e, t = 1 / (1 + p x), |e| <= 1.5e-7; coefficients a5 first.
_AS_P = 0.3275911
_AS_A = (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
# A bound on |_approx_normal_cdf - normal_cdf| (the formula gives 7.5e-8),
# on which normality_check's choice of where to call math.erfc rests.
_CDF_MARGIN = 1e-6
# Values per slice of normality_check's approximation, which bounds its
# temporaries.
_CDF_CHUNK = 8192


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
    the running count of x in it, and so that of y, read at the last key of
    each tie group, gives both empirical CDFs at every data point.  The
    counts and CDFs are written into the merge's buffers, so the test holds
    at most four arrays of n + m values at once; at large n every fresh
    array costs page faults, as the allocator returns freed ones to the
    system."""
    x, y = _finite_sorted(x, "x"), _finite_sorted(y, "y")
    n, m = x.size, y.size
    data = np.concatenate([x, y])
    del x, y
    order = np.argsort(data, kind="stable")
    merged = data[order]
    last = np.append(merged[1:] != merged[:-1], True)
    count = np.cumsum(order < n, out=order)
    cdf_x = np.divide(count, n, out=data)
    count = np.subtract(np.arange(1, n + m + 1), count, out=count)
    cdf_y = np.divide(count, m, out=merged)
    gap = np.abs(np.subtract(cdf_x, cdf_y, out=cdf_x), out=cdf_x)
    d = float(np.max(gap, where=last, initial=0.0))
    p = _ks_p_value(d, math.sqrt(n * m / (n + m)))
    return TestReport(name, d, p, alpha, p > alpha)


def _approx_normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array to within ``_CDF_MARGIN``: half the
    Abramowitz-Stegun erfc at |z| / sqrt(2), reflected for z > 0."""
    x = np.abs(z) / _SQRT2
    np.minimum(x, 40.0, out=x)   # erfc is 0.0 beyond 27; keeps x * x finite
    t = 1.0 / (1.0 + _AS_P * x)
    tail = np.full_like(t, _AS_A[0])
    for a in _AS_A[1:]:
        tail *= t
        tail += a
    tail *= t
    np.square(x, out=x)
    np.negative(x, out=x)
    tail *= np.exp(x, out=x)
    tail *= 0.5   # Phi(-|z|)
    return np.where(z < 0.0, tail, 1.0 - tail)


def normality_check(sample, alpha: float = 0.001, name: str = "normality") -> TestReport:
    """One-sample KS test against the standard normal CDF.

    Intended for samples of at least 1e4 draws (asymptotic p-value).

    An approximate CDF gives ``gap[i] = (i + 1)/n - F(z_i)`` to within
    ``_CDF_MARGIN``, computed slice by slice into one array: D+ is the
    largest gap and D- is 1/n minus the smallest.  Only the indices within
    twice the margin of either extreme can hold the exact maximum, and only
    they (a few in a random sample) get the exact ``normal_cdf`` and the
    exact D+ and D- formulas.  So D and p are bitwise those of evaluating
    ``normal_cdf`` at every value.
    """
    z = _finite_sorted(sample, "sample")
    n = z.size
    gap = np.empty(n)
    for i in range(0, n, _CDF_CHUNK):
        chunk = z[i:i + _CDF_CHUNK]
        np.subtract(np.arange(i + 1, i + 1 + chunk.size) / n, _approx_normal_cdf(chunk),
                    out=gap[i:i + chunk.size])
    near = 2.0 * _CDF_MARGIN
    idx = np.flatnonzero((gap >= gap.max() - near) | (gap <= gap.min() + near))
    f = np.array(list(map(normal_cdf, z[idx].tolist())))
    grid = (idx + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    p = _ks_p_value(d, math.sqrt(n))
    return TestReport(name, d, p, alpha, p > alpha)


def empirical_moments(samples, cols=None, overwrite=False) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased mean vector and covariance matrix of columns ``cols`` (all
    by default, else in increasing order) of an (n_trials, n_rounds) sample
    matrix, columns indexed by round.  The covariance is computed as
    ``np.cov(samples[:, cols], rowvar=False)`` computes it, so its bits are
    the same.

    The chosen columns are centred in place as one F-order block.  By
    default that block is an owned copy.  With ``overwrite``, ``samples``
    must be an F-order float matrix its caller reads no more: the chosen
    columns are moved to its front and centred there, so no copy is made.
    A column holding a NaN or an infinity has a non-finite mean, which
    raises (as does a column whose sum overflows)."""
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D trials-by-rounds array, got ndim={a.ndim}")
    if a.shape[0] < 2:
        raise ValueError("need at least two trials for moment estimates")
    if not overwrite:
        a = a.copy(order="K") if cols is None else a[:, np.asarray(cols, dtype=np.intp)]
    elif cols is not None:
        if not a.flags.f_contiguous:
            raise ValueError("overwrite needs an F-order sample matrix")
        for j, c in enumerate(cols):   # increasing, so column c is not yet overwritten
            if c != j:
                a[:, j] = a[:, c]
        a = a[:, :len(cols)]
    mean = a.mean(axis=0)
    if not np.all(np.isfinite(mean)):
        raise ValueError("sample matrix contains non-finite entries")
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
