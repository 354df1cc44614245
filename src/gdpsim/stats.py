"""Moment estimators and distribution tests for the Monte-Carlo harness.

The Kolmogorov-Smirnov tests use the exact statistic and the asymptotic
Kolmogorov distribution with the standard effective-sample-size correction

    lam = D * (ne + 0.12 + 0.11 / ne),   ne = sqrt(n*m/(n+m))

(one-sample: ne = sqrt(n)).  Both statistics are found in two steps:
bounds over blocks of the sorted values show where the maximum can lie,
and only the values there get the exact counts or CDF, so D and p are
bitwise those of the exact work at every value.

The harness runs a test only when each sample holds ``min_test_samples``
values, which a config may set as low as 2: ``configs/acceptance.cfg``
uses 1e4, the benchmark's configs 10 to 250.
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
# Sorted values per block of normality_check's bounds.  On 100k normal
# draws the kept blocks hold 6-9% of the values at 16 and 32, and the
# check takes 0.42x the time of one that approximates every value; at 64
# they hold 10-15%.
_CDF_BLOCK = 32
# ks_two_sample's grid takes every _KS_GRID_STEP-th value of each sample.
_KS_GRID_STEP = 32
# Fewer values than this in the two samples together and ks_two_sample
# leaves the grid empty: the merge then sees every value, because the
# bounds cost more than they save.  Timed against the merge of every value
# on pairs of normal samples of equal size (2-core Xeon VM, NumPy 2.4.6),
# the test with the grid took 1.19x the time at 2000 values per sample,
# 1.12x at 2500, 0.95x at 3000, 0.82x at 3500 and 0.78x at 5000.
_KS_GRID_MIN = 6000


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
    a = np.array(sample, dtype=float)   # an owned copy, sorted in place
    a.sort()
    if a.size == 0:
        raise ValueError(f"{what} must be nonempty")
    # Sorting puts -inf first and +inf, then NaN, last.
    if not (math.isfinite(a[0]) and math.isfinite(a[-1])):
        raise ValueError(f"{what} contains non-finite values")
    return a


def _max_gap(data, nx: int, n: int, m: int, below=None) -> float:
    """The largest ``|cx/n - cy/m|`` over ``data``, sorted values of ``x``
    (the first ``nx``) then sorted values of ``y``, where ``cx`` and ``cy``
    count the values at or below each one in the two samples, of sizes
    ``n`` and ``m``, that these are taken from.

    A stable argsort of ``data`` merges the two runs, so a value's place in
    the merge and its index in its own run give both counts up to it; read
    at the last key of each tie group, they are the counts at every value.
    ``below``, when ``data`` leaves values out, is a pair of arrays that
    add, per merged value, the values of ``x`` and of ``y`` below it that
    it leaves out.  Beside ``data``, the argsort and the merged values, the
    merge holds the tie-group-end mask and two arrays of counts; the CDFs
    are written into its buffers.  The mask is a view of a buffer of ``n +
    m`` bytes: NumPy keeps a few freed buffers of each size under 1024
    bytes for reuse, so a mask sized by the values kept, which vary from
    call to call, would make the process hold a growing set of them."""
    order = np.argsort(data, kind="stable")
    merged = data[order]
    last = np.empty(n + m, dtype=bool)[:data.size]
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    # At merged place j, x's i-th value (order i) has i + 1 = order + 1
    # values of x up to it and y's k-th (order nx + k) has j - k = j + nx -
    # order.  Taken at a value of the other sample, each formula gives at
    # least the count there, so the count of x is the smaller; the two sum
    # to j + 1 + nx, so the count of y is the larger less nx.
    other = np.arange(nx, nx + data.size)
    other -= order
    order += 1
    count = np.minimum(order, other)
    count_y = np.maximum(order, other, out=order)
    del other
    count_y -= nx
    if below is not None:
        count += below[0]
        count_y += below[1]
    cdf_x = np.divide(count, n, out=data)
    cdf_y = np.divide(count_y, m, out=merged)
    gap = np.abs(np.subtract(cdf_x, cdf_y, out=cdf_x), out=cdf_x)
    return float(gap.max(where=last, initial=0.0))


_INFINITIES = np.array([-math.inf, math.inf])


def _near_max(x: np.ndarray, y: np.ndarray):
    """The values of sorted ``x`` and ``y`` that can hold the largest
    ``|m cx - n cy|``, with the counts of values below them that they leave
    out, as ``_max_gap``'s ``below`` takes them (see ``ks_two_sample``)."""
    n, m = x.size, y.size
    step = _KS_GRID_STEP
    grid = np.sort(np.concatenate((_INFINITIES, x[step - 1::step], y[step - 1::step])))
    cx = np.searchsorted(x, grid, "right")
    cy = np.searchsorted(y, grid, "right")
    wx, wy = m * cx, n * cy
    # Interval k holds the values in (grid[k], grid[k + 1]], so no tie group
    # spans two intervals; a repeated grid value makes an empty one.
    keep = np.maximum(wx[1:] - wy[:-1], wy[1:] - wx[:-1]) >= np.abs(wx - wy).max()
    size_x, size_y = np.diff(cx), np.diff(cy)
    x, y = x[np.repeat(keep, size_x)], y[np.repeat(keep, size_y)]
    size_x *= keep
    size_y *= keep
    size = size_x + size_y
    x_below = np.repeat(cx[1:] - np.cumsum(size_x), size)
    y_below = np.repeat(cy[1:] - np.cumsum(size_y), size)
    return x, y, (x_below, y_below)


def ks_two_sample(x, y, alpha: float = 0.001, name: str = "ks_two_sample") -> TestReport:
    """Two-sample KS test: exact statistic sup |F_x - F_y|, asymptotic p.

    D is ``|cx/n - cy/m|`` at the values where it is largest, with ``cx``
    and ``cy`` the counts of ``x`` and ``y`` at or below a value; the merge
    of the sorted samples in ``_max_gap`` gives the counts.  From
    ``_KS_GRID_MIN`` values on, the merge sees only the values where the
    maximum can lie.  Every ``_KS_GRID_STEP``-th value of each sample forms
    a grid, with exact counts at each grid value ``g`` by binary search, so
    exact integers ``W(g) = m cx(g) - n cy(g)``, which is ``nm (F_x -
    F_y)``.  A value ``v`` between neighbouring grid values ``g < h`` has
    counts between theirs, so ``|W(v)| <= max(m cx(h) - n cy(g), n cy(h) -
    m cx(g))``.  Only the intervals whose bound reaches the largest ``|W|``
    on the grid go to the merge, which adds the counts below each.

    Why D keeps its bits: each quotient and their difference round once,
    all at most 1 in size, so the float gap is within ``3 * 2**-53`` of
    ``|W| / (nm)``.  Two different ``|W|`` differ by at least 1, so their
    gaps by at least ``1/(nm)``, which is above twice that error while
    ``nm < 2**50``.  So the float maximum lies only at values where ``|W|``
    is largest, and the intervals kept hold every one of them: such a
    value's interval has a bound of at least its ``|W|``, which is at least
    the grid's largest.  Pairs with ``nm >= 2**50`` leave the grid empty
    too.

    Beside the two sorted samples, the test holds a byte per value while it
    picks the intervals; the merge's arrays then span only the values it
    sees.  At 100k normal values per sample that is about 1% of them, and
    the peak traced by ``tracemalloc`` is 1.3x the bytes of both samples
    (4.25x when the merge saw every value)."""
    x, y = _finite_sorted(x, "x"), _finite_sorted(y, "y")
    n, m = x.size, y.size
    below = None
    if n + m >= _KS_GRID_MIN and n * m < 2 ** 50:
        x, y, below = _near_max(x, y)
    nx = x.size
    data = np.concatenate([x, y])
    del x, y
    d = _max_gap(data, nx, n, m, below)
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

    With ``z`` sorted, D+ is the largest ``gap[i] = (i + 1)/n - Phi(z_i)``
    and D- is 1/n minus the smallest.  The check first bounds the gap by
    blocks of ``_CDF_BLOCK`` values: an approximate CDF, within
    ``_CDF_MARGIN`` of Phi, is taken at each block's first value and at the
    next block's (the last value, for the last block).  Phi is increasing,
    so those two bound the gap at every value of the block, to within the
    margin, and the gaps at the values taken are terms of D+ and D-
    themselves.  Only blocks whose bounds come within twice the margin of
    the largest or the smallest of those gaps can hold an extreme, and only
    their values get the approximate gap.  Of those, only the indices
    within twice the margin of either extreme (a few in a random sample)
    get the exact ``normal_cdf`` and the exact D+ and D- formulas.  So D and
    p are bitwise those of evaluating ``normal_cdf`` at every value.
    """
    z = _finite_sorted(sample, "sample")
    n = z.size
    near = 2.0 * _CDF_MARGIN
    ends = np.append(np.arange(0, n, _CDF_BLOCK), n - 1)
    f = _approx_normal_cdf(z[ends])
    at_ends = (ends + 1) / n - f
    upper = np.minimum(ends[:-1] + _CDF_BLOCK, n) / n - f[:-1]
    lower = (ends[:-1] + 1) / n - f[1:]
    keep = (upper >= at_ends.max() - near) | (lower <= at_ends.min() + near)
    idx = np.flatnonzero(np.repeat(keep, np.diff(ends[:-1], append=n)))
    gap = (idx + 1) / n - _approx_normal_cdf(z[idx])
    idx = idx[(gap >= gap.max() - near) | (gap <= gap.min() + near)]
    f = np.array(list(map(normal_cdf, z[idx].tolist())))
    grid = (idx + 1) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    p = _ks_p_value(d, math.sqrt(n))
    return TestReport(name, d, p, alpha, p > alpha)


def empirical_moments(samples, cols) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased mean vector and covariance matrix of columns ``cols``, in
    increasing order, of an F-order (n_trials, n_rounds) float matrix that
    its caller reads no more: the chosen columns are moved to its front and
    centred there, so no copy is made.  The covariance is computed as
    ``np.cov(samples[:, cols], rowvar=False)`` computes it, so its bits are
    the same.  A column holding a NaN or an infinity has a non-finite mean,
    which raises (as does a column whose sum overflows)."""
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2 or not a.flags.f_contiguous:
        raise ValueError(f"expected a 2-D F-order trials-by-rounds array, got ndim={a.ndim}")
    if a.shape[0] < 2:
        raise ValueError("need at least two trials for moment estimates")
    for j, c in enumerate(cols):   # increasing, so column c is not yet overwritten
        if c != j:
            a[:, j] = a[:, c]
    a = a[:, :len(cols)]
    mean = a.mean(axis=0)
    if not np.isfinite(mean).all():
        raise ValueError("sample matrix contains non-finite entries")
    a -= mean
    cov = np.dot(a.T, a)
    cov *= 1.0 / (a.shape[0] - 1)
    return mean, cov


def covariance_deviation(cov, target) -> float:
    """Maximum absolute entrywise deviation between two matrices."""
    cov = np.asarray(cov, dtype=float)
    target = np.asarray(target, dtype=float)
    if cov.shape != target.shape:
        raise ValueError(f"shape mismatch: {cov.shape} vs {target.shape}")
    return float(np.abs(cov - target).max(initial=0.0))


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
