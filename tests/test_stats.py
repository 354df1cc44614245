"""Estimators and tests: closed-form examples checked exactly, then the
distributional sanity runs."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gdpsim import stats
from gdpsim.rng import generator
from gdpsim.stats import TestReport as Report  # not a pytest class
from gdpsim.stats import (
    covariance_deviation,
    empirical_moments,
    kolmogorov_sf,
    ks_two_sample,
    normal_cdf,
    normality_check,
    two_proportion_z,
)


def normal_quantile(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_moments_constant_column():
    mean, cov = empirical_moments([[3.5], [3.5], [3.5]])
    assert mean[0] == 3.5
    assert cov[0, 0] == 0.0


def test_moments_two_trials():
    mean, cov = empirical_moments([[0.0], [2.0]])
    assert mean[0] == 1.0
    assert cov[0, 0] == 2.0


def test_moments_reject_degenerate():
    with pytest.raises(ValueError):
        empirical_moments([[1.0]])
    with pytest.raises(ValueError):
        empirical_moments([1.0, 2.0])
    with pytest.raises(ValueError):
        empirical_moments([[1.0], [float("nan")]])


def answer_matrix(order):
    rng = generator(4, "moments")
    return np.asarray(rng.standard_normal((50000, 8)), order=order)


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("cols", [None, [0, 2, 4], [0, 2, 3], [5]])
def test_moments_bitwise_equal_np_cov(cols, order):
    a = answer_matrix(order)
    chosen = a if cols is None else a[:, cols]
    mean, cov = empirical_moments(a, cols)
    assert np.array_equal(mean, chosen.mean(axis=0))
    assert np.array_equal(cov, np.cov(chosen, rowvar=False).reshape(cov.shape))


@pytest.mark.parametrize("cols", [[0, 2, 4], [0, 2, 3], list(range(8))])
def test_moments_of_chosen_columns_hold_one_copy(cols):
    # Evenly or unevenly spaced, the chosen columns are one owned copy
    # centred in place.
    # Slicing evenly spaced columns and fancy-indexing the others, then
    # centring a second copy, peaked at 2.00x on unevenly spaced ones.
    a = answer_matrix("F")
    empirical_moments(a, cols)
    tracemalloc.start()
    try:
        empirical_moments(a, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * a.shape[0] * len(cols) * a.itemsize


def test_moments_leave_their_input_unchanged():
    a = answer_matrix("F")
    before = a.copy()
    empirical_moments(a, [0, 2, 3])
    empirical_moments(a)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("cols", [[0, 2, 4], [0, 2, 3], [5], list(range(8))])
def test_moments_in_place_give_the_copy_bits_and_make_no_copy(cols):
    # The chosen columns of an F-order slice of a wider matrix are moved to
    # its front and centred there; the peak stays below one column.
    a = answer_matrix("F")
    want = empirical_moments(a, cols)
    wide = np.empty((a.shape[0], 11), order="F")
    wide[:, :8] = a
    tracemalloc.start()
    try:
        got = empirical_moments(wide[:, :8], cols, overwrite=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert peak < a.shape[0] * a.itemsize
    with pytest.raises(ValueError, match="F-order"):
        empirical_moments(answer_matrix("C"), cols, overwrite=True)


def test_ks_identical_samples():
    x = np.array([0.3, -1.2, 0.7, 2.0])
    rep = ks_two_sample(x, x)
    assert rep.statistic == 0.0
    assert rep.passed
    rep = ks_two_sample([0.0, 1.0], [0.0, 1.0])
    assert rep.statistic == 0.0


def test_ks_rejects_shifted_normal():
    rng = generator(1, "ks-shift")
    x = rng.standard_normal(100000)
    y = rng.standard_normal(100000) + 1.0
    rep = ks_two_sample(x, y)
    assert rep.p_value < 1e-6
    assert not rep.passed


def test_ks_same_distribution_passes():
    rng = generator(2, "ks-null")
    x = rng.standard_normal(50000)
    y = rng.standard_normal(50000)
    assert ks_two_sample(x, y).passed


def test_ks_invariant_under_increasing_transform():
    rng = generator(3, "ks-mono")
    x = rng.standard_normal(2000)
    y = rng.standard_normal(3000) * 1.3
    d0 = ks_two_sample(x, y).statistic
    d1 = ks_two_sample(np.exp(x), np.exp(y)).statistic
    assert d0 == d1


def test_ks_empty_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


def searchsorted_ks_two_sample(x, y, alpha=0.001, name="ks_two_sample"):
    """Reference: both empirical CDFs by binary search at every data point."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    data = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, data, side="right") / x.size
    cdf_y = np.searchsorted(y, data, side="right") / y.size
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    ne = math.sqrt(x.size * y.size / (x.size + y.size))
    p = kolmogorov_sf(d * (ne + 0.12 + 0.11 / ne))
    return Report(name, d, p, alpha, p > alpha)


def test_ks_merge_bitwise_equals_searchsorted_reference():
    rng = generator(7, "ks-ref")
    x = rng.standard_normal(3000)
    pairs = [
        (np.rint(x), np.rint(rng.standard_normal(2000) * 1.5)),   # heavy ties
        (np.rint(x[:7]), np.rint(x[7:400])),
        (x, x.copy()),                                          # identical
        (x[:500], x[:500][::-1]),
        (x, x + 100.0),                                         # disjoint supports
        (x + 100.0, x[:10]),
        ([0.25], [0.25]),                                       # size 1
        ([0.25], [-1.0]),
        ([0.25], x),
        (x[:5], x[5:3000]),                                     # unequal sizes
        (rng.standard_normal(1), rng.standard_normal(1000)),
        ([-0.0, 0.0, -0.0, 1.0], [0.0, 0.0, -1.0]),              # signed zeros tie
        (np.full(4, -0.0), np.zeros(9)),
    ]
    pairs += [(rng.standard_normal(int(n)), rng.standard_normal(int(m)) + 0.1)
              for n, m in rng.integers(1, 60, size=(40, 2))]
    # From _KS_GRID_MIN values on, only the grid intervals that can hold the
    # maximum reach the merge.
    big, other = rng.standard_normal(8000), rng.standard_normal(20000)
    bounded = [
        (big, other[:6000] + 0.05),
        (np.rint(big), np.rint(other[:5000] * 1.5)),                 # heavy ties
        (big, big.copy()),                                             # identical
        (big, big + 100.0),                                            # disjoint supports
        (big[:3000] + 100.0, other[:4000]),
        (big[:5], other),                                              # 5 against 20k
        (other, big[:1]),
        (np.rint(big) * 0.0, np.rint(other[:6000])),                   # signed zeros tie
        (2.0 * np.arange(4000), 2.0 * np.arange(4000) + 1.0),          # interleaved
        (2.0 * np.arange(3000), 2.0 * np.arange(5000) + 1.0),
    ]
    assert all(len(a) + len(b) >= stats._KS_GRID_MIN for a, b in bounded)
    for a, b in pairs + bounded:
        rep = ks_two_sample(a, b)
        ref = searchsorted_ks_two_sample(a, b)
        assert rep == ref
        assert rep.statistic.hex() == ref.statistic.hex()
        assert rep.p_value.hex() == ref.p_value.hex()


def counted_ks_two_sample(x, y, monkeypatch):
    """ks_two_sample with the values that reach its merge counted."""
    seen = []
    max_gap = stats._max_gap

    def counting(data, *args):
        seen.append(data.size)
        return max_gap(data, *args)

    with monkeypatch.context() as m:
        m.setattr(stats, "_max_gap", counting)
        rep = ks_two_sample(x, y)
    return rep, sum(seen)


def test_ks_merges_only_near_the_maximum(monkeypatch):
    rng = generator(12, "ks-merge")
    x, y = rng.standard_normal(5000), rng.standard_normal(5000)
    rep, seen = counted_ks_two_sample(x, y, monkeypatch)
    assert rep.statistic.hex() == searchsorted_ks_two_sample(x, y).statistic.hex()
    assert seen < 5000
    # Below the size rule the merge sees every value.
    x, y = x[:2000], y[:2000]
    rep, seen = counted_ks_two_sample(x, y, monkeypatch)
    assert rep.statistic.hex() == searchsorted_ks_two_sample(x, y).statistic.hex()
    assert seen == 4000


def test_ks_peak_memory_is_below_two_samples():
    # The merge of every value peaked at 4.25x the bytes of both samples.
    rng = generator(13, "ks-mem")
    x, y = rng.standard_normal(100000), rng.standard_normal(100000)
    ks_two_sample(x, y)
    tracemalloc.start()
    try:
        ks_two_sample(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (x.nbytes + y.nbytes)


def test_ks_statistic_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = generator(14, "ks-scipy")
    for n, m in ((300, 500), (2000, 2000), (5000, 5000), (40000, 30000)):
        x, y = rng.standard_normal(n), rng.standard_normal(m) + 0.02
        for a, b in ((x, y), (np.rint(4 * x), np.rint(4 * y))):
            want = scipy_stats.ks_2samp(a, b, method="asymp").statistic
            assert abs(ks_two_sample(a, b).statistic - want) <= 1e-15


def test_normality_statistic_matches_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = generator(15, "norm-scipy")
    for n in (50, 10000, 100000):
        z = rng.standard_normal(n)
        for sample in (z, 1.02 * z + 0.01):
            want = scipy_stats.kstest(sample, "norm").statistic
            assert abs(normality_check(sample).statistic - want) <= 1e-15


def test_non_finite_samples_rejected():
    # before the check, a NaN sorted last and read as a large value: p = 0.42
    with pytest.raises(ValueError, match="non-finite"):
        ks_two_sample([math.nan, 1.0, 2.0], [0.5, 1.5])
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            ks_two_sample([0.5, 1.5], [1.0, bad])
        with pytest.raises(ValueError, match="non-finite"):
            normality_check([0.0, bad, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        normality_check([0.1, math.nan])
    with pytest.raises(ValueError):
        normality_check([])


def test_kolmogorov_sf_monotone_and_bounded():
    grid = np.linspace(0.01, 3.0, 400)
    vals = [kolmogorov_sf(v) for v in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    # continuity across the series switch point (true slope there is ~0.59,
    # so a 2e-9 step isolates any branch mismatch)
    assert abs(kolmogorov_sf(1.18 - 1e-9) - kolmogorov_sf(1.18 + 1e-9)) < 1e-8


def test_p_value_monotone_in_statistic():
    rng = generator(4, "ks-p")
    base = rng.standard_normal(10000)
    other = rng.standard_normal(10000)
    ps = []
    for shift in (0.0, 0.02, 0.05, 0.1, 0.3):
        ps.append(ks_two_sample(base, other + shift).p_value)
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_normality_accepts_generator_output():
    sample = generator(5, "norm-ok").standard_normal(100000)
    rep = normality_check(sample)
    assert rep.p_value > 0.001 and rep.passed


def test_normality_rejects_zeros():
    rep = normality_check(np.zeros(10000))
    assert rep.p_value < 1e-6 and not rep.passed


def test_normality_exact_quantile_construction():
    n = 10000
    sample = np.array([normal_quantile((i - 0.5) / n) for i in range(1, n + 1)])
    rep = normality_check(sample)
    assert rep.statistic <= 0.5 / n + 1e-9


def per_value_normality_check(sample, alpha=0.001, name="normality"):
    """Reference: the KS statistic with normal_cdf called once per value."""
    z = np.sort(np.asarray(sample, dtype=float))
    n = z.size
    f = np.array([normal_cdf(v) for v in z])
    grid = np.arange(1, n + 1) / n
    d = max(float(np.max(grid - f)), float(np.max(f - (grid - 1.0 / n))))
    p = kolmogorov_sf(d * (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)))
    return Report(name, d, p, alpha, p > alpha)


def test_report_dict_lists_every_field():
    for rep in (ks_two_sample([0.0, 1.0], [0.5, 2.0]), two_proportion_z(3, 10, 4, 10),
                normality_check([-1.0, 0.5, 2.0])):
        assert rep.to_dict() == dataclasses.asdict(rep)
        assert list(rep.to_dict()) == [f.name for f in dataclasses.fields(rep)]


def test_normality_bitwise_equals_per_value_cdf():
    rng = generator(6, "norm-ref")
    samples = [
        rng.standard_normal(100000),
        np.round(rng.standard_normal(20000), 1),  # ties
        np.concatenate([rng.standard_normal(5000), [-40.0, 40.0, -40.0]]),
    ]
    # One value: the statistic is max(F(x), 1 - F(x)), so each CDF bit shows.
    samples += [[v] for v in rng.standard_normal(200)]
    for sample in samples:
        rep = normality_check(sample)
        ref = per_value_normality_check(sample)
        assert rep == ref
        assert rep.statistic.hex() == ref.statistic.hex()
        assert rep.p_value.hex() == ref.p_value.hex()


def test_approximate_cdf_is_within_a_tenth_of_the_margin():
    z = np.linspace(-40.0, 40.0, 1_000_001)
    exact = np.array([normal_cdf(v) for v in z.tolist()])
    assert np.max(np.abs(stats._approx_normal_cdf(z) - exact)) <= stats._CDF_MARGIN / 10


def counted_normality_check(sample, monkeypatch):
    """normality_check with its math.erfc calls counted."""
    calls = []
    erfc = math.erfc

    def counting(x):
        calls.append(x)
        return erfc(x)

    with monkeypatch.context() as m:
        m.setattr(math, "erfc", counting)
        rep = normality_check(sample)
    return rep, len(calls)


def normal_sample(case):
    if case == "exact quantiles":   # every index within the margin of D = 0.5 / n
        n = 10000
        return np.array([normal_quantile((i - 0.5) / n) for i in range(1, n + 1)])
    if case == "max at index 0":     # D- is F(z_0)
        return np.linspace(3.0, 4.0, 1000)
    if case == "max at index n-1":   # D+ is 1 - F(z_{n-1})
        return np.linspace(-4.0, -3.0, 1000)
    return generator(8, "norm-calls").standard_normal(100000)


@pytest.mark.parametrize("case", ["exact quantiles", "max at index 0", "max at index n-1",
                                  "random"])
def test_normality_calls_erfc_only_near_the_maximum(case, monkeypatch):
    sample = normal_sample(case)
    rep, calls = counted_normality_check(sample, monkeypatch)
    ref = per_value_normality_check(sample)
    assert rep.statistic.hex() == ref.statistic.hex()
    assert rep.p_value.hex() == ref.p_value.hex()
    n = sample.size
    if case == "exact quantiles":
        assert calls == n
    else:
        assert 1 <= calls <= 20
    f = np.array([normal_cdf(v) for v in np.sort(sample)])
    grid = np.arange(1, n + 1) / n
    if case == "max at index 0":
        assert np.argmax(f - (grid - 1.0 / n)) == 0 and ref.statistic == f[0]
    if case == "max at index n-1":
        assert np.argmax(grid - f) == n - 1 and ref.statistic == 1.0 - f[-1]


def test_normality_approximates_only_blocks_near_the_maximum(monkeypatch):
    sample = normal_sample("random")
    sizes = []
    approx = stats._approx_normal_cdf

    def counting(z):
        sizes.append(z.size)
        return approx(z)

    monkeypatch.setattr(stats, "_approx_normal_cdf", counting)
    rep = normality_check(sample)
    assert rep.statistic.hex() == per_value_normality_check(sample).statistic.hex()
    assert sum(sizes) <= sample.size // 4


def test_normality_peak_memory_is_a_few_samples():
    sample = generator(9, "norm-mem").standard_normal(100000)
    normality_check(sample)
    tracemalloc.start()
    try:
        normality_check(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * sample.nbytes


def test_covariance_deviation_examples():
    eye = np.eye(3)
    assert covariance_deviation(eye, eye) == 0.0
    bump = eye.copy()
    bump[0, 1] = bump[1, 0] = 0.05
    assert covariance_deviation(eye, bump) == 0.05
    with pytest.raises(ValueError):
        covariance_deviation(np.eye(2), np.eye(3))


def test_two_proportion_examples():
    rep = two_proportion_z(500, 1000, 500, 1000)
    assert rep.p_value == 1.0 and rep.passed
    rep = two_proportion_z(900, 1000, 100, 1000)
    assert rep.p_value < 1e-10 and not rep.passed
    rep = two_proportion_z(0, 1000, 0, 1000)
    assert rep.p_value == 1.0 and rep.passed


def test_report_pass_rule_consistency():
    rng = generator(6, "rule")
    rep = ks_two_sample(rng.standard_normal(5000), rng.standard_normal(5000))
    assert rep.passed == (rep.p_value > rep.threshold)


def test_normal_cdf_reference_values():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(0.5) - 0.6914624612740131) < 1e-15
    assert abs(normal_cdf(-0.5) - 0.3085375387259869) < 1e-15
