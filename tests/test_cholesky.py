"""Incremental factor: frozen examples, canonical form, streaming agreement.

Expected values below were computed with the explicit-matrix oracle
(canonical_cholesky_oracle on I - m m^T) and frozen in.
"""

import math

import numpy as np
import pytest

from gdpsim._numeric import FLOAT_OPS
from gdpsim.cholesky import (
    DenseCholesky,
    StreamingCholesky,
    next_noise,
    stream_step,
)
from gdpsim.errors import BudgetOverflowError, NumericalIntegrityError
from gdpsim.harness import (
    canonical_cholesky_oracle,
    random_admissible_spends,
    verify_cholesky,
)
from gdpsim.rng import generator


def extend(state, m):
    """Grow the factor by one round with a zero seed."""
    return next_noise(state, m, 0.0)[1]


def test_streaming_state_is_an_immutable_record():
    state = StreamingCholesky(0.36, 1e-18, 0.5)
    assert StreamingCholesky._fields == ("q", "q_comp", "s")
    assert tuple(state) == (state.q, state.q_comp, state.s)
    assert tuple(StreamingCholesky()) == (0.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        state.q = 0.0
    assert isinstance(extend(state, 0.8), StreamingCholesky)


def test_dense_state_is_an_immutable_record():
    assert issubclass(DenseCholesky, tuple)
    assert DenseCholesky._fields == ("rows", "solved", "seeds", "q", "q_comp")
    assert DenseCholesky._field_defaults == {
        "rows": (), "solved": (), "seeds": (), "q": 0.0, "q_comp": 0.0}
    assert tuple(DenseCholesky()) == ((), (), (), 0.0, 0.0)
    state = extend(DenseCholesky(), 0.6)
    assert state[0] is state.rows and state[1:] == (
        state.solved, state.seeds, state.q, state.q_comp)
    with pytest.raises(AttributeError):
        state.q = 0.0
    with pytest.raises(AttributeError):
        state.rows = ()
    assert isinstance(extend(state, 0.8), DenseCholesky)


def grow(spends, mode="dense"):
    state = DenseCholesky() if mode == "dense" else StreamingCholesky()
    for m in spends:
        state = extend(state, m)
    return state


def test_extend_single_half_spend():
    state = grow([0.5])
    # oracle: canonical factor of the 1x1 matrix [0.75]
    assert abs(state.matrix()[0, 0] - 0.8660254037844386) < 1e-15


def test_extend_zero_spend_identity():
    state = grow([0.0])
    assert state.matrix()[0, 0] == 1.0


def test_extend_two_equal_spends():
    state = grow([0.6, 0.6])
    row = state.rows[1]
    assert abs(row[0] - (-0.45)) < 1e-15
    assert abs(row[1] - 0.6614378277661477) < 1e-15
    L = state.matrix()
    target = np.array([[0.64, -0.36], [-0.36, 0.64]])
    assert np.max(np.abs(L @ L.T - target)) < 1e-15


def test_extend_exact_exhaustion_zero_column():
    state = grow([0.6, 0.8])
    L = state.matrix()
    assert np.allclose(L, [[0.8, 0.0], [-0.6, 0.0]], atol=1e-12)
    assert L[1, 1] == 0.0
    assert np.all(L[:, 1] == 0.0)


def test_rows_after_exhaustion_are_identity_blocks():
    state = grow([0.5, 0.5, 0.5, 0.5])  # sums to exactly 1
    assert state.q == 1.0
    state = extend(state, 0.0)
    state = extend(state, 0.0)
    L = state.matrix()
    assert L[4, 4] == 1.0 and L[5, 5] == 1.0
    assert np.all(L[4, :4] == 0.0) and np.all(L[5, :5] == 0.0)
    # exactly one zero column: the exhaustion column
    assert int(np.sum(np.all(L == 0.0, axis=0))) == 1


def test_positive_spend_after_exhaustion_rejected():
    state = grow([1.0])
    with pytest.raises(BudgetOverflowError):
        extend(state, 0.5)


def test_precondition_overflow_rejected():
    with pytest.raises(BudgetOverflowError):
        extend(DenseCholesky(), 1.5)
    with pytest.raises(BudgetOverflowError):
        extend(grow([0.8]), 0.8)


def test_overflow_message_names_the_q_the_spend_would_reach():
    # Q = 0.7347 before the step; the spend 0.8/0.7 would take it to 2.04
    m = 0.8 / 0.7
    with pytest.raises(BudgetOverflowError) as info:
        stream_step(FLOAT_OPS, 0.7347, 0.0, 0.0, m, 0.5)
    assert f"||m||^2 = {0.7347 + m * m!r} " in str(info.value)
    assert "0.7347" not in str(info.value)


def test_non_finite_spend_rejected():
    with pytest.raises(ValueError):
        extend(DenseCholesky(), float("nan"))


def test_noise_full_spend_is_deterministic_zero():
    u, _ = next_noise(DenseCholesky(), 1.0, 2.345)
    assert u == 0.0
    u, _ = next_noise(StreamingCholesky(), 1.0, 2.345)
    assert u == 0.0


def test_noise_zero_spend_passes_seed_through():
    u, _ = next_noise(DenseCholesky(), 0.0, 1.7)
    assert u == 1.7
    u, _ = next_noise(StreamingCholesky(), 0.0, 1.7)
    assert u == 1.7


def test_noise_two_rounds_frozen_value():
    # rounds m=(0.6, 0.6), seeds v=(1.0, 1.0): row-times-vector oracle
    _, state = next_noise(DenseCholesky(), 0.6, 1.0)
    u, _ = next_noise(state, 0.6, 1.0)
    assert abs(u - 0.2114378277661477) < 1e-15


def test_prefix_stability_against_oracle():
    rng = generator(314, "prefix")
    for case in range(20):
        m = random_admissible_spends(rng, exhaust=case % 5 == 0, max_len=24)
        state = DenseCholesky()
        snapshots = []
        for mi in m:
            state = extend(state, float(mi))
            snapshots.append(state)
        final = state.matrix()
        for i in (1, max(1, m.size // 2), m.size):
            sigma_i = np.eye(i) - np.outer(m[:i], m[:i])
            oracle = canonical_cholesky_oracle(sigma_i)
            assert np.max(np.abs(snapshots[i - 1].matrix() - oracle)) < 1e-9
            # extending never rewrites the leading block
            assert np.array_equal(final[:i, :i], snapshots[i - 1].matrix())


@pytest.mark.parametrize("pivot", [1e-12, 5e-13, 0.0, -5e-9, -1e-8])
def test_oracle_pivot_in_the_zero_band_gives_an_all_zero_column(pivot):
    # Column 1's pivot is sigma[1, 1] exactly (L[1, 0] = 0); the 0.5 below it
    # would fill the column if the pivot were taken.
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, pivot, 0.5], [0.0, 0.5, 2.0]])
    L = canonical_cholesky_oracle(sigma)
    assert np.array_equal(L, np.diag([1.0, 0.0, math.sqrt(2.0)]))
    # The exhaustion (0.6, 0.8) and a zero spend after it: one zero column.
    m = np.array([0.6, 0.8, 0.0])
    L = canonical_cholesky_oracle(np.eye(3) - np.outer(m, m))
    assert np.all(L[:, 1] == 0.0) and L[0, 0] > 0.0 and L[2, 2] == 1.0


@pytest.mark.parametrize("pivot", [-1.0000001e-8, -1e-3])
def test_oracle_pivot_below_the_band_raises(pivot):
    with pytest.raises(NumericalIntegrityError, match="pivot 1 is negative"):
        canonical_cholesky_oracle(np.diag([1.0, pivot, 1.0]))


def textbook_oracle(sigma):
    """The oracle's column formula, each column formed as a new array."""
    a = np.asarray(sigma, dtype=float)
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d2 = a[j, j] - L[j, :j] @ L[j, :j]
        if d2 <= 1e-12:
            continue
        L[j, j] = math.sqrt(d2)
        if j + 1 < n:
            L[j + 1:, j] = (a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def test_oracle_matches_the_textbook_column_formula_bitwise():
    rng = generator(61, "oracle")
    zero_columns = 0
    for case in range(90):
        m = random_admissible_spends(rng, exhaust=case % 3 == 0, max_len=48)
        sigma = np.eye(m.size) - np.outer(m, m)
        L = canonical_cholesky_oracle(sigma)
        assert np.array_equal(L, textbook_oracle(sigma)), case
        zero_columns += int(np.all(L == 0.0, axis=0).sum())
    assert zero_columns == 30   # one per exhaustion case
    for n in (1, 2, 7, 33):
        g = rng.standard_normal((n, n))
        sigma = g @ g.T / n + 0.1 * np.eye(n)
        assert np.array_equal(canonical_cholesky_oracle(sigma), textbook_oracle(sigma)), n


def forward_solve(rows, b):
    """Solve L y = b by forward substitution over every stored row."""
    y = np.empty(len(b))
    for j, row in enumerate(rows):
        y[j] = (b[j] - row[:j] @ y[:j]) / row[j]
    return y


def full_resolve_next_noise(state, m, v):
    """Reference dense step that re-solves L y = m from scratch each round;
    ``state`` is (rows, spends, seeds, q, q_comp)."""
    rows, spends, seeds, q_prev, comp_prev = state
    d, q, q_comp, _ = stream_step(FLOAT_OPS, q_prev, comp_prev, 0.0, m, 1.0)
    k = len(rows)
    row = np.zeros(k + 1)
    if q_prev < 1.0:
        row[:k] = -m * forward_solve(rows, np.asarray(spends))
    row[k] = d
    u = float(row[:k] @ np.asarray(seeds, dtype=float) + row[k] * v)
    return u, (rows + (row,), spends + (m,), seeds + (v,), q, q_comp)


def test_carried_solved_column_matches_full_resolve_bitwise():
    # Compared in-process, so any BLAS rounding is the same on both sides.
    rng = generator(27, "carried-solve")
    steps = exhausted = tails = 0
    for case in range(300):
        m = random_admissible_spends(rng, exhaust=case % 5 == 0, max_len=48)
        seeds = rng.standard_normal(m.size)
        state, ref = DenseCholesky(), ((), (), (), 0.0, 0.0)
        for mi, vi in zip(m, seeds):
            u, state = next_noise(state, float(mi), float(vi))
            u_ref, ref = full_resolve_next_noise(ref, float(mi), float(vi))
            assert u == u_ref, (case, len(state.rows))
            assert np.array_equal(state.rows[-1], ref[0][-1]), (case, len(state.rows))
            steps += 1
        assert len(state.rows) == m.size and state.q == ref[3]
        if state.q < 1.0:
            assert np.array_equal(np.asarray(state.solved), forward_solve(state.rows, m))
        else:
            exhausted += 1
            tails += m[-1] == 0.0   # zero spends after exhaustion
    assert exhausted == 60 and tails > 10 and steps > 5000


def test_random_suite_factor_and_streaming():
    rep = verify_cholesky(seed=2718, cases=150, max_len=32)
    assert rep.passed, (rep.max_factor_deviation, rep.max_streaming_deviation,
                        rep.canonical_failures)
    assert rep.max_factor_deviation <= 1e-10
    assert rep.max_streaming_deviation <= 1e-9
    assert rep.exhaustion_cases == 15


def test_streaming_state_is_constant_size():
    state = StreamingCholesky()
    for mi in [0.3, 0.2, 0.4, 0.1, 0.05]:
        state = extend(state, mi)
    assert 0.0 <= state.q <= 1.0 + 2 ** -40


def test_noise_moments_smoke():
    # U vector for fixed m has mean 0 and covariance I - m m^T.
    m = [0.6, 0.5, 0.3]
    n = 20000
    rng = generator(99, "moments")
    seeds = rng.standard_normal((n, len(m)))
    us = np.empty((n, len(m)))
    for t in range(n):
        state = StreamingCholesky()
        for i, mi in enumerate(m):
            us[t, i], state = next_noise(state, mi, float(seeds[t, i]))
    sigma = np.eye(3) - np.outer(m, m)
    assert np.max(np.abs(us.mean(axis=0))) < 5.0 / math.sqrt(n)
    cov = np.cov(us, rowvar=False)
    assert np.max(np.abs(cov - sigma)) < 8.0 / math.sqrt(n)
