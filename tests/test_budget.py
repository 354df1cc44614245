"""Budget filter: admission rule, compensated arithmetic, rational oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gdpsim.budget import (
    REL_SLACK,
    FilterState,
    check_budget,
    check_spend,
    filter_new,
    remaining_sq,
    try_spend,
)


def spend_all(state, spends):
    decisions = []
    for mu in spends:
        ok, state = try_spend(state, mu)
        decisions.append(ok)
    return decisions, state


def rational_decisions(mu0: Fraction, spends):
    """Exact-arithmetic oracle for the admission rule, with per-step margin."""
    budget = mu0 * mu0
    spent = Fraction(0)
    decisions, margins = [], []
    for mu in spends:
        margin = budget - spent - mu * mu
        ok = margin >= 0
        decisions.append(ok)
        margins.append(margin)
        if ok:
            spent += mu * mu
    return decisions, margins


def test_filter_state_is_an_immutable_record():
    state = FilterState(1.0, 0.25, 1e-17)
    assert FilterState._fields == ("budget_sq", "spent_sq", "compensation")
    assert tuple(state) == (state.budget_sq, state.spent_sq, state.compensation)
    assert tuple(FilterState(2.0)) == (2.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        state.spent_sq = 0.0
    assert try_spend(state, 0.5)[1].spent_sq == 0.5


def test_new_filter_examples():
    assert filter_new(1.0) == FilterState(budget_sq=1.0)
    assert filter_new(0.0) == FilterState(budget_sq=0.0)
    assert filter_new(2.0).budget_sq == 4.0


def test_new_filter_rejects_malformed():
    for bad in (-1.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError):
            filter_new(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
def test_booleans_are_neither_budgets_nor_spends(flag):
    # float(True) is 1.0, so a flag would otherwise pass as a number
    with pytest.raises(ValueError, match="boolean"):
        filter_new(flag)
    with pytest.raises(ValueError, match="boolean"):
        try_spend(filter_new(1.0), flag)


def test_numbers_as_text_are_still_read():
    # parse_transcripts hands spends and budgets over as text
    assert check_spend("0.5") == 0.5 and check_budget("2") == 2.0
    assert check_spend(np.float64(0.25)) == 0.25 and check_spend(1) == 1.0


def test_tight_sequence_accepted_then_refused():
    decisions, state = spend_all(filter_new(1.0), [0.6, 0.8, 0.1])
    assert decisions == [True, True, False]
    assert state.spent_sq == 1.0


def test_zero_spend_after_exhaustion_accepted():
    _, state = spend_all(filter_new(1.0), [0.6, 0.8])
    ok, same = try_spend(state, 0.0)
    assert ok and same is state


def test_positive_spend_after_exact_exhaustion_refused():
    _, state = spend_all(filter_new(1.0), [0.6, 0.8])
    for mu in (1e-3, 1e-7, 1e-12):
        ok, same = try_spend(state, mu)
        assert not ok and same is state


def test_zero_budget_refuses_positive_spends():
    state = filter_new(0.0)
    ok, _ = try_spend(state, 1e-300)
    assert not ok
    ok, _ = try_spend(state, 0.0)
    assert ok


def test_malformed_spend_raises_not_refuses():
    state = filter_new(1.0)
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError):
            try_spend(state, bad)


def test_remaining_examples():
    _, state = spend_all(filter_new(2.0), [1.2, 1.6])
    assert remaining_sq(state) == 0.0
    assert remaining_sq(filter_new(1.0)) == 1.0
    _, state = spend_all(filter_new(1.0), [0.6])
    assert math.isclose(remaining_sq(state), 0.64, rel_tol=1e-15)
    # the floor is max(0.0, budget_sq - spent_sq): +0.0 when spent, never -0.0
    for budget_sq, spent_sq in [(1.0, 1.0), (1.0, 1.0 + 2.0 ** -52), (0.0, 0.0), (0.0, -0.0)]:
        got = remaining_sq(FilterState(budget_sq, spent_sq))
        assert got.hex() == max(0.0, budget_sq - spent_sq).hex() == "0x0.0p+0"


def test_refusal_is_not_terminal():
    state = filter_new(1.0)
    ok, state = try_spend(state, 0.9)
    assert ok
    ok, state = try_spend(state, 0.9)
    assert not ok
    ok, state = try_spend(state, 0.4)
    assert ok


def test_monotone_spent():
    rnd = random.Random(5)
    state = filter_new(1.5)
    prev = 0.0
    for _ in range(200):
        _, state = try_spend(state, rnd.uniform(0, 0.5))
        assert state.spent_sq >= prev
        prev = state.spent_sq


def test_permutation_invariance_of_full_acceptance():
    # Dyadic spends make the compensated sums exact, so acceptance of the
    # whole multiset cannot depend on order.
    rnd = random.Random(11)
    for _ in range(100):
        n = rnd.randint(2, 10)
        spends = [rnd.randint(0, 12) / 32.0 for _ in range(n)]
        outcomes = set()
        for _ in range(6):
            rnd.shuffle(spends)
            decisions, _ = spend_all(filter_new(1.0), spends)
            outcomes.add(all(decisions))
        assert len(outcomes) == 1


def test_prefix_soundness_random_sequences():
    rnd = random.Random(23)
    bound = 1.0 * (1.0 + REL_SLACK)
    for _ in range(300):
        state = filter_new(1.0)
        accepted = []
        for _ in range(rnd.randint(1, 20)):
            mu = rnd.uniform(0, 0.7)
            ok, state = try_spend(state, mu)
            if ok:
                accepted.append(mu * mu)
            assert math.fsum(accepted) <= bound * (1.0 + 1e-15)


def test_agreement_with_rational_oracle():
    # Exact agreement whenever the rational margin is outside the band
    # 2**-30 * budget_sq; dyadic grid spends are exact as Fractions.
    rnd = random.Random(97)
    band = Fraction(1, 2 ** 30)
    for _ in range(2000):
        mu0 = Fraction(rnd.choice([1, 2, 3]), rnd.choice([1, 2]))
        n = rnd.randint(1, 12)
        ks = [rnd.randint(0, 96) for _ in range(n)]
        spends_f = [float(k) / 64.0 for k in ks]
        spends_q = [Fraction(k, 64) for k in ks]
        oracle, margins = rational_decisions(mu0, spends_q)
        mine, _ = spend_all(filter_new(float(mu0)), spends_f)
        budget = mu0 * mu0
        for got, want, margin in zip(mine, oracle, margins):
            if abs(margin) > band * budget:
                assert got == want


def test_states_are_values():
    state = filter_new(1.0)
    ok, new = try_spend(state, 0.5)
    assert ok
    assert state.spent_sq == 0.0 and new.spent_sq == 0.25
    with pytest.raises(Exception):
        state.spent_sq = 1.0  # frozen
