"""Policy suite: stated spend rules, determinism, refusal predictability."""

import math
import re

import numpy as np
import pytest

from gdpsim._numeric import FLOAT_OPS
from gdpsim.adversaries import (
    STOP_TOL,
    make_policy,
    policy_fixed,
    policy_greedy_halving,
    policy_names,
    policy_overspend_prober,
    policy_sign_adaptive,
)
from gdpsim.batch import run_trial_batch
from gdpsim.budget import remaining_sq
from gdpsim.curator import Session, run_interaction
from gdpsim.rng import generator


def seeded_session(kind, b, budget, seed):
    """A session drawing from the stream ``generator(seed)``."""
    return Session(kind, b, budget, generator(seed).standard_normal)


def decisions_of(transcript):
    return [r.accepted for r in transcript.rounds]


def test_fixed_policy_examples():
    session = seeded_session("direct", 0, 1.0, 1)
    tr = run_interaction(session, policy_fixed([0.6, 0.8]))
    assert decisions_of(tr) == [True, True]

    tr = run_interaction(seeded_session("direct", 0, 1.0, 1), policy_fixed([]))
    assert tr.rounds == []

    tr = run_interaction(seeded_session("direct", 0, 1.0, 1), policy_fixed([1.0, 0.1]))
    assert decisions_of(tr) == [True, False]


def test_fixed_policy_validates_spends():
    with pytest.raises(ValueError):
        policy_fixed([0.5, float("inf")])


def test_policies_refuse_boolean_spends():
    for make in (lambda: policy_fixed([True]),
                 lambda: make_policy("sign_adaptive", hi=True, lo=False)):
        with pytest.raises(ValueError, match=re.escape(
                "spend must be a finite real number >= 0, got True")):
            make()


def test_fixed_refuses_spends_that_are_not_a_list():
    # A number is not iterable, and text would be read one character at a time.
    for spends in (0.5, "0.6", None, {0.5}, np.array([0.5])):
        with pytest.raises(ValueError) as info:
            policy_fixed(spends)
        assert str(info.value) == f"spends must be a list of spends, got {spends!r}"
    assert policy_fixed((0.5, 0.25)).spends(FLOAT_OPS, 1, 1.0, 0.0, 0.5) == (0.25, False)


def test_sign_adaptive_spend_rules():
    # spends(o, round, remaining_sq, last accepted answer, previous spend)
    spends = policy_sign_adaptive(hi=0.8, lo=0.2).spends
    assert spends(FLOAT_OPS, 0, 1.0, math.nan, math.nan) == (0.4, False)
    assert spends(FLOAT_OPS, 1, 0.84, -0.5, 0.4) == (0.2, False)
    assert spends(FLOAT_OPS, 1, 0.84, 0.5, 0.4) == (0.8, False)
    # cap at sqrt of remaining budget
    assert spends(FLOAT_OPS, 1, 0.09, 0.5, 0.4) == (0.3, False)
    # stop rule
    assert spends(FLOAT_OPS, 1, STOP_TOL / 2, 0.5, 0.4)[1] is True
    # no accepted answer yet (round 0 refused a spend of 2.0) -> lo branch
    assert spends(FLOAT_OPS, 1, 1.0, math.nan, 2.0) == (min(0.2, 1.0), False)


def test_sign_adaptive_validates_bounds():
    with pytest.raises(ValueError):
        policy_sign_adaptive(hi=0.2, lo=0.5)


@pytest.mark.parametrize("engine", ["vector", "scalar"])
@pytest.mark.parametrize("name,params", [
    ("sign_adaptive", {"hi": 0.2, "lo": 0.5}),
    ("fixed", {"spends": [-0.5]}),
    ("fixed", {"spends": [float("nan")]}),
])
def test_engines_reject_malformed_policy_parameters(name, params, engine):
    with pytest.raises(ValueError):
        run_trial_batch("direct", 0, 1.0, name, params, 3, 0, engine=engine)


def test_sign_adaptive_never_refused():
    for seed in (1, 2, 3):
        for b in (0, 1):
            session = seeded_session("simulated", b, 1.0, seed)
            tr = run_interaction(session, policy_sign_adaptive(0.8, 0.2))
            assert all(r.accepted for r in tr.rounds)
            assert not tr.truncated


def test_greedy_halving_geometric_schedule():
    session = seeded_session("direct", 0, 1.0, 4)
    pol = policy_greedy_halving()
    tr = run_interaction(session, pol)
    spends = [r.spend for r in tr.rounds]
    assert math.isclose(spends[0], math.sqrt(0.5), rel_tol=1e-15)
    assert math.isclose(spends[1], math.sqrt(0.25), rel_tol=1e-12)
    assert math.isclose(spends[2], math.sqrt(0.125), rel_tol=1e-12)
    assert all(r.accepted for r in tr.rounds)
    # after k rounds the remaining squared budget is ~2**-k; stops at 20
    assert len(tr.rounds) == 20
    remaining = remaining_sq(session.filter_state)
    assert remaining < 1e-6
    assert math.isclose(remaining, 2.0 ** -20, rel_tol=1e-6)


def test_overspend_prober_alternation():
    session = seeded_session("direct", 1, 1.0, 8)
    tr = run_interaction(session, policy_overspend_prober())
    assert tr.rounds[0].spend == 0.9
    assert tr.rounds[1].spend == 0.9
    decisions = decisions_of(tr)
    # even rounds admitted, odd rounds refused, in strict alternation
    assert all(ok == (i % 2 == 0) for i, ok in enumerate(decisions))
    assert decisions[:3] == [True, False, True]


def test_overspend_prober_predicts_refusals_from_own_ledger():
    session = seeded_session("simulated", 1, 1.0, 12)
    tr = run_interaction(session, policy_overspend_prober())
    spent = 0.0
    for r in tr.rounds:
        predicted = spent + r.spend * r.spend <= 1.0 * (1 + 2 ** -40) and not (
            spent >= 1.0 and r.spend > 0.0
        )
        assert r.accepted == predicted
        if r.accepted:
            spent += r.spend * r.spend


def test_refusal_pattern_independent_of_session_kind():
    pats = []
    for kind in ("direct", "simulated"):
        session = seeded_session(kind, 1, 1.0, 99)
        tr = run_interaction(session, policy_overspend_prober())
        pats.append(tuple(r.index for r in tr.rounds if not r.accepted))
    assert pats[0] == pats[1]


def test_policies_deterministic_given_prefix():
    # the prefix: round 0 spent 0.4 and was answered 0.3, round 1 refused 0.8
    for name, params in [("fixed", {"spends": [0.1, 0.2, 0.3]}),
                         ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
                         ("greedy_halving", {}),
                         ("overspend_prober", {})]:
        spends = make_policy(name, **params).spends
        a = spends(FLOAT_OPS, 2, 0.5, 0.3, 0.8)
        b = spends(FLOAT_OPS, 2, 0.5, 0.3, 0.8)
        assert a == b


def test_registry_coverage_and_aliases():
    # at least one nonadaptive, one answer-adaptive, one boundary-exhausting,
    # and one refusal-probing policy
    assert set(policy_names()) == {
        "fixed", "sign_adaptive", "greedy_halving", "overspend_prober",
    }
    # One spelling per name: a hyphenated alias is an unknown policy.
    for name in ("sign-adaptive", "greedy-halving", "nonesuch"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown policy {name!r}; known: fixed, greedy_halving, "
                "overspend_prober, sign_adaptive")):
            make_policy(name)

