"""Vector engine against the scalar reference: bitwise equality is the
contract, not approximation."""

import numpy as np
import pytest

from gdpsim import make_policy, run_trial_batch
from gdpsim.batch import DrawTableau, make_vector_policy, policy_stream_id
from gdpsim.rng import derive_key

POLICIES = [
    ("fixed", {"spends": [0.6, 0.8, 0.1]}),
    ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
    ("greedy_halving", {}),
    ("overspend_prober", {}),
    ("fixed", {"spends": [0.05] * 120}),
]


def assert_identical(a, b):
    assert np.array_equal(a.spends, b.spends, equal_nan=True)
    assert np.array_equal(a.decisions, b.decisions)
    assert np.array_equal(a.answers, b.answers, equal_nan=True)
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.truncated, b.truncated)
    assert np.array_equal(a.draws, b.draws)
    if a.w0 is None:
        assert b.w0 is None
    else:
        assert np.array_equal(a.w0, b.w0)


@pytest.mark.parametrize("name,params", POLICIES)
@pytest.mark.parametrize("kind", ["direct", "simulated"])
@pytest.mark.parametrize("bit", [0, 1])
def test_vector_engine_bitwise_equals_scalar(name, params, kind, bit):
    vec = run_trial_batch(kind, bit, 1.0, name, params, 30, 2024, 64, "vector")
    sca = run_trial_batch(kind, bit, 1.0, name, params, 30, 2024, 64, "scalar")
    assert_identical(vec, sca)


def test_bitwise_equality_with_non_unit_budget():
    params = {"hi": 1.6, "lo": 0.4}
    for kind in ("direct", "simulated"):
        vec = run_trial_batch(kind, 1, 2.0, "sign_adaptive", params, 25, 7, 64, "vector")
        sca = run_trial_batch(kind, 1, 2.0, "sign_adaptive", params, 25, 7, 64, "scalar")
        assert_identical(vec, sca)


def test_bitwise_equality_when_first_spend_is_refused():
    # hi/2 = 0.4 overshoots budget 0.3, so round 0 refuses and the
    # no-accepted-answer branch drives round 1
    params = {"hi": 0.8, "lo": 0.2}
    for kind in ("direct", "simulated"):
        vec = run_trial_batch(kind, 1, 0.3, "sign_adaptive", params, 20, 13, 64, "vector")
        sca = run_trial_batch(kind, 1, 0.3, "sign_adaptive", params, 20, 13, 64, "scalar")
        assert_identical(vec, sca)
        assert np.all(vec.decisions[:, 0] == 0)


@pytest.mark.parametrize("name,params", POLICIES)
def test_bitwise_equality_at_zero_budget(name, params):
    for kind in ("direct", "simulated"):
        vec = run_trial_batch(kind, 1, 0.0, name, params, 10, 17, 64, "vector")
        sca = run_trial_batch(kind, 1, 0.0, name, params, 10, 17, 64, "scalar")
        assert_identical(vec, sca)


def test_truncation_matches_scalar():
    params = {"spends": [0.05] * 10}
    vec = run_trial_batch("direct", 0, 5.0, "fixed", params, 10, 3, 4, "vector")
    sca = run_trial_batch("direct", 0, 5.0, "fixed", params, 10, 3, 4, "scalar")
    assert_identical(vec, sca)
    assert np.all(vec.truncated)
    assert vec.answers.shape[1] == 4


def test_tableau_growth_is_prefix_stable():
    tab = DrawTableau(derive_key(1, "t"), 8, initial_width=4)
    rows = np.arange(8)
    first = tab.take(rows, np.full(8, 3)).copy()
    tab.ensure(40)
    again = tab.take(rows, np.full(8, 3))
    assert np.array_equal(first, again)
    assert tab.width >= 40


def test_draw_rows_differ_across_trials_and_labels():
    a = run_trial_batch("direct", 0, 1.0, "fixed", {"spends": [0.5]}, 4, 11)
    assert len(set(a.answers[:, 0].tolist())) == 4
    b = run_trial_batch("direct", 0, 1.0, "fixed", {"spends": [0.5]}, 4, 11,
                        stream_label="other")
    assert not np.array_equal(a.answers, b.answers)


def test_transcripts_round_trip_matrix_form():
    res = run_trial_batch("simulated", 1, 1.0, "overspend_prober", {}, 6, 5)
    for t, tr in enumerate(res.transcripts()):
        assert len(tr.rounds) == res.lengths[t]
        for r in tr.rounds:
            assert r.accepted == (res.decisions[t, r.index] == 1)
            if r.accepted:
                assert r.answer == res.answers[t, r.index]
            else:
                assert r.answer is None


def test_summaries_match_policy_summary():
    res = run_trial_batch("direct", 1, 1.0, "sign_adaptive",
                          {"hi": 0.8, "lo": 0.2}, 12, 6)
    pol = make_policy("sign_adaptive", hi=0.8, lo=0.2)
    sums = res.summaries()
    for t, tr in enumerate(res.transcripts()):
        assert np.isclose(sums[t], pol.summary(tr), rtol=0, atol=1e-12)


def test_refusal_rows():
    res = run_trial_batch("direct", 0, 1.0, "overspend_prober", {}, 5, 4)
    rows = res.refusal_rows()
    assert rows.shape == res.decisions.shape
    assert np.all(rows[:, 1::2][res.decisions[:, 1::2] == 0])
    assert not np.any(rows[:, 0::2])


def test_vector_policy_registry():
    assert make_vector_policy("greedy-halving", {}) is not None
    with pytest.raises(ValueError):
        make_vector_policy("nonesuch", {})


def test_policy_stream_id_canonical():
    assert policy_stream_id("fixed", {}) == "fixed"
    a = policy_stream_id("fixed", {"spends": [0.5], "x": 1})
    b = policy_stream_id("fixed", {"x": 1, "spends": [0.5]})
    assert a == b


def test_input_validation():
    with pytest.raises(ValueError):
        run_trial_batch("weird", 0, 1.0, "fixed", {"spends": []}, 1, 0)
    with pytest.raises(ValueError):
        run_trial_batch("direct", 3, 1.0, "fixed", {"spends": []}, 1, 0)
    with pytest.raises(ValueError):
        run_trial_batch("direct", 0, 1.0, "fixed", {"spends": []}, 0, 0)
