"""Vector engine against the scalar reference: bitwise equality is the
contract, not approximation."""

import hashlib

import numpy as np
import pytest

from gdpsim import batch
from gdpsim.batch import DrawTableau, make_vector_policy, policy_stream_id, run_trial_batch
from gdpsim.harness import _REPORT_SCHEMA
from gdpsim.rng import derive_key, generator

# SHA-256 of the little-endian float64 bytes of trials 0..7 x columns 0..3 of
# DrawTableau(derive_key(1, "t"), 8), trial-major.  A change to the draw
# streams must bump the report schema and add its digest here.
TABLEAU_DIGEST = {
    "gdpsim.report.v2": "fbfb8b14a78467b7f5fc8da7077fa6537c738a24d4fdad8e4907866ed18f7db6",
}

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
    for m in ("spends", "decisions", "answers"):
        assert getattr(a, m).flags.f_contiguous and getattr(b, m).flags.f_contiguous
    assert np.array_equal(a.summaries(), b.summaries())
    assert np.array_equal(a.refusal_rows(), b.refusal_rows())


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
    tab = DrawTableau(derive_key(1, "t"), 8)
    rows = np.arange(8)
    first = tab.take(rows, np.full(8, 3)).copy()
    tab.ensure(40)
    again = tab.take(rows, np.full(8, 3))
    assert np.array_equal(first, again)
    assert tab.width == 40


def test_tableau_column_is_its_own_stream():
    key = derive_key(1, "t")
    tab = DrawTableau(key, 8)
    tab.ensure(5)
    for j in range(5):
        col = tab.take(np.arange(8), np.full(8, j))
        assert np.array_equal(col, generator(key, "col", j).standard_normal(8))
        assert np.array_equal(tab.row(3, 5)[j], col[3])


def test_tableau_draws_only_the_columns_read():
    tab = DrawTableau(derive_key(1, "t"), 8)
    assert tab.width == 0
    tab.take(np.arange(3), np.array([0, 3, 1]))
    assert tab.width == 4
    tab.take(np.arange(2), np.array([2, 0]))
    assert tab.width == 4


def test_one_spend_simulated_arm_draws_two_columns(monkeypatch):
    made = []

    class Recording(DrawTableau):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(batch, "DrawTableau", Recording)
    for engine in ("vector", "scalar"):
        run_trial_batch("simulated", 1, 1.0, "fixed", {"spends": [0.5]}, 6, 3,
                        engine=engine)
        assert made.pop().width == 2


def test_tableau_stream_digest_is_pinned_by_schema():
    tab = DrawTableau(derive_key(1, "t"), 8)
    block = np.array([tab.row(t, 4) for t in range(8)], dtype="<f8")
    assert hashlib.sha256(block.tobytes()).hexdigest() == TABLEAU_DIGEST[_REPORT_SCHEMA]


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_trial_transcript_does_not_depend_on_n_trials(engine):
    args = ("simulated", 1, 1.0, "greedy_halving", {})
    small = run_trial_batch(*args, 5, 21, engine=engine)
    large = run_trial_batch(*args, 9, 21, engine=engine)
    r = small.answers.shape[1]
    assert np.array_equal(small.answers, large.answers[:5, :r], equal_nan=True)
    assert np.array_equal(small.decisions, large.decisions[:5, :r])
    assert np.all(large.decisions[:5, r:] == -1)
    assert np.array_equal(small.draws, large.draws[:5])
    assert np.array_equal(small.w0, large.w0[:5])


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
    sums = res.summaries()
    for t, tr in enumerate(res.transcripts()):
        assert np.isclose(sums[t], sum(tr.answers()), rtol=0, atol=1e-12)


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
