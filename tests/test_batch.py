"""Vector engine against the scalar reference: bitwise equality is the
contract, not approximation."""

import hashlib
import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from gdpsim import adversaries, batch, curator
from gdpsim._numeric import ARRAY_OPS, kahan_step
from gdpsim.adversaries import AdversaryPolicy
from gdpsim.batch import DrawTableau, make_vector_policy, policy_stream_id, run_trial_batch
from gdpsim.budget import REL_SLACK
from gdpsim.cli import main
from gdpsim.curator import KINDS, Round, Transcript
from gdpsim.harness import _REPORT_SCHEMA, _evaluate_pair, _shrink, _uniform_shape
from gdpsim.rng import _set_stream, derive_key, generator, streams

# SHA-256 of the little-endian float64 bytes of trials 0..7 x columns 0..3 of
# DrawTableau(derive_key(1, "t"), 8), trial-major.  A change to the draw
# streams must bump the report schema and add its digest here.
TABLEAU_DIGEST = {
    "gdpsim.report.v2": "fbfb8b14a78467b7f5fc8da7077fa6537c738a24d4fdad8e4907866ed18f7db6",
    "gdpsim.report.v3": "74e73b9c1e2688f569a891b58d2e126c17f605264e462c50bd65a8d23eb35f3e",
    "gdpsim.report.v4": "74e73b9c1e2688f569a891b58d2e126c17f605264e462c50bd65a8d23eb35f3e",
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
    # Answers are F-order on both engines.  Spends and decisions are F-order
    # on the scalar engine; the vector engine's may instead be a read-only
    # row every trial shares.
    assert a.answers.flags.f_contiguous and b.answers.flags.f_contiguous
    for m in ("spends", "decisions"):
        assert getattr(a, m).flags.f_contiguous or lane_shared(getattr(a, m))
        assert getattr(b, m).flags.f_contiguous
    assert a.summaries.tobytes() == b.summaries.tobytes()


def lane_shared(mat):
    """True for a read-only view whose trials all read one row."""
    return mat.strides[0] == 0 and not mat.flags.writeable


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
    # lanes stop at rounds 3 and 4, and the cap truncates the rest
    params = {"hi": 0.8, "lo": 0.2}
    for kind in ("direct", "simulated"):
        vec = run_trial_batch(kind, 1, 1.0, "sign_adaptive", params, 30, 3, 4, "vector")
        sca = run_trial_batch(kind, 1, 1.0, "sign_adaptive", params, 30, 3, 4, "scalar")
        assert_identical(vec, sca)
        assert vec.answers.shape[1] == 4
        assert np.all(vec.lengths[vec.truncated] == 4)
        assert np.any(vec.truncated) and np.any(vec.lengths == 3)
        assert np.any((vec.lengths == 4) & ~vec.truncated)


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


def test_tableau_rekeys_one_generator_for_every_column(monkeypatch):
    # one stream family, (key, "col", ...), and every stream keyed is a
    # column drawn: the key's own stream is never keyed
    families, keyed = [], []

    def recording_streams(*prefix):
        families.append(prefix)
        return streams(*prefix)

    def recording_set_stream(gen, d):
        gen = _set_stream(gen, d)
        keyed.append((id(gen), gen.bit_generator.state))
        return gen

    monkeypatch.setattr(batch, "streams", recording_streams)
    monkeypatch.setattr("gdpsim.rng._set_stream", recording_set_stream)
    key = derive_key(1, "t")
    tab = DrawTableau(key, 8)
    assert families == [(key, "col")] and keyed == []
    tab.ensure(40)
    assert len({gen for gen, _ in keyed}) == 1
    assert [state for _, state in keyed] == [column_state(key, j) for j in range(40)]


def column_state(key, j):
    """PCG64 state of the stream of ``(key, "col", j)``, from the digest of
    its label encoding written out in full."""
    data = (b"gdpsim.v1" + b"i" + key.to_bytes(16, "big", signed=True) + b"scol\x00"
            + b"i" + j.to_bytes(16, "big", signed=True))
    d = hashlib.sha256(data).digest()
    return {"bit_generator": "PCG64",
            "state": {"state": int.from_bytes(d[:16], "big"),
                      "inc": int.from_bytes(d[16:], "big") | 1},
            "has_uint32": 0, "uinteger": 0}


@pytest.mark.parametrize("key", [0, -2**127, 2**127 - 1, derive_key(1, "t")])
def test_prefix_hashed_rekey_gives_the_label_digest_state(key):
    column = streams(key, "col")
    gen = column(7)
    # out of order and repeated, each after a partial draw that leaves a
    # buffered 32-bit half: each call starts from the prefix's hash
    for j in (0, 2**40, 1, 0):
        gen.standard_normal(3)
        gen.integers(0, 2**32, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert column(j) is gen
        fresh = generator(key, "col", j)
        assert gen.bit_generator.state == fresh.bit_generator.state == column_state(key, j)
        assert gen.standard_normal(4).tobytes() == fresh.standard_normal(4).tobytes()


def test_tableau_draws_only_the_columns_read():
    tab = DrawTableau(derive_key(1, "t"), 8)
    assert tab.width == 0
    tab.take(np.arange(3), np.array([0, 3, 1]))
    assert tab.width == 4
    tab.take(np.arange(2), np.array([2, 0]))
    assert tab.width == 4


def record_tableaus(monkeypatch):
    """The list each DrawTableau the engines build from now on joins."""
    made = []

    class Recording(DrawTableau):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(batch, "DrawTableau", Recording)
    return made


def test_one_spend_simulated_arm_draws_two_columns(monkeypatch):
    made = record_tableaus(monkeypatch)
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
    transcripts = res.transcripts()
    assert iter(transcripts) is transcripts   # built one at a time
    for t, tr in enumerate(transcripts):
        assert len(tr.rounds) == res.lengths[t]
        for r in tr.rounds:
            assert r.accepted == (res.decisions[t, r.index] == 1)
            if r.accepted:
                assert r.answer == res.answers[t, r.index]
            else:
                assert r.answer is None


def test_refusal_rows():
    res = run_trial_batch("direct", 0, 1.0, "overspend_prober", {}, 5, 4)
    # overspend_prober's odd rounds repeat a spend and are refused while
    # budget remains; its even rounds are always admitted.
    rows = res.decisions == 0
    assert np.all(rows[:, 1::2] | (res.decisions[:, 1::2] == -1))
    assert not np.any(rows[:, 0::2])


def test_vector_policy_registry():
    assert make_vector_policy("greedy_halving", {}).name == "greedy_halving"
    for name in ("greedy-halving", "nonesuch"):
        with pytest.raises(ValueError, match=f"unknown policy {name!r}"):
            make_vector_policy(name, {})


def test_policy_stream_id_canonical():
    assert policy_stream_id("fixed", {}) == "fixed"
    a = policy_stream_id("fixed", {"spends": [0.5], "x": 1})
    b = policy_stream_id("fixed", {"x": 1, "spends": [0.5]})
    assert a == b
    # numbers as the floats the makers read: 1 and 1.0 are one label
    assert policy_stream_id("fixed", {"x": 1.0, "spends": (0.5,)}) == a
    assert policy_stream_id("sign_adaptive", {"hi": 1, "lo": 0}) == \
        'sign_adaptive:{"hi":1.0,"lo":0.0}'


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_integer_and_float_parameters_draw_bitwise_alike(engine):
    for name, ints, floats in [("sign_adaptive", {"hi": 1, "lo": 0}, {"hi": 1.0, "lo": 0.0}),
                               ("fixed", {"spends": [0, 1, 0]}, {"spends": [0.0, 1.0, 0.0]})]:
        for kind in ("direct", "simulated"):
            a, b = (run_trial_batch(kind, 1, 1.0, name, params, 40, 3, engine=engine)
                    for params in (ints, floats))
            assert a.answers.tobytes() == b.answers.tobytes()
            assert a.summaries.tobytes() == b.summaries.tobytes()


def test_input_validation():
    with pytest.raises(ValueError):
        run_trial_batch("weird", 0, 1.0, "fixed", {"spends": []}, 1, 0)
    with pytest.raises(ValueError):
        run_trial_batch("direct", 3, 1.0, "fixed", {"spends": []}, 1, 0)
    with pytest.raises(ValueError):
        run_trial_batch("direct", 0, 1.0, "fixed", {"spends": []}, 0, 0)


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_a_boolean_budget_is_refused(engine):
    with pytest.raises(ValueError, match="boolean"):
        run_trial_batch("direct", 0, True, "fixed", {"spends": [0.5]}, 2, 0, engine=engine)


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_arm_arguments_are_checked_before_use(monkeypatch, engine):
    args = dict(kind="direct", bit=1, budget=1.0, policy_name="fixed",
                policy_params={"spends": [0.5, 0.25]}, n_trials=4, master_seed=3,
                max_rounds=5, engine=engine)

    def keyed(*_):
        raise AssertionError("the arm was keyed before its arguments were checked")

    with monkeypatch.context() as m:
        m.setattr(batch, "derive_key", keyed)
        for key, bad, message in [("bit", True, "secret bit"), ("bit", 1.0, "secret bit"),
                                  ("n_trials", 2.5, "n_trials"), ("n_trials", True, "n_trials"),
                                  ("max_rounds", -1, "max_rounds"),
                                  ("max_rounds", 2.0, "max_rounds"),
                                  ("master_seed", True, "master_seed"),
                                  ("master_seed", 2.0, "master_seed"),
                                  ("master_seed", 2**127, "master_seed"),
                                  ("master_seed", -2**127 - 1, "master_seed"),
                                  ("engine", "threads", "unknown engine")]:
            with pytest.raises(ValueError, match=message):
                run_trial_batch(**{**args, key: bad})
    # NumPy integers are integers: the arm is the one of the same Python ints
    numpy_ints = {key: np.int64(args[key])
                  for key in ("bit", "n_trials", "max_rounds", "master_seed")}
    got, want = run_trial_batch(**{**args, **numpy_ints}), run_trial_batch(**args)
    assert type(got.bit) is int and type(got.n_trials) is int
    for field in ("spends", "decisions", "answers", "summaries", "lengths", "draws"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_each_arm_makes_its_policy_once_on_both_engines(monkeypatch, engine):
    # both engines make the policy through make_vector_policy, so a wrapper
    # of that one name (as perfbench's tracer installs) sees every spends call
    made, calls = [], []
    orig = batch.make_vector_policy

    def recording(name, params):
        made.append((name, params))
        vec = orig(name, params)
        spends = vec.spends

        def counted(*args):
            calls.append(args[1])
            return spends(*args)

        vec.spends = counted
        return vec

    monkeypatch.setattr(batch, "make_vector_policy", recording)
    res = run_trial_batch("direct", 1, 1.0, "fixed", {"spends": [0.6, 0.8]}, 3, 5,
                          engine=engine)
    assert made == [("fixed", {"spends": [0.6, 0.8]})]
    assert len(calls) == (3 if engine == "vector" else 3 * res.n_trials)


@pytest.mark.parametrize("name,params", POLICIES)
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_scalar_engine_crosses_each_traced_seam_once_per_use(monkeypatch, name, params, kind):
    # perfbench's tracer reports these calls as budget.calls, cholesky.calls
    # and curator.sessions: one try_spend per decision, one next_noise per
    # admitted simulated round and one run_interaction per trial
    calls = dict.fromkeys(("try_spend", "next_noise", "run_interaction"), 0)

    def count(owner, attr):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(curator, "try_spend")
    count(curator, "next_noise")
    count(batch, "run_interaction")
    res = run_trial_batch(kind, 1, 1.0, name, params, 6, 11, engine="scalar")
    admitted = int((res.decisions == 1).sum())
    assert admitted > 0
    assert calls == {"try_spend": int((res.decisions >= 0).sum()),
                     "next_noise": admitted if kind == "simulated" else 0,
                     "run_interaction": res.n_trials}


def test_lane_shared_results_are_read_only_rows_of_trial_stride_0():
    res = run_trial_batch("simulated", 1, 1.0, "fixed", {"spends": [0.125] * 64}, 7, 4)
    for mat in (res.spends, res.decisions):
        assert lane_shared(mat) and mat.shape == (7, 64)
        expect = np.broadcast_to(mat[:1], mat.shape)
        assert mat.dtype == expect.dtype
        assert np.array_equal(mat, expect, equal_nan=True)
        with pytest.raises(ValueError):
            mat[3, 0] = 0
    for dtype in (float, np.int8):
        row = np.arange(16, dtype=dtype).reshape(1, 16, order="F")
        for r in (0, 1, 9, 16):
            view = batch._trials(row, 5, r)
            expect = np.broadcast_to(row[:, :r], (5, r))
            assert lane_shared(view) and view.dtype == expect.dtype
            assert view.shape == expect.shape and np.array_equal(view, expect)


def test_ring_tableau_reads_each_column_stream_across_releases_and_wraps():
    # Registered policies keep every live lane on one cursor; here lanes read
    # at their own rates, so the held window widens (the ring grows) and
    # narrows (columns are released) while the ring wraps several times.
    # Each step releases the columns below every live cursor before it
    # reads, as the vector engine does each round it draws.
    key, n = derive_key(5, "ring"), 10
    columns = {}

    def expected(rows, cols):
        for j in set(cols.tolist()) - columns.keys():
            columns[j] = generator(key, "col", j).standard_normal(n)
        return np.array([columns[j][t] for t, j in zip(rows.tolist(), cols.tolist())])

    rng = np.random.default_rng(11)
    tab = DrawTableau(key, n)
    rate = rng.choice([0.15, 0.5, 1.0], n)
    cursor = rng.integers(0, 6, n)
    live = np.ones(n, dtype=bool)
    capacities = set()
    for step in range(600):
        # The lag bound caps the window; raising it midway grows the ring
        # again after it has released and wrapped.
        lagging = cursor < cursor[live].max() - (6 if step < 300 else 24)
        reading = np.flatnonzero(live & ((rng.random(n) < rate) | lagging))
        if reading.size:
            tab.release(int(cursor[live].min()))
            got = tab.take(reading, cursor[reading])
            assert np.array_equal(got, expected(reading, cursor[reading]))
            cursor[reading] += 1
        if step == 300:
            live[rng.choice(n, 3, replace=False)] = False
        capacities.add(len(tab._data))
    assert len(capacities) >= 3                 # the ring grew, twice
    assert tab.width > 4 * max(capacities)     # and wrapped several times

    floor = int(cursor[live].min())
    tab.release(floor)
    t = int(np.flatnonzero(live)[0])
    assert np.array_equal(tab.take(np.array([t]), np.array([floor])),
                          expected(np.array([t]), np.array([floor])))
    with pytest.raises(IndexError):
        tab.take(np.array([t]), np.array([floor - 1]))
    with pytest.raises(IndexError):
        tab.row(t, 1)


# The vector engine holds each per-lane value as a Python float, bool or int
# while every live lane agrees on it, and spreads it to a lane array once a
# kernel result differs by lane.  Each case below crosses one of those shape
# transitions.
SHAPE_CASES = {
    # every odd round is refused for all lanes at once
    "refused_together": ("overspend_prober", {}, 1.0, 30, 64),
    # zero spends are admitted but leave the ledger where it is
    "zero_spends": ("fixed", {"spends": [0.0, 0.3, 0.0]}, 1.0, 30, 64),
    "zero_spends_zero_budget": ("fixed", {"spends": [0.0, 0.3, 0.0]}, 0.0, 30, 64),
    "zero_budget": ("greedy_halving", {}, 0.0, 30, 64),
    "lockstep_cut_by_max_rounds": ("fixed", {"spends": [0.125] * 64}, 1.0, 30, 5),
    "one_trial": ("sign_adaptive", {"hi": 0.8, "lo": 0.2}, 1.0, 1, 64),
    "two_trials": ("overspend_prober", {}, 0.7, 2, 64),
    # lanes stop at different rounds while they still share a cursor
    "stops_on_a_shared_cursor": ("sign_adaptive", {"hi": 0.8, "lo": 0.2}, 1.0, 40, 64),
    # the cap falls right after round 0, or right after a refused round
    "adaptive_cut_after_one_round": ("sign_adaptive", {"hi": 0.8, "lo": 0.2}, 1.0, 30, 1),
    "prober_cut_after_one_round": ("overspend_prober", {}, 1.0, 30, 1),
    "prober_cut_after_a_refused_round": ("overspend_prober", {}, 1.0, 30, 2),
}


@pytest.mark.parametrize("case", list(SHAPE_CASES))
@pytest.mark.parametrize("kind", ["direct", "simulated"])
@pytest.mark.parametrize("bit", [0, 1])
def test_bitwise_equality_across_shared_state_transitions(case, kind, bit):
    name, params, budget, n_trials, max_rounds = SHAPE_CASES[case]
    args = (kind, bit, budget, name, params, n_trials, 31, max_rounds)
    assert_identical(run_trial_batch(*args, engine="vector"),
                     run_trial_batch(*args, engine="scalar"))


def reference_summaries(res):
    """Each trial's accepted answers added one round column at a time,
    starting from +0.0."""
    want = np.zeros(res.n_trials)
    for r in range(res.answers.shape[1]):
        want += np.where(res.decisions[:, r] == 1, res.answers[:, r], 0.0)
    return want


@pytest.mark.parametrize("arm", [*((name, params, 1.0, 30, 64) for name, params in POLICIES),
                                 *SHAPE_CASES.values()])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_summaries_are_the_round_order_sum_of_accepted_answers(arm, kind, engine):
    name, params, budget, n_trials, max_rounds = arm
    for bit in (0, 1):
        res = run_trial_batch(kind, bit, budget, name, params, n_trials, 31, max_rounds, engine)
        assert res.summaries.dtype == np.float64 and res.summaries.shape == (n_trials,)
        assert res.summaries.tobytes() == reference_summaries(res).tobytes()


def test_scalar_summaries_add_in_round_order_without_compensation(monkeypatch):
    # 1e16 + 1.0 rounds back to 1e16, so the round-order sum of the accepted
    # answers is 0.0; a compensated sum (math.fsum, or sum() from Python
    # 3.12 on) gives 1.0.  The refused round adds nothing.
    accepted = [1e16, 1.0, -1e16]
    assert math.fsum(accepted) == 1.0

    def planted(session, policy, *, max_rounds):
        rounds = [Round(0, 0.1, True, accepted[0]), Round(1, 2.0, False, None),
                  Round(2, 0.1, True, accepted[1]), Round(3, 0.1, True, accepted[2])]
        return Transcript(session.mu0, rounds)

    monkeypatch.setattr(batch, "run_interaction", planted)
    res = run_trial_batch("direct", 1, 1.0, "fixed", {"spends": [0.1] * 4}, 3, 5,
                          engine="scalar")
    assert res.summaries.tobytes() == np.zeros(3).tobytes()
    assert res.summaries.tobytes() == reference_summaries(res).tobytes()


def policy_uncapped():
    """Spend 2.0 after a positive answer and 0.5 otherwise, uncapped, for six
    rounds.  At budget 1 its round 1 is refused on some lanes and admitted on
    others while every lane still holds the same ledger."""

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        return o.where(last_accepted > 0.0, 2.0, 0.5), i >= 6

    return AdversaryPolicy("uncapped", kernel)


@pytest.mark.parametrize("kind", ["direct", "simulated"])
@pytest.mark.parametrize("n_trials", [1, 2, 30])
def test_bitwise_equality_when_a_shared_ledger_is_partly_refused(monkeypatch, kind, n_trials):
    monkeypatch.setitem(adversaries._REGISTRY, "uncapped", policy_uncapped)
    # at max_rounds 2 the cap falls right after the partly refused round
    for max_rounds in (2, 64):
        args = (kind, 1, 1.0, "uncapped", {}, n_trials, 8, max_rounds)
        vec = run_trial_batch(*args, engine="vector")
        assert_identical(vec, run_trial_batch(*args, engine="scalar"))
        if n_trials == 30:
            assert np.all(vec.decisions[:, 0] == 1)
            assert np.any(vec.decisions[:, 1] == 0) and np.any(vec.decisions[:, 1] == 1)


def policy_leapfrog():
    """Spend 0.5, or 2.0 (refused at budget 1) at round 1 after a positive
    answer; round 2 swaps the two spends lane by lane, and round 3 stops.
    So at round 2 each lane refused holds a later cursor than every lane
    admitted."""

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        if i == 2:
            return 2.5 - prev_spend, False
        return o.where((i == 1) & (last_accepted > 0.0), 2.0, 0.5), i >= 3

    return AdversaryPolicy("leapfrog", kernel)


@pytest.mark.parametrize("case", [*SHAPE_CASES, "uncapped", "leapfrog"])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_tableau_draws_only_columns_some_trial_reads(monkeypatch, case, kind):
    # a refused lane must not read its cursor column, or the vector engine
    # would draw a column no trial consumes
    made = record_tableaus(monkeypatch)
    monkeypatch.setitem(adversaries._REGISTRY, "uncapped", policy_uncapped)
    monkeypatch.setitem(adversaries._REGISTRY, "leapfrog", policy_leapfrog)
    name, params, budget, n_trials, max_rounds = SHAPE_CASES.get(
        case, (case, {}, 1.0, 30, 64))
    args = (kind, 1, budget, name, params, n_trials, 8, max_rounds)
    res = run_trial_batch(*args)
    assert made.pop().width == res.draws.max()
    if case == "leapfrog":
        assert_identical(res, run_trial_batch(*args, engine="scalar"))
        refused = res.decisions[:, 2] == 0
        assert np.any(refused) and np.any(~refused)


def policy_malformed(value):
    """Spend 0.1 each round for four rounds, but ``value`` at round 2."""

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        return value if i == 2 else 0.1, i >= 4

    return AdversaryPolicy("malformed", kernel)


@pytest.mark.parametrize("value", [np.nan, -0.5])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_both_engines_raise_the_same_error_on_a_malformed_spend(monkeypatch, value, kind):
    monkeypatch.setitem(adversaries._REGISTRY, "malformed", lambda: policy_malformed(value))
    errors = []
    for engine in ("vector", "scalar"):
        with pytest.raises(ValueError) as info:
            run_trial_batch(kind, 1, 1.0, "malformed", {}, 5, 9, 64, engine)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (ValueError, f"spend must be a finite nonnegative real, "
                                                  f"got {float(value)!r}")


def policy_one_bad_lane(value):
    """Spend 0.1 a round for four rounds, but ``value`` at round 1 on the
    lanes whose first answer was positive: a lane array malformed on some
    lanes only."""

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        if i == 1:
            return o.where(last_accepted > 0.0, value, 0.1), False
        return 0.1, i >= 4

    return AdversaryPolicy("one_bad_lane", kernel)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_lane_spend_check_raises_check_spends_error(monkeypatch, value, kind):
    monkeypatch.setitem(adversaries._REGISTRY, "one_bad_lane", lambda: policy_one_bad_lane(value))
    for engine in ("vector", "scalar"):
        with pytest.raises(ValueError) as info:
            run_trial_batch(kind, 1, 1.0, "one_bad_lane", {}, 16, 9, 64, engine)
        assert str(info.value) == f"spend must be a finite nonnegative real, got {float(value)!r}"


def policy_negated():
    """Spend 0.1 a round for six rounds, but minus the last answer after one
    above 1.0: malformed on some lanes only, at rounds that differ by lane."""

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        return o.where(last_accepted > 1.0, -last_accepted, 0.1), i >= 6

    return AdversaryPolicy("negated", kernel)


def test_both_engines_fail_alike_on_a_lane_dependent_malformed_spend(monkeypatch, tmp_path):
    # the engines may name different malformed values, since they meet them
    # in a different order, but both raise ValueError, which the command
    # line reports with exit code 2
    monkeypatch.setitem(adversaries._REGISTRY, "negated", policy_negated)
    for kind in ("direct", "simulated"):
        for engine in ("vector", "scalar"):
            with pytest.raises(ValueError):
                run_trial_batch(kind, 1, 1.0, "negated", {}, 20, 9, 64, engine)
    config = tmp_path / "negated.cfg"
    config.write_text(json.dumps({"budget": 1.0, "n_trials": 20, "bits": [1],
                                  "min_test_samples": 10, "policies": [{"name": "negated"}]}))
    for engine in ("vector", "scalar"):
        assert main(["run", "--config", str(config), "--engine", engine]) == 2


def spends_arg_types(monkeypatch, *args):
    """The types of the remaining squared budget and of the previous spend
    that each ``spends`` call of the vector engine sees, wrapped the way the
    benchmark's tracer wraps it."""
    seen = []
    orig = batch.make_vector_policy

    def recording(name, params):
        vec = orig(name, params)
        spends = vec.spends

        def wrapped(o, i, remaining_sq, last_accepted, prev_spend):
            seen.append((type(remaining_sq), type(prev_spend)))
            return spends(o, i, remaining_sq, last_accepted, prev_spend)

        vec.spends = wrapped
        return vec

    monkeypatch.setattr(batch, "make_vector_policy", recording)
    run_trial_batch(*args, engine="vector")
    return seen


@pytest.mark.parametrize("name,params", [
    ("fixed", {"spends": [0.125] * 64}),
    ("greedy_halving", {}),
    ("overspend_prober", {}),
])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_lockstep_policies_see_a_shared_ledger_every_round(monkeypatch, name, params, kind):
    # a Python float and int: a NumPy scalar or 0-d array would cost NumPy
    # calls
    cursors = record_cursor_types(monkeypatch)
    seen = spends_arg_types(monkeypatch, kind, 1, 1.0, name, params, 50, 3, 256)
    assert len(seen) > 10 and set(seen) == {(float, float)}
    assert len(cursors) > 5 and set(cursors) == {int}


@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_sign_adaptive_ledger_is_shared_until_its_spends_differ(monkeypatch, kind):
    # round 0 spends hi/2 on every lane; round 1's spend follows each lane's
    # answer, so from round 2 on the ledger is a lane array
    seen = spends_arg_types(monkeypatch, kind, 1, 1.0, "sign_adaptive",
                            {"hi": 0.8, "lo": 0.2}, 50, 3, 256)
    remaining = [t for t, _ in seen]
    assert len(seen) > 3 and remaining == [float, float] + [np.ndarray] * (len(seen) - 2)


def test_tableau_take_on_a_shared_cursor_matches_the_gather():
    # an integer cursor reads one ring row, across releases and wraps; for
    # every trial the read is a read-only view of the ring, for some a copy
    key, n = derive_key(2, "t"), 8
    shared, gathered = DrawTableau(key, n), DrawTableau(key, n)
    for j in range(40):
        shared.release(j)
        gathered.release(j)
        for rows in (np.arange(n), np.array([1, 4, 6])):
            got = shared.take(rows, j)
            want = gathered.take(rows, np.full(rows.size, j))
            assert np.array_equal(got, want)
            if rows.size == n:
                assert not got.flags.writeable and np.shares_memory(got, shared._data)
            else:
                got[:] = np.nan
    assert shared._base > 0 and shared.width > 2 * len(shared._data)
    assert np.array_equal(shared.take(np.arange(n), 39),
                          generator(key, "col", 39).standard_normal(n))


def record_cursor_types(monkeypatch):
    """The type of the cursor in each read of every DrawTableau the engines
    build from now on."""
    seen = []

    class Recording(DrawTableau):
        def take(self, rows, cols):
            seen.append(type(cols))
            return super().take(rows, cols)

    monkeypatch.setattr(batch, "DrawTableau", Recording)
    return seen


@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_a_fully_admitted_round_reads_a_shared_cursor(monkeypatch, kind):
    # sign_adaptive's spends differ by lane from round 1 on, but each round
    # is admitted on every lane, so the lanes never leave their one cursor
    seen = record_cursor_types(monkeypatch)
    res = run_trial_batch(kind, 1, 1.0, "sign_adaptive", {"hi": 0.8, "lo": 0.2}, 50, 3, 64)
    assert not np.any(res.decisions == 0)
    assert len(seen) == res.draws.max() > 3 and set(seen) == {int}



@pytest.mark.parametrize("case", list(SHAPE_CASES))
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_no_numpy_scalar_or_0d_array_reaches_the_array_ops(monkeypatch, case, kind):
    # a shared value is a Python float, bool or int, or it has become a lane
    # array; neither an op's arguments nor its value is anything between
    seen = []

    def flat(values):
        for x in values:
            if isinstance(x, tuple):
                yield from flat(x)
            else:
                yield x

    def checked(name, op):
        def wrapped(*args):
            out = op(*args)
            seen.extend((name, type(x)) for x in flat((*args, out))
                        if isinstance(x, np.generic)
                        or (isinstance(x, np.ndarray) and x.ndim == 0))
            return out
        return wrapped

    for name, op in vars(ARRAY_OPS).items():
        if name != "any":   # its value only steers a branch
            monkeypatch.setattr(ARRAY_OPS, name, checked(name, op))
    name, params, budget, n_trials, max_rounds = SHAPE_CASES[case]
    run_trial_batch(kind, 1, budget, name, params, n_trials, 31, max_rounds)
    assert seen == []


@pytest.mark.parametrize("name,params", [
    ("fixed", {"spends": [0.125] * 64}),
    ("overspend_prober", {}),
    ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_vector_engine_holds_one_tableau_column_in_lockstep(monkeypatch, name, params, kind):
    # each drawing round first releases the columns below every live cursor
    made = record_tableaus(monkeypatch)
    res = run_trial_batch(kind, 1, 1.0, name, params, 50, 3, 64)
    tab = made.pop()
    assert tab.width == res.draws.max() > 3
    assert len(tab._data) <= 1


@pytest.mark.parametrize("case", list(SHAPE_CASES))
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_each_trial_draws_once_per_accepted_round(case, kind):
    # and once more for W0 on the simulated kind; a refused round draws nothing
    name, params, budget, n_trials, max_rounds = SHAPE_CASES[case]
    for engine in ("vector", "scalar"):
        res = run_trial_batch(kind, 1, budget, name, params, n_trials, 31, max_rounds, engine)
        accepted = np.sum(res.decisions == 1, axis=1)
        assert np.array_equal(res.draws, accepted + (kind == "simulated"))


@pytest.mark.parametrize("name,params", [
    ("fixed", {"spends": [0.6, 0.8]}),
    ("fixed", {"spends": [0.125] * 64}),
    ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
])
@pytest.mark.parametrize("engine", ["vector", "scalar"])
def test_simulated_transcript_at_exhaustion_gives_back_w0(name, params, engine):
    # A simulated answer is a_i = m_i W0 + U_i with U = L v and
    # L L^T = I - m m^T, so sum m_i a_i = Q W0 + m^T L v, and m^T L = 0 once
    # Q = 1.  Q is replayed as the factor sums it, over accepted rounds.
    # The tolerance is a rounding bound, not a fit to observed gaps: the
    # filter's slack lets Q pass 1 by REL_SLACK, which moves the W0 term by
    # REL_SLACK |W0|, and each of a trial's R rounds adds about ten
    # roundings (the factor step, m_i W0 + U_i and its term of the sum) of
    # terms no larger than a few times 1 + |W0|.
    res = run_trial_batch("simulated", 1, 1.0, name, params, 200, 5, 64, engine)
    accepted = res.decisions == 1
    m = np.where(accepted, res.spends, 0.0) / res.budget
    q = comp = total = np.zeros(res.n_trials)
    for r in range(m.shape[1]):
        stepped = kahan_step(q, comp, m[:, r] ** 2)
        q, comp = (np.where(accepted[:, r], x, y) for x, y in zip(stepped, (q, comp)))
        total = total + np.where(accepted[:, r], m[:, r] * res.answers[:, r], 0.0)
    assert np.all(q >= 1.0)   # every trial of these arms exhausts its budget
    tol = (REL_SLACK + 16 * res.lengths * np.finfo(float).eps) * (1.0 + np.abs(res.w0))
    assert np.all(np.abs(total - res.w0) <= tol)


# Spends and decisions every trial shares are held as one row: an arm whose
# columns never differ by trial returns them as read-only views of it.
@pytest.mark.parametrize("name,params", [
    ("fixed", {"spends": [0.125] * 64}),
    ("fixed", {"spends": [0.6, 0.8]}),
    ("greedy_halving", {}),
    ("overspend_prober", {}),
])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_lockstep_arm_returns_lane_shared_spends_and_decisions(name, params, kind):
    args = (kind, 1, 1.0, name, params, 40, 3, 256)
    vec = run_trial_batch(*args, engine="vector")
    assert_identical(vec, run_trial_batch(*args, engine="scalar"))
    for mat in (vec.spends, vec.decisions):
        assert lane_shared(mat) and mat.shape == vec.answers.shape
        with pytest.raises(ValueError):
            mat[0, 0] = 0
    assert vec.answers.flags.writeable


@pytest.mark.parametrize("case", ["sign_adaptive", "uncapped"])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_arm_that_parts_after_round_0_returns_full_matrices(monkeypatch, case, kind):
    # both policies share round 0 on every lane and part at round 1, so the
    # matrices are made then, their round 0 filled from the shared row
    monkeypatch.setitem(adversaries._REGISTRY, "uncapped", policy_uncapped)
    params = {"hi": 0.8, "lo": 0.2} if case == "sign_adaptive" else {}
    args = (kind, 1, 1.0, case, params, 30, 8, 64)
    vec, sca = (run_trial_batch(*args, engine=e) for e in ("vector", "scalar"))
    assert_identical(vec, sca)
    for m in ("spends", "decisions"):
        mat = getattr(vec, m)
        assert mat.flags.f_contiguous and mat.flags.writeable
        assert np.array_equal(mat[:, 0], getattr(sca, m)[:, 0])
        assert np.all(mat[:, 0] == mat[0, 0])
    assert np.any(vec.spends[:, 1] != vec.spends[0, 1])


@pytest.mark.parametrize("engine", ["vector", "scalar"])
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_a_declared_length_sizes_the_result_matrices_once(monkeypatch, engine, kind):
    def regrow(out, cap):
        raise AssertionError(f"result matrices regrown to {cap} columns")

    monkeypatch.setattr(batch, "_widen", regrow)
    res = run_trial_batch(kind, 1, 1.0, "fixed", {"spends": [0.125] * 64}, 20, 3, 256, engine)
    assert res.answers.shape == (20, 64) and np.all(res.lengths == 64)


@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_an_open_ended_policy_still_regrows(monkeypatch, kind):
    # greedy_halving declares no length and runs 20 rounds at budget 1, so
    # its matrices start at 16 columns and double once
    widths = []
    widen = batch._widen

    def recording(out, cap):
        widths.append(cap)
        widen(out, cap)

    monkeypatch.setattr(batch, "_widen", recording)
    args = (kind, 1, 1.0, "greedy_halving", {}, 30, 3, 256)
    vec = run_trial_batch(*args, engine="vector")
    assert widths == [32] and vec.answers.shape == (30, 20)
    assert_identical(vec, run_trial_batch(*args, engine="scalar"))


# Each POLICIES arm at 200 trials, and every SHAPE_CASES arm.
EVALUATION_CASES = {**{f"{name}_{i}": (name, params, 1.0, 200, 256)
                       for i, (name, params) in enumerate(POLICIES)},
                    **SHAPE_CASES}


@pytest.mark.parametrize("case", list(EVALUATION_CASES))
@pytest.mark.parametrize("bit", [0, 1])
def test_evaluation_reads_lane_shared_arms_as_their_owned_copies(case, bit):
    # Evaluation reads a lane-shared decisions row once per round and an
    # answers column every trial answered in place; with spends and
    # decisions copied to owned F-order matrices, its section is the same.
    # The moment check overwrites the answers, so each side has its own.
    name, params, budget, n_trials, max_rounds = EVALUATION_CASES[case]
    arms = [run_trial_batch(kind, bit, budget, name, params, n_trials, 31, max_rounds)
            for kind in KINDS]
    if name in ("fixed", "greedy_halving", "overspend_prober"):
        assert all(lane_shared(res.decisions) for res in arms)
    owned = [replace(res, spends=np.array(res.spends, order="F"),
                     decisions=np.array(res.decisions, order="F"),
                     answers=res.answers.copy(order="F")) for res in arms]
    sections = [json.dumps(_evaluate_pair(*map(_shrink, pair), 0.001, 2)[0], sort_keys=True)
                for pair in (arms, owned)]
    assert sections[0] == sections[1]


def uniform_shape_whole(res):
    """The uniform-shape rule on whole matrices: no round absent anywhere,
    and every trial's decisions and spends equal trial 0's."""
    dec, sp = np.asarray(res.decisions), np.asarray(res.spends)
    return (not np.any(dec == -1) and not np.any(dec != dec[0:1, :])
            and not np.any(sp != sp[0:1, :]))


@pytest.mark.parametrize("case", list(EVALUATION_CASES))
@pytest.mark.parametrize("kind", ["direct", "simulated"])
def test_uniform_shape_matches_the_whole_matrix_rule(case, kind):
    name, params, budget, n_trials, max_rounds = EVALUATION_CASES[case]
    for engine in ("vector", "scalar"):
        res = run_trial_batch(kind, 1, budget, name, params, n_trials, 31, max_rounds, engine)
        owned = replace(res, spends=np.array(res.spends, order="F"),
                        decisions=np.array(res.decisions, order="F"))
        want = uniform_shape_whole(res)
        assert _uniform_shape(res) is want and _uniform_shape(owned) is want


def test_uniform_shape_on_planted_differences():
    base_dec = np.ones((4, 7), dtype=np.int8, order="F")
    base_sp = np.full((4, 7), 0.5, order="F")
    plants = [
        lambda d, s: None,                          # uniform
        lambda d, s: d.__setitem__((2, 0), 0),      # first column differs
        lambda d, s: d.__setitem__((3, 2), -1),     # one trial stops early
        lambda d, s: d.__setitem__((slice(None), 6), -1),   # every trial does
        lambda d, s: d.__setitem__((0, 5), -1),     # only trial 0 does
        lambda d, s: s.__setitem__((1, 6), 0.25),   # last spend differs
        lambda d, s: s.__setitem__((0, 3), np.nan),  # a NaN spend never matches
    ]
    for plant in plants:
        dec, sp = base_dec.copy(order="F"), base_sp.copy(order="F")
        plant(dec, sp)
        res = SimpleNamespace(decisions=dec, spends=sp)
        assert _uniform_shape(res) is uniform_shape_whole(res)
        # with the matrix that still agrees as a row every trial shares
        if np.all(dec == dec[0]):
            shared = SimpleNamespace(decisions=np.broadcast_to(dec[:1], dec.shape), spends=sp)
            assert _uniform_shape(shared) is uniform_shape_whole(res)
        if np.all(sp == sp[0]):
            shared = SimpleNamespace(decisions=dec, spends=np.broadcast_to(sp[:1], sp.shape))
            assert _uniform_shape(shared) is uniform_shape_whole(res)
    assert _uniform_shape(SimpleNamespace(decisions=base_dec, spends=base_sp))
