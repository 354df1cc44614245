"""Sessions: determinism, laws, randomness accounting, scaling coherence."""

import math

import numpy as np
import pytest

from gdpsim.adversaries import policy_fixed, policy_overspend_prober
from gdpsim.batch import DrawTableau, _row_draws, run_trial_batch
from gdpsim.budget import FilterState
from gdpsim.cholesky import StreamingCholesky
from gdpsim.curator import Round, Session, open_session, run_interaction
from gdpsim.cholesky import next_noise


def fresh_generator(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_sessions_deterministic_given_seed():
    for kind in ("direct", "simulated"):
        a = open_session(kind, 1, 1.0, 42)
        b = open_session(kind, 1, 1.0, 42)
        for spend in (0.3, 0.2, 0.9, 0.4):
            assert a.ask(spend) == b.ask(spend)


def test_direct_answer_is_shifted_unit_normal_draw():
    session = open_session("direct", 1, 1.0, 7)
    z = fresh_generator(7).standard_normal()
    assert session.ask(0.7) == 1 * 0.7 + z


def test_simulated_w0_construction():
    z0 = fresh_generator(7).standard_normal()
    session = open_session("simulated", 0, 2.0, 7)
    assert session.w0 == z0
    session = open_session("simulated", 1, 2.0, 7)
    assert session.w0 == 1 * 2.0 + z0


def test_full_budget_query_returns_w0_bitwise():
    for seed in range(25):
        session = open_session("simulated", 1, 1.0, seed)
        answer = session.ask(1.0)
        assert answer is not None
        assert answer.hex() == session.w0.hex()


def test_zero_spend_answer_is_fresh_seed_independent_of_bit():
    gen = fresh_generator(11)
    gen.standard_normal()  # z0
    v1 = gen.standard_normal()
    answers = []
    for b in (0, 1):
        session = open_session("simulated", b, 1.0, 11)
        answers.append(session.ask(0.0))
    assert answers[0] == answers[1] == v1


def test_randomness_accounting():
    session = open_session("simulated", 1, 1.0, 3)
    assert session.draws == 1  # w0
    assert session.ask(0.6) is not None
    assert session.ask(0.9) is None       # refused: no draw
    assert session.ask(0.8) is not None
    assert session.draws == 3             # k + 1 for k = 2 accepted rounds

    direct = open_session("direct", 1, 1.0, 3)
    assert direct.draws == 0
    direct.ask(0.6)
    direct.ask(0.9)
    direct.ask(0.8)
    assert direct.draws == 2


def test_refusal_changes_nothing():
    for kind in ("direct", "simulated"):
        session = open_session(kind, 0, 1.0, 5)
        session.ask(0.9)
        state, chol, draws = session.filter_state, session.chol, session.draws
        assert session.ask(0.9) is None
        assert session.filter_state is state and session.chol is chol
        assert session.draws == draws


def test_malformed_spend_raises():
    session = open_session("direct", 0, 1.0, 1)
    with pytest.raises(ValueError):
        session.ask(float("nan"))
    with pytest.raises(ValueError):
        session.ask(-0.5)


def test_zero_budget_session():
    for kind in ("direct", "simulated"):
        session = open_session(kind, 1, 0.0, 9)
        assert session.ask(0.5) is None
        answer = session.ask(0.0)
        assert answer is not None and math.isfinite(answer)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        open_session("other", 0, 1.0, 1)
    with pytest.raises(ValueError):
        open_session("direct", 2, 1.0, 1)
    with pytest.raises(ValueError):
        open_session("direct", 0, -1.0, 1)
    with pytest.raises(ValueError, match="boolean"):
        open_session("direct", 1, True, 3)
    # the bit rule of run_trial_batch: a bool or a float is not a bit
    for kind in ("direct", "simulated"):
        for b in (True, False, 1.0, 0.0):
            with pytest.raises(ValueError, match="secret bit"):
                open_session(kind, b, 1.0, 1)
    assert open_session("simulated", np.int64(1), 1.0, 1).w0 == \
        open_session("simulated", 1, 1.0, 1).w0


def test_seed_must_be_an_integer():
    # None would seed from OS entropy and break determinism given the seed.
    for seed in (None, True, False, 1.0, 1.5, "1"):
        with pytest.raises(TypeError, match="seed"):
            open_session("direct", 0, 1.0, seed)
    for seed in (np.int64(7), np.uint32(7)):
        assert open_session("direct", 1, 1.0, seed).ask(0.5) == \
            open_session("direct", 1, 1.0, 7).ask(0.5)


def test_round_is_an_immutable_record():
    rnd = Round(3, 0.5, False, None)
    assert Round._fields == ("index", "spend", "accepted", "answer")
    index, spend, accepted, answer = rnd
    assert (index, spend, accepted, answer) == (3, 0.5, False, None)
    assert (rnd.index, rnd.spend, rnd.accepted, rnd.answer) == tuple(rnd)
    with pytest.raises(AttributeError):
        rnd.answer = 1.0


def test_scalar_engine_sessions_hold_plain_floats():
    # A tableau row read as NumPy scalars would leak np.float64 into every
    # answer and state; the row is read as Python floats, whole and after
    # growth.  The records are built by tuple.__new__, which checks neither
    # length nor field types, so each must still be its exact class and
    # length and hold Python floats.
    def plain(record, cls):
        return type(record) is cls and len(record) == len(cls._fields) and \
            all(type(v) is float for v in record)

    class NumpySpends:   # spends as NumPy scalars, recorded as floats
        def spends(self, o, *args):
            spend, stop = prober.spends(o, *args)
            return np.float64(spend), stop

    prober = policy_overspend_prober()
    tableau = DrawTableau(5, 2)
    tableau.ensure(3)
    for kind in ("direct", "simulated"):
        session = Session(kind, 1, 1.0, _row_draws(tableau, 1).__next__)
        tr = run_interaction(session, NumpySpends(), max_rounds=12)
        assert [r.accepted for r in tr.rounds] == [True, False] * 6
        assert session.draws == tableau.width > 3
        assert plain(session.filter_state, FilterState)
        assert plain(session.chol, StreamingCholesky) if kind == "simulated" \
            else session.chol is None
        for i, rnd in enumerate(tr.rounds):
            assert type(rnd) is Round and len(rnd) == 4
            assert type(rnd.index) is int and rnd.index == i
            assert type(rnd.spend) is float and type(rnd.accepted) is bool
            assert type(rnd.answer) is (float if rnd.accepted else type(None))


def test_max_rounds_must_be_a_nonnegative_integer():
    asked = []
    policy = policy_fixed([0.1] * 3)

    class Recording:
        def spends(self, o, i, *rest):
            asked.append(i)
            return policy.spends(o, i, *rest)

    for bad in (-1, 2.0, True, None, "3"):
        with pytest.raises(ValueError, match="max_rounds"):
            run_interaction(open_session("direct", 0, 1.0, 2), Recording(), max_rounds=bad)
    assert asked == []
    got = run_interaction(open_session("direct", 0, 1.0, 2), policy, max_rounds=np.int64(2))
    want = run_interaction(open_session("direct", 0, 1.0, 2), policy, max_rounds=2)
    assert got == want and got.truncated and len(got.rounds) == 2
    empty = run_interaction(open_session("direct", 0, 1.0, 2), policy, max_rounds=0)
    assert empty.rounds == [] and empty.truncated


def test_constant_policy_exhausts_after_four_rounds():
    session = open_session("direct", 1, 1.0, 21)
    transcript = run_interaction(session, policy_fixed([0.5] * 6))
    decisions = [r.accepted for r in transcript.rounds]
    assert decisions == [True, True, True, True, False, False]
    assert session.filter_state.spent_sq == 1.0


def test_stop_immediately_policy_gives_empty_transcript():
    session = open_session("simulated", 1, 1.0, 2)
    transcript = run_interaction(session, policy_fixed([]))
    assert transcript.rounds == [] and not transcript.truncated


def test_round_cap_sets_truncation_marker():
    session = open_session("direct", 0, 10.0, 2)
    transcript = run_interaction(session, policy_fixed([0.1] * 10), max_rounds=5)
    assert len(transcript.rounds) == 5 and transcript.truncated
    session = open_session("direct", 0, 10.0, 2)
    transcript = run_interaction(session, policy_fixed([0.1] * 5), max_rounds=5)
    assert len(transcript.rounds) == 5 and not transcript.truncated


def test_scaling_coherence_exact():
    # (mu0, spends) and (1, spends/mu0) with the same seed consume identical
    # noise values U; answers differ only through W0 = b*mu0 + Z0.
    mu0 = 2.0
    spends = [1.2, 0.8, 0.3]
    b = 1
    seed = 77

    gen = fresh_generator(seed)
    z0 = gen.standard_normal()
    state = StreamingCholesky()
    us = []
    for mu in spends:
        u, state = next_noise(state, mu / mu0, gen.standard_normal())
        us.append(u)

    raw = open_session("simulated", b, mu0, seed)
    unit = open_session("simulated", b, 1.0, seed)
    assert raw.w0 == b * mu0 + z0
    assert unit.w0 == b * 1.0 + z0
    for mu, u in zip(spends, us):
        m = mu / mu0
        assert raw.ask(mu) == m * raw.w0 + u
        assert unit.ask(m) == m * unit.w0 + u


def test_conditional_law_at_fixed_prefixes():
    # For prefix lengths 1..3 of a fixed spend vector, the next simulated
    # answer has law N(b*mu_i, 1) regardless of the prefix: check moments on
    # the full sample and within median splits on each earlier answer.
    n = 100000
    spends = [0.6, 0.5, 0.3]
    b = 1
    res = run_trial_batch("simulated", b, 1.0, "fixed", {"spends": spends},
                          n, master_seed=1234)
    answers = res.answers
    for i, mu in enumerate(spends):
        col = answers[:, i]
        assert abs(col.mean() - b * mu) < 4.0 / math.sqrt(n)
        assert abs(col.var(ddof=1) - 1.0) < 5.0 / math.sqrt(n)
        for j in range(i):
            split = answers[:, j] > np.median(answers[:, j])
            for half in (col[split], col[~split]):
                m = half.size
                assert abs(half.mean() - b * mu) < 4.0 / math.sqrt(m)
                assert abs(half.var(ddof=1) - 1.0) < 5.0 / math.sqrt(m)


def test_simulated_law_matches_direct_small_sample():
    # cheap two-sample sanity at module scale; the acceptance suite runs the
    # full-power version
    from gdpsim.stats import ks_two_sample
    n = 20000
    d = run_trial_batch("direct", 1, 1.0, "fixed", {"spends": [0.6, 0.8]}, n, 5)
    s = run_trial_batch("simulated", 1, 1.0, "fixed", {"spends": [0.6, 0.8]}, n, 5)
    for r in range(2):
        assert ks_two_sample(d.answers[:, r][d.decisions[:, r] == 1],
                             s.answers[:, r][s.decisions[:, r] == 1]).passed
