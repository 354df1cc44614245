"""The proof's middle step, checked bitwise on scalar sessions: the simulated
curator's view is a causal post-processing of ``W0``.

Sufficiency: a bit-1 simulated session fed the bit-0 session's draws with
``Z0 - mu0`` first holds the same ``W0`` whenever ``mu0 + (Z0 - mu0)``
rounds back to ``Z0``; on those trials the two transcripts must be bitwise
equal, since the view may read the bit only through ``W0``.  Causality: a
trial's first k answers must not depend on spends chosen after round k.
Both checks use no ``alpha``; a planted ``1e-9 * b`` leak, far below what
any law test at these sizes resolves, shows the first has teeth, and a
planted look-ahead factor, with the right law for a fixed policy, shows the
second has them where the first has none.
"""

import numpy as np

from gdpsim.adversaries import make_policy, policy_fixed
from gdpsim.budget import try_spend
from gdpsim.curator import DEFAULT_MAX_ROUNDS, Session, run_interaction
from gdpsim.rng import generator

POLICIES = [
    ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
    ("greedy_halving", {}),
    ("overspend_prober", {}),
    ("fixed", {"spends": [0.125] * 64}),
]
TRIALS = 500


def sufficiency(name, params, trials=TRIALS):
    """(qualifying trials, trials whose transcripts differ) for one policy."""
    policy = make_policy(name, **params)
    draws = generator(34, "w0-sufficiency", name).standard_normal(
        (trials, DEFAULT_MAX_ROUNDS + 1))
    qualified = differing = 0
    for z in draws.tolist():
        zero = Session("simulated", 0, 1.0, iter(z).__next__)
        one = Session("simulated", 1, 1.0, iter([z[0] - 1.0] + z[1:]).__next__)
        if repr(zero.w0) != repr(one.w0):
            continue
        qualified += 1
        differing += repr(run_interaction(zero, policy)) != repr(run_interaction(one, policy))
    return qualified, differing


def test_the_simulated_view_reads_the_bit_only_through_w0():
    for name, params in POLICIES:
        qualified, differing = sufficiency(name, params)
        assert qualified > TRIALS // 3, name
        assert differing == 0, (name, differing, qualified)


def test_a_leak_of_the_bit_below_any_law_test_is_caught(monkeypatch):
    ask = Session.ask

    def leaky(self, spend):
        answer = ask(self, spend)
        return None if answer is None else answer + 1e-9 * self.b

    monkeypatch.setattr(Session, "ask", leaky)
    for name, params in POLICIES:
        qualified, differing = sufficiency(name, params, trials=100)
        assert differing == qualified > 0, (name, differing, qualified)


def fixed_answers(spends, bit, z):
    """A simulated session's answers to a fixed policy, drawing ``z``."""
    session = Session("simulated", bit, 1.0, iter(z).__next__)
    return [r.answer for r in run_interaction(session, policy_fixed(spends)).rounds]


def changed_prefixes(answers=fixed_answers, trials=200):
    """How many (k, trial) pairs change their first k answers when the spends
    after round k switch from 0.3 to 0.05."""
    spends = [0.3] * 10
    draws = generator(34, "causality").standard_normal((trials, len(spends) + 1))
    changed = 0
    for k in range(1, 8):
        plans = (spends, spends[:k] + [0.05] * (len(spends) - k))
        for trial, z in enumerate(draws.tolist()):
            same, switched = (answers(plan, trial % 2, z) for plan in plans)
            changed += repr(same[:k]) != repr(switched[:k])
            assert same[k] != switched[k], (k, trial)
    return changed


def test_answers_do_not_depend_on_later_spends():
    assert changed_prefixes() == 0


def test_a_look_ahead_factor_is_caught_by_causality_alone(monkeypatch):
    # A factor that reads a fixed policy's whole spend list: round i answers
    # m_i W0 + (S v)_i with S the symmetric root of I - m m^T, the right law
    # for a fixed policy, but its early rounds read later spends.
    plan = []

    def look_ahead(self, spend):
        accepted, self.filter_state = try_spend(self.filter_state, spend)
        if not accepted:
            return None
        if self.draws == 1:   # the first answer draws every round's seed
            m = np.array(plan) / self.mu0
            w, q = np.linalg.eigh(np.eye(m.size) - np.outer(m, m))
            root = (q * np.sqrt(np.maximum(w, 0.0))) @ q.T
            self.chol = iter((root @ [self._next_draw() for _ in plan]).tolist())
        self.draws += 1
        return spend / self.mu0 * self.w0 + next(self.chol)

    def answers(spends, bit, z):
        plan[:] = spends
        return fixed_answers(spends, bit, z)

    monkeypatch.setattr(Session, "ask", look_ahead)
    assert changed_prefixes(answers, trials=50) == 7 * 50   # every prefix, at every k
    # The sufficiency check passes it: the answers read the bit only via W0.
    plan[:] = [0.3] * 10
    qualified, differing = sufficiency("fixed", {"spends": plan}, trials=100)
    assert differing == 0 < qualified, (differing, qualified)
