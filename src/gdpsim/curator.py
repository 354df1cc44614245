"""Interactive Gaussian curator sessions over a secret bit.

Two interchangeable session kinds answer adaptively chosen spends, both
behind the same budget filter:

* ``direct`` -- answers each admitted spend mu with ``b*mu + Z``, Z a fresh
  standard normal (one draw per admitted round);
* ``simulated`` -- draws a single Gaussian input ``W0 = b*mu0 + Z0`` when the
  session opens and afterwards answers by postprocessing alone:
  ``W = m*W0 + U`` with ``m = mu/mu0`` and U the next noise value from the
  incremental factor of I - m m^T (one seed draw per admitted round).

Since Var(W0) = 1, the simulated answer is already in raw units and its
conditional law given any transcript prefix is N(b*mu, 1) -- the same as the
direct curator's.  The Monte-Carlo harness certifies this equivalence.

A session draws from a zero-argument function (a ``gdpsim.rng`` stream's
``standard_normal``, or a trial's tableau row in ``gdpsim.batch``).
Refused queries consume no randomness, so for a fixed (kind, b, budget,
stream, policy) the whole transcript is reproducible bit for bit.  Budgets
other than 1 are handled natively by normalizing spends; running the same
interaction at budget 1 with pre-normalized spends consumes identical noise
values (the scaling-coherence tests assert this exactly).

Sessions are single-threaded state machines.  Distinct sessions with
independent streams may run in parallel.  A session's filter and factor
states and each recorded :class:`Round` are immutable ``NamedTuple``
values; an admitted simulated round builds three of them, a refused round
its ``Round`` alone.  The per-round builds call ``tuple.__new__`` on the
class, as namedtuple's own ``_make`` does, and so skip the class's
Python-level ``__new__``: about 0.16 against 0.33 us a record (best of
five ``timeit`` runs, CPython 3.11.7 on a 2-core Xeon VM).  That build
checks neither the length nor the field types, so the callers pass exactly
the fields, as Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ._numeric import FLOAT_OPS, check_int, is_int
from .budget import FilterState, check_budget, remaining_sq, try_spend
from .cholesky import StreamingCholesky, next_noise

KINDS = ("direct", "simulated")

DEFAULT_MAX_ROUNDS = 256

_record = tuple.__new__


def check_kind_bit(kind, b) -> int:
    """The session-kind and secret-bit rule: ``kind`` is one of ``KINDS``
    and ``b`` the integer 0 or 1 (a NumPy integer will do, a bool or a
    float will not).  Returns ``int(b)``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not is_int(b) or b not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {b!r}")
    return int(b)


class Round(NamedTuple):
    """One query: spend, admission decision, and the answer if admitted."""

    index: int
    spend: float
    accepted: bool
    answer: float | None


@dataclass
class Transcript:
    """Ordered record of one curator-analyst interaction; its answers and
    refusal pattern are read off ``rounds``."""

    budget: float
    rounds: list[Round] = field(default_factory=list)
    truncated: bool = False


# Every simulated session starts from this factor; records are immutable, so
# one serves them all.
_FRESH_FACTOR = StreamingCholesky()


class Session:
    """One curator endpoint holding the secret bit.

    ``draw()`` returns the next standard normal as a float; draws are
    consumed strictly in session order (simulated: Z0 first, then one seed
    per admitted round), and ``draws`` counts them.  ``kind`` and the bit
    ``b`` are checked by ``check_kind_bit``.
    """

    __slots__ = ("kind", "b", "mu0", "filter_state", "draws", "w0", "chol",
                 "_next_draw", "_norm")

    def __init__(self, kind: str, b: int, budget, draw):
        self.b = check_kind_bit(kind, b)
        self.kind = kind
        self.mu0 = check_budget(budget)
        self.filter_state = FilterState(self.mu0 * self.mu0)
        self._next_draw = draw
        self.draws = 0
        self.w0 = self.chol = None
        if kind == "simulated":
            self._norm = self.mu0 if self.mu0 > 0.0 else 1.0
            self.draws = 1
            self.w0 = self.b * self.mu0 + draw()
            self.chol = _FRESH_FACTOR

    def ask(self, spend) -> float | None:
        """Answer an admitted spend, or return None on refusal.

        Malformed spends raise ValueError.  Refusals consume no randomness.
        """
        accepted, new_state = try_spend(self.filter_state, spend)
        if not accepted:
            return None
        self.filter_state = new_state
        self.draws += 1
        spend = float(spend)
        if self.kind == "direct":
            return self.b * spend + self._next_draw()
        m = spend / self._norm
        u, self.chol = next_noise(self.chol, m, self._next_draw())
        return m * self.w0 + u


def run_interaction(session: Session, policy, *,
                    max_rounds: int = DEFAULT_MAX_ROUNDS) -> Transcript:
    """Drive a session with an adversary policy until it stops or the round
    cap is hit; every decision, including refusals, is recorded.

    Calls the policy's ``spends`` kernel on floats (``FLOAT_OPS``), carrying
    the last accepted answer and the previous spend as the vector engine
    does.  If the cap fires while the policy would continue, the transcript
    carries a truncation marker.  ``max_rounds`` goes through ``check_int``
    (an integer >= 0).
    """
    max_rounds = check_int("max_rounds", max_rounds, 0)
    rounds = []
    record = rounds.append
    spends, ask = policy.spends, session.ask
    last = prev = math.nan
    for i in range(max_rounds):
        spend, stop = spends(FLOAT_OPS, i, remaining_sq(session.filter_state), last, prev)
        if stop:
            return Transcript(session.mu0, rounds)
        answer = ask(spend)
        record(_record(Round, (i, float(spend), answer is not None, answer)))
        if answer is not None:
            last = answer
        prev = spend
    _, stop = spends(FLOAT_OPS, max_rounds, remaining_sq(session.filter_state), last, prev)
    return Transcript(session.mu0, rounds, not stop)
