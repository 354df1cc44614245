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

A session draws from a zero-argument function (a PCG64 generator's bound
``standard_normal``, or a trial's tableau row in ``gdpsim.batch``).
Refused queries consume no randomness, so for a fixed (kind, b, budget,
seed, policy) the whole transcript is reproducible bit for bit.  Budgets
other than 1 are handled natively by normalizing spends; running the same
interaction at budget 1 with pre-normalized spends consumes identical noise
values (the scaling-coherence tests assert this exactly).

Sessions are single-threaded state machines.  Distinct sessions with
independent streams may run in parallel.  A session's filter and factor
states and each recorded :class:`Round` are immutable ``NamedTuple``
values: the per-trial reference engine builds up to three of them every
round, and a ``NamedTuple`` is the cheapest immutable record to build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._numeric import FLOAT_OPS
from .budget import FilterState, check_budget, remaining_sq, try_spend
from .cholesky import StreamingCholesky, next_noise

KINDS = ("direct", "simulated")

DEFAULT_MAX_ROUNDS = 256


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


class Session:
    """One curator endpoint holding the secret bit.

    ``draw()`` returns the next standard normal as a float; draws are
    consumed strictly in session order (simulated: Z0 first, then one seed
    per admitted round), and ``draws`` counts them.
    """

    def __init__(self, kind: str, b: int, budget, draw):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if b not in (0, 1):
            raise ValueError(f"secret bit must be 0 or 1, got {b!r}")
        self.kind = kind
        self.b = int(b)
        self.mu0 = check_budget(budget)
        self.filter_state = FilterState(self.mu0 * self.mu0)
        self._next_draw = draw
        self.draws = 0
        self.w0 = None
        self.chol = None
        if kind == "simulated":
            self._norm = self.mu0 if self.mu0 > 0.0 else 1.0
            z0 = self._draw()
            self.w0 = self.b * self.mu0 + z0
            self.chol = StreamingCholesky()

    def _draw(self) -> float:
        self.draws += 1
        return self._next_draw()

    def ask(self, spend) -> float | None:
        """Answer an admitted spend, or return None on refusal.

        Malformed spends raise ValueError.  Refusals consume no randomness.
        """
        accepted, new_state = try_spend(self.filter_state, spend)
        if not accepted:
            return None
        self.filter_state = new_state
        spend = float(spend)
        if self.kind == "direct":
            return self.b * spend + self._draw()
        m = spend / self._norm
        u, self.chol = next_noise(self.chol, m, self._draw())
        return m * self.w0 + u


def open_session(kind: str, b: int, budget, seed: int) -> Session:
    """Open a session drawing from ``PCG64(seed)`` for an integer ``seed``;
    deterministic given (kind, b, budget, seed).

    ``seed`` must be a Python or NumPy integer: ``None`` would seed from OS
    entropy, and a boolean or float is not a seed.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    return Session(kind, b, budget, np.random.Generator(np.random.PCG64(seed)).standard_normal)


def run_interaction(session: Session, policy, *,
                    max_rounds: int = DEFAULT_MAX_ROUNDS) -> Transcript:
    """Drive a session with an adversary policy until it stops or the round
    cap is hit; every decision, including refusals, is recorded.

    Calls the policy's ``spends`` kernel on floats (``FLOAT_OPS``), carrying
    the last accepted answer and the previous spend as the vector engine
    does.  If the cap fires while the policy would continue, the transcript
    carries a truncation marker.
    """
    transcript = Transcript(budget=session.mu0)
    record = transcript.rounds.append
    spends, ask = policy.spends, session.ask
    last = prev = math.nan
    for i in range(max_rounds):
        spend, stop = spends(FLOAT_OPS, i, remaining_sq(session.filter_state), last, prev)
        if stop:
            return transcript
        answer = ask(spend)
        record(Round(i, float(spend), answer is not None, answer))
        if answer is not None:
            last = answer
        prev = spend
    _, stop = spends(FLOAT_OPS, max_rounds, remaining_sq(session.filter_state), last, prev)
    transcript.truncated = not stop
    return transcript
