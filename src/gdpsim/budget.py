"""Adaptive privacy-budget filter.

A query with spend ``mu`` is admitted iff the running sum of squared spends,
plus ``mu**2``, stays within the total squared budget.  Two floating-point
safeguards make the real-arithmetic rule deterministic in practice:

* the running sum is Kahan-compensated, and
* the admission comparison carries a relative slack of ``2**-40``, so
  analytically tight sequences such as spends (0.6, 0.8) against budget 1
  are always admitted.

Once the ledger shows the budget exactly exhausted (``spent_sq >=
budget_sq``), positive spends are refused outright: in real arithmetic no
positive spend is admissible there, and the slack must not reopen a closed
budget.  Zero spends are admissible at any time and leave the ledger
untouched.

:func:`admit` is the rule, written once for floats and for arrays of trial
lanes (see ``gdpsim._numeric``); :func:`try_spend` applies it to one
:class:`FilterState` and the vector engine to all its lanes at once.

Refusal is per-query and never terminates an interaction; a later, smaller
spend may still be admitted.  States are immutable values (a
:class:`FilterState` is a ``NamedTuple``, built anew for each admitted
positive spend by ``tuple.__new__``, as namedtuple's own ``_make`` does);
operations return new states, so sharing across threads is safe.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._numeric import check_real, kahan_step

# Relative slack on the admission comparison, wide enough to absorb rounding
# in the compensated sum but far below any meaningful privacy quantity.
REL_SLACK = 2.0 ** -40

_record = tuple.__new__


class FilterState(NamedTuple):
    """Running squared-spend ledger against a fixed squared budget."""

    budget_sq: float
    spent_sq: float = 0.0
    compensation: float = 0.0


def check_budget(mu0) -> float:
    """Validate a total budget value, a real number >= 0 (``check_real``)
    whose square fits a double; returns it as a float.  A valid plain float
    (each scalar session is given one) is returned on one test."""
    if mu0.__class__ is float and 0.0 <= mu0 and mu0 * mu0 < math.inf:
        return mu0
    mu0 = check_real("budget", mu0, 0)
    if not math.isfinite(mu0 * mu0):
        raise ValueError(f"squared budget overflows a double: {mu0!r}")
    return mu0


def check_spend(mu) -> float:
    """Validate a per-query spend, a real number >= 0 (``check_real``);
    returns it as a float.

    Malformed spends raise ValueError -- deliberately distinct from a budget
    refusal, which is an ordinary decision.  A valid plain float (the
    scalar engine passes one per decision) is returned on one test.
    """
    if mu.__class__ is float and 0.0 <= mu < math.inf:
        return mu
    return check_real("spend", mu, 0)


def filter_new(mu0) -> FilterState:
    """Fresh filter with total squared budget ``mu0**2`` and nothing spent."""
    mu0 = check_budget(mu0)
    return FilterState(budget_sq=mu0 * mu0)


def admit(spent_sq, comp, budget_sq, mu):
    """The filter rule for a valid spend ``mu`` against a ledger, on floats
    or on arrays of lanes alike (plain arithmetic, so no op set is needed).

    Returns ``(admitted, total, comp)``: the decision and the ledger a
    positive spend leaves behind.  Callers store that ledger only where a
    positive spend is admitted; zero spends never move it.
    """
    total, new_comp = kahan_step(spent_sq, comp, mu * mu)
    admitted = (mu == 0.0) | ((spent_sq < budget_sq) & (total <= budget_sq * (1.0 + REL_SLACK)))
    return admitted, total, new_comp


def try_spend(state: FilterState, mu) -> tuple[bool, FilterState]:
    """Admit or refuse a spend.

    Returns ``(True, new_state)`` on admission and ``(False, state)`` on
    refusal.  Refusal mutates nothing.
    """
    mu = check_spend(mu)
    budget_sq, spent_sq, comp = state
    admitted, total, comp = admit(spent_sq, comp, budget_sq, mu)
    if not admitted or mu == 0.0:
        return admitted, state
    return True, _record(FilterState, (budget_sq, total, comp))


def remaining_sq(state: FilterState) -> float:
    """Unspent squared budget, floored at zero: ``max(0.0, budget_sq -
    spent_sq)`` spelled as a conditional, since the scalar engine asks once
    a round and the builtin costs several times as much."""
    rem = state.budget_sq - state.spent_sq
    return rem if rem > 0.0 else 0.0
