"""Analyst policies that drive curator interactions.

Each policy is one kernel

    spends(o, i, remaining_sq, last_accepted, prev_spend) -> (spend, stop)

for round ``i``, given the remaining squared budget, the last accepted
answer (NaN before the first) and the previous round's spend (NaN in round
0).  Like the other shared kernels (see ``gdpsim._numeric``) it runs on
floats for one scalar session and on arrays with one lane per trial for the
vector engine, through the op set ``o`` its driver passes; lanes are
independent, and the spend of a stopped lane is meaningless.  A constant
spend or stop is returned as a plain value, which the vector engine holds
as one every lane shares.  Policies are deterministic given those inputs
and may deliberately emit inadmissible spends -- admissibility is the
filter's job.  The harness summarizes a transcript by the sum of its
accepted answers (``BatchResult.summaries``, which both engines add up as
rounds run), whatever the policy.

The built-in suite covers the four interaction shapes the harness needs:
nonadaptive replay (``fixed``), answer-adaptive spending (``sign_adaptive``),
geometric boundary exhaustion (``greedy_halving``), and refusal probing
(``overspend_prober``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .budget import check_spend

# Policies stop once less than this much squared budget remains.
STOP_TOL = 1e-6


@dataclass
class AdversaryPolicy:
    """A named policy kernel.  Not frozen, so a caller may wrap ``spends``
    in place.  ``length``, when declared, is a bound on the rounds the
    policy runs on any input (it stops at round ``length``), so an engine
    can size its result matrices once.

    ``next_spend`` is unused: nothing in the package sets or reads it.  It
    stays because the benchmark's tracer (``perfbench/spans.py``) reads it
    and passes it to ``dataclasses.replace``.
    """

    name: str
    spends: Callable      # (o, i, remaining_sq, last_accepted, prev_spend) -> (spend, stop)
    next_spend: Optional[Callable] = None
    length: Optional[int] = None


def policy_fixed(spends: Sequence[float]) -> AdversaryPolicy:
    """Replay a predetermined spend list, then stop."""
    fixed = tuple(check_spend(s) for s in spends)

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        if i >= len(fixed):
            return math.nan, True
        return fixed[i], False

    return AdversaryPolicy("fixed", kernel, length=len(fixed))


def policy_sign_adaptive(hi: float, lo: float) -> AdversaryPolicy:
    """Spend hi after a positive answer, lo otherwise.

    The first spend is hi/2; all later spends are capped at
    sqrt(remaining_sq) so they are never refused.  Stops once the remaining
    squared budget drops below STOP_TOL.  Before any accepted answer exists,
    the lo branch applies.
    """
    hi = check_spend(hi)
    lo = check_spend(lo)
    if lo > hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        stop = remaining_sq < STOP_TOL
        if i == 0:
            return hi / 2.0, stop
        base = o.where(last_accepted > 0.0, hi, lo)   # NaN -> lo
        return o.minimum(base, o.sqrt(remaining_sq)), stop

    return AdversaryPolicy("sign_adaptive", kernel)


def policy_greedy_halving() -> AdversaryPolicy:
    """Spend sqrt(remaining_sq / 2) each round, halving what is left.

    Never refused by construction; after k rounds at budget 1 the remaining
    squared budget is 2**-k, so the STOP_TOL rule stops it at round 20.
    """

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        return o.sqrt(remaining_sq / 2.0), remaining_sq < STOP_TOL

    return AdversaryPolicy("greedy_halving", kernel)


def policy_overspend_prober() -> AdversaryPolicy:
    """Alternate admissible spends with deliberately inadmissible repeats.

    Even rounds spend 0.9 * sqrt(remaining_sq), which is always admitted;
    odd rounds repeat the previous spend, which is always refused while any
    budget remains (0.81 r > 0.19 r).  The refusal positions are therefore a
    deterministic function of the budget alone, which is exactly what the
    refusal-pattern checks exploit.
    """

    def kernel(o, i, remaining_sq, last_accepted, prev_spend):
        stop = remaining_sq < STOP_TOL
        if i % 2 == 0:
            return 0.9 * o.sqrt(remaining_sq), stop
        return prev_spend, stop

    return AdversaryPolicy("overspend_prober", kernel)


_REGISTRY = {
    "fixed": policy_fixed,
    "sign_adaptive": policy_sign_adaptive,
    "greedy_halving": policy_greedy_halving,
    "overspend_prober": policy_overspend_prober,
}


def policy_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_policy(name: str, **params) -> AdversaryPolicy:
    """Construct a registered policy by name (hyphens and underscores are
    interchangeable)."""
    key = name.replace("-", "_")
    if key not in _REGISTRY:
        raise ValueError(f"unknown policy {name!r}; known: {', '.join(policy_names())}")
    return _REGISTRY[key](**params)
