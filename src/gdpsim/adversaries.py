"""Analyst policies that drive curator interactions.

Each policy is one kernel

    spends(i, remaining_sq, last_accepted, prev_spend) -> (spend, stop)

for round ``i``, given the remaining squared budget, the last accepted
answer (NaN before the first) and the previous round's spend (NaN in round
0).  Like the other shared kernels (see ``gdpsim._numeric``) it runs on
floats for one scalar session and on arrays with one lane per trial for the
vector engine; lanes are independent, and the spend of a stopped lane is
meaningless.  Policies are deterministic given those inputs and may
deliberately emit inadmissible spends -- admissibility is the filter's job.
``next_spend(prefix, remaining_sq, rng)`` is the same rule in prefix form
(the spend, or None to stop).  ``summary`` reduces a finished transcript to
one scalar for two-sample testing; every built-in policy uses the sum of
accepted answers.

The built-in suite covers the four interaction shapes the harness needs:
nonadaptive replay (``fixed``), answer-adaptive spending (``sign_adaptive``),
geometric boundary exhaustion (``greedy_halving``), and refusal probing
(``overspend_prober``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from ._numeric import ops
from .budget import check_spend

# Policies stop once less than this much squared budget remains.
STOP_TOL = 1e-6


def summary_sum_of_answers(transcript) -> float:
    return float(sum(r.answer for r in transcript.rounds if r.accepted))


def _next_spend(spends, prefix, remaining_sq, rng) -> Optional[float]:
    """Run the kernel ``spends`` on a transcript prefix."""
    last = next((r.answer for r in reversed(prefix) if r.accepted), math.nan)
    prev = prefix[-1].spend if prefix else math.nan
    spend, stop = spends(len(prefix), remaining_sq, last, prev)
    return None if stop else spend


@dataclass
class AdversaryPolicy:
    """A named policy kernel.  Not frozen, so a caller may wrap ``spends``
    in place; ``next_spend`` defaults to the prefix form of ``spends``."""

    name: str
    spends: Callable      # (i, remaining_sq, last_accepted, prev_spend) -> (spend, stop)
    summary: Callable = summary_sum_of_answers   # Transcript -> float
    next_spend: Optional[Callable] = None        # (prefix, remaining_sq, rng) -> float | None

    def __post_init__(self):
        if self.next_spend is None:
            self.next_spend = partial(_next_spend, self.spends)


def policy_fixed(spends: Sequence[float]) -> AdversaryPolicy:
    """Replay a predetermined spend list, then stop."""
    fixed = tuple(check_spend(s) for s in spends)

    def kernel(i, remaining_sq, last_accepted, prev_spend):
        o = ops(remaining_sq)
        if i >= len(fixed):
            return o.full(remaining_sq, math.nan), o.full(remaining_sq, True)
        return o.full(remaining_sq, fixed[i]), o.full(remaining_sq, False)

    return AdversaryPolicy("fixed", kernel)


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

    def kernel(i, remaining_sq, last_accepted, prev_spend):
        o = ops(remaining_sq)
        stop = remaining_sq < STOP_TOL
        if i == 0:
            return o.full(remaining_sq, hi / 2.0), stop
        base = o.where(last_accepted > 0.0, hi, lo)   # NaN -> lo
        return o.minimum(base, o.sqrt(remaining_sq)), stop

    return AdversaryPolicy("sign_adaptive", kernel)


def policy_greedy_halving() -> AdversaryPolicy:
    """Spend sqrt(remaining_sq / 2) each round, halving what is left.

    Never refused by construction; after k rounds at budget 1 the remaining
    squared budget is 2**-k, so the STOP_TOL rule stops it at round 20.
    """

    def kernel(i, remaining_sq, last_accepted, prev_spend):
        return ops(remaining_sq).sqrt(remaining_sq / 2.0), remaining_sq < STOP_TOL

    return AdversaryPolicy("greedy_halving", kernel)


def policy_overspend_prober() -> AdversaryPolicy:
    """Alternate admissible spends with deliberately inadmissible repeats.

    Even rounds spend 0.9 * sqrt(remaining_sq), which is always admitted;
    odd rounds repeat the previous spend, which is always refused while any
    budget remains (0.81 r > 0.19 r).  The refusal positions are therefore a
    deterministic function of the budget alone, which is exactly what the
    refusal-pattern checks exploit.
    """

    def kernel(i, remaining_sq, last_accepted, prev_spend):
        stop = remaining_sq < STOP_TOL
        if i % 2 == 0:
            return 0.9 * ops(remaining_sq).sqrt(remaining_sq), stop
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
