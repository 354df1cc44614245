"""Mechanisms as deterministic postprocessings of a Gaussian core.

A mechanism with per-query spend mu is represented by a map F applied to a
unit-variance Gaussian: on secret bit b it outputs F(b*mu + Z).  Any curator
session can therefore serve it -- ask the session for spend mu and
postprocess the answer -- and the harness checks that direct and simulated
sessions induce identical outcome distributions.

The registry deliberately contains only mechanisms already in postprocessing
form; whether an arbitrary black-box mechanism admits such a representation
is not this package's problem.  Every registered map is deterministic and
reads no randomness, so distributional comparisons see only the Gaussian
core.  Each is a NumPy map over an array: the harness applies it to the
array of a whole arm's accepted answers.  Running a mechanism directly on
the bit is ``post`` of ``b*mu + Z``, which is the harness's direct arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .budget import check_spend


@dataclass(frozen=True)
class PostprocessedMechanism:
    """A spend plus an outcome map over the Gaussian core value.

    ``post(x)`` maps a float array elementwise to a float array of
    outcomes (the harness passes the array of an arm's accepted answers).
    ``binary`` marks mechanisms whose outcome set has at most two values
    (compared by proportion test rather than KS).

    ``vector_post`` is unused: nothing in the package sets or reads it.  It
    stays because the benchmark's tracer (``perfbench/spans.py``) reads it
    and passes it to ``dataclasses.replace``.
    """

    name: str
    mu: float
    post: Callable
    vector_post: Optional[Callable] = None
    binary: bool = False


def _identity(mu: float) -> PostprocessedMechanism:
    # Multiplying by 1.0 copies x as floats and keeps every bit, -0.0 too.
    return PostprocessedMechanism("identity", mu, post=lambda x: x * 1.0)


def _threshold(mu: float, tau: float) -> PostprocessedMechanism:
    tau = float(tau)
    return PostprocessedMechanism(
        "threshold", mu,
        post=lambda x: np.where(x > tau, 1.0, 0.0),
        binary=True,
    )


def _sign(mu: float) -> PostprocessedMechanism:
    return PostprocessedMechanism(
        "sign", mu,
        post=lambda x: np.where(x > 0.0, 1.0, -1.0),
        binary=True,
    )


def _round_to_integer(mu: float) -> PostprocessedMechanism:
    return PostprocessedMechanism("round_to_integer", mu, post=np.rint)


_REGISTRY = {
    "identity": _identity,
    "threshold": _threshold,
    "sign": _sign,
    "round_to_integer": _round_to_integer,
}


def mechanism_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_mechanism(name: str, mu: float, **params) -> PostprocessedMechanism:
    """Construct a registered mechanism by name with spend ``mu``."""
    key = name.replace("-", "_")
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown mechanism {name!r}; known: {', '.join(mechanism_names())}"
        )
    return _REGISTRY[key](check_spend(mu), **params)
