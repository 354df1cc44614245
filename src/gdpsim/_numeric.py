"""Shared floating-point helpers and the float/array op sets.

The filter rule, the streaming factor step and the policies are each written
once and run on both engines: the scalar session passes Python floats, the
vector engine passes NumPy arrays with one lane per trial.  Each driver
knows which it runs, so it passes its op set as a kernel's first argument
(``FLOAT_OPS`` from ``run_interaction`` and ``next_noise``, ``ARRAY_OPS``
from ``batch._run_vector``), and the kernel spells every non-arithmetic
step through it -- floats get ``math.sqrt``, builtin ``min``/``max``,
``bool`` and a conditional; arrays get ``np.sqrt``, ``np.minimum``/
``np.maximum``, ``np.any`` and ``np.where``.  ``full`` gives a constant the
argument's shape.  IEEE arithmetic and both square roots are correctly
rounded, so every lane of an array call is bitwise equal to the float call
on that lane's values.

Two rules keep the float form valid: combine conditions with ``&``/``|``
and comparisons, never ``~`` (on a bool it is integer negation); and make
both arms of a ``where`` safe to compute, since the float form evaluates
both (a float division by zero raises).
"""

import math
from types import SimpleNamespace

import numpy as np


def _pick(cond, a, b):
    return a if cond else b


# ``select(cond, (a1, a2, ...), (b1, b2, ...))`` is ``where`` over matching
# tuples: on floats one call makes several choices on the same condition,
# which keeps the per-trial scalar engine cheap.
FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt,
    minimum=min,
    maximum=max,
    any=bool,
    where=_pick,
    select=_pick,
    full=lambda like, value: value,
)

ARRAY_OPS = SimpleNamespace(
    sqrt=np.sqrt,
    minimum=np.minimum,
    maximum=np.maximum,
    any=np.any,
    where=np.where,
    select=lambda cond, a, b: tuple(np.where(cond, x, y) for x, y in zip(a, b)),
    full=lambda like, value: np.full(like.shape, value),
)


def kahan_step(total, comp, x):
    """One compensated-summation step for ``total + x``.

    Plain arithmetic, so it needs no op set.  Returns the updated
    ``(total, compensation)`` pair.
    """
    y = x - comp
    t = total + y
    return t, (t - total) - y
