"""Shared numeric helpers, the integer-argument rule (``check_int``, which
every count a public entry takes goes through) and the float/array op sets.

The filter rule, the streaming factor step and the policies are each written
once and run on both engines: the scalar session passes Python floats, the
vector engine passes NumPy arrays with one lane per trial.  Each driver
knows which it runs, so it passes its op set as a kernel's first argument
(``FLOAT_OPS`` from ``run_interaction`` and ``next_noise``, ``ARRAY_OPS``
from ``batch._run_vector``), and the kernel spells every non-arithmetic
step through it -- floats get ``math.sqrt``, the builtins' ``min``/``max``
rule, ``bool`` and a conditional; arrays get ``np.sqrt``, ``np.minimum``/
``np.maximum``, ``ndarray.any`` and ``np.where``.  IEEE arithmetic and both
square roots are correctly rounded, so every lane of an array call is
bitwise equal to the float call on that lane's values.

An argument of an array-op-set call may be a Python scalar, one value
every lane shares (the vector engine holds lane-shared state that way), or
an array with one entry per lane; NumPy broadcasting mixes the two.  Each
``ARRAY_OPS`` op picks its form per call: with no ``np.ndarray`` argument
(for ``where`` and ``select``, a condition that is not one) it runs the
``FLOAT_OPS`` form, so a shared value costs a float operation and stays a
Python float or bool, bitwise what the scalar engine computes on it;
otherwise it runs the NumPy form.  Since any argument may be either, a
kernel never takes ``len`` of an argument, indexes it or reads its shape;
a constant it returns is a plain value, which the vector engine holds as
one every lane shares.

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


# Builtin ``min``/``max`` of two values, by their rule: the second wins only
# if strictly smaller (larger).  On two floats the builtins cost about three
# times these calls (137 against 44 ns, CPython 3.11.7), since they parse
# keywords and iterate their arguments.
def _fmin(a, b):
    return b if b < a else a


def _fmax(a, b):
    return b if b > a else a


# ``select(cond, (a1, a2, ...), (b1, b2, ...))`` is ``where`` over matching
# tuples: on floats one call makes several choices on the same condition,
# which keeps the per-trial scalar engine cheap.
FLOAT_OPS = SimpleNamespace(
    sqrt=math.sqrt,
    minimum=_fmin,
    maximum=_fmax,
    any=bool,
    where=_pick,
    select=_pick,
)


# The array op set's ops: NumPy's form when some argument is a lane array,
# else the float form above.  ``where`` and ``select`` look at the condition
# alone: a shared condition picks one arm for every lane, which leaves a
# shared arm shared and never makes a 0-d array of two shared arms.
def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _minimum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return _fmin(a, b)


def _maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return _fmax(a, b)


def _any(x):
    return x.any() if isinstance(x, np.ndarray) else bool(x)


def _where(cond, a, b):
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _select(cond, a, b):
    if isinstance(cond, np.ndarray):
        return tuple(np.where(cond, x, y) for x, y in zip(a, b))
    return a if cond else b


ARRAY_OPS = SimpleNamespace(
    sqrt=_sqrt,
    minimum=_minimum,
    maximum=_maximum,
    any=_any,
    where=_where,
    select=_select,
)


def is_int(x) -> bool:
    """An integer argument: a Python int or a NumPy integer, not a bool
    (JSON true/false load as bool, which Python counts as an int)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(name: str, x, low: int) -> int:
    """``x`` as an int if it is an integer argument (``is_int``) >= ``low``;
    otherwise ``ValueError``."""
    if not is_int(x) or x < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)


def kahan_step(total, comp, x):
    """One compensated-summation step for ``total + x``.

    Plain arithmetic, so it needs no op set.  Returns the updated
    ``(total, compensation)`` pair.
    """
    y = x - comp
    t = total + y
    return t, (t - total) - y
