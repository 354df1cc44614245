"""Incremental canonical Cholesky factor of I - m m^T for a growing,
normalized spend vector m with ||m|| <= 1.

Canonical means: exactly rank(Sigma) positive diagonal entries, and the
remaining columns all zero.  For Sigma_i = I - m_i m_i^T the factor grows one
row per round and never rewrites history, which is what makes an online
simulation possible.

Writing Q_i = ||m_i||^2 and y_i = L_i^{-1} m_i (the solved column), the new
row appended for spend m is

    r   = -m * y_{i-1}
    d_i = sqrt((1 - Q_i) / (1 - Q_{i-1}))

Both modes hold their state in an immutable ``NamedTuple`` record that each
round rebuilds.  Dense mode stores the rows, the seeds it was fed and the
solved column y, which it extends by one forward-substitution step against
its own new row each round -- it is the transparent reference.  Its fields
stay tuples (float64 rows; Python floats for y and the seeds, y one entry
per row until exhaustion and frozen after it).  Each round reads y and the
seeds into one array apiece with ``np.fromiter`` at their known length,
takes its two products with ``ndarray.dot`` and builds the record with
``tuple.__new__``: on vectors of at most 64 entries NumPy's fixed cost per
call is most of the work.  Streaming mode carries only three scalars (Q,
its Kahan compensation, and the inner product s = y . v against the noise
seeds), using the closed forms

    U_i    = -m * s + d_i * V_i            (last entry of L_i v_i)
    y_last = m / sqrt((1 - Q_i)(1 - Q_{i-1}))     (0 once Q_i = 1)
    s     <- s + y_last * V_i

which follow from L_i y_i = m_i and ||y||^2 = Q/(1-Q).  :func:`stream_step`
is that step, written once for a float state (the scalar session, through
:func:`next_noise`) and for arrays of trial lanes (the vector engine); each
caller passes its op set from ``gdpsim._numeric``.  The two modes must agree to 1e-9
per noise value; the verification suite enforces that.

Degenerate cases.  At exact exhaustion (Q = 1) the factor gains its one
all-zero column; afterwards only zero spends are admissible and each appends
the row (0, ..., 0, 1), since the covariance grows by an identity block.
Radicands driven into [-1e-12, 0) by rounding clamp to zero; spends that
overshoot the unit bound by more than that band raise BudgetOverflowError.

Numerical caveat: admitting a spend whose square exceeds the true remaining
capacity by eps (the filter's comparison slack allows eps up to ~9e-13)
perturbs the factor by about eps/(1-Q).  That is harmless for any policy
that stops near exhaustion, but a caller insisting on slack-sized spends at
1-Q below ~1e-10 gets a visibly distorted row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._numeric import FLOAT_OPS, check_real, kahan_step
from .errors import BudgetOverflowError

# Radicands in [-CLAMP_BAND, 0) are rounding debris and clamp to zero; anything
# more negative means the caller fed an inadmissible spend vector.  The band is
# wider than the budget filter's comparison slack, so filter-admitted spends
# never trip the checks below.
CLAMP_BAND = 1e-12

_record = tuple.__new__


class DenseCholesky(NamedTuple):
    """Reference mode: the factor held row by row."""

    rows: tuple = ()      # row i is a float64 array of length i+1
    solved: tuple = ()    # y = L^{-1} m, one entry per row until exhaustion
    seeds: tuple = ()     # seeds V_1..V_i
    q: float = 0.0        # ||m||^2, Kahan-compensated
    q_comp: float = 0.0

    def matrix(self) -> np.ndarray:
        """Dense lower-triangular copy of the factor."""
        n = len(self.rows)
        out = np.zeros((n, n))
        for i, row in enumerate(self.rows):
            out[i, : i + 1] = row
        return out


class StreamingCholesky(NamedTuple):
    """Constant-memory mode: scalar summaries only."""

    q: float = 0.0
    q_comp: float = 0.0
    s: float = 0.0        # running inner product y . v


def stream_step(o, q, q_comp, s, m, v):
    """One streaming factor step, on floats or on arrays of lanes alike.

    ``o`` is the caller's op set, ``(q, q_comp, s)`` the streaming state,
    ``m`` the normalized spend and ``v`` the fresh seed.  Returns ``(U, q,
    q_comp, s)``: the noise value and the advanced state.  Q is
    Kahan-compensated and the new radicand 1 - Q is clamped at zero.
    Exhausted lanes (Q already 1) keep their Q and append the identity-block
    row (d = 1, y_last = 0): only (near-)zero spends can be admitted there,
    spends inside the clamp band are rounding debris from the filter slack,
    and anything larger is misuse.  They are handled only when one is
    present: the exhausted-lane select and that clause of the overflow
    guard run under ``o.any(exhausted)``, and only zero spends after
    exhaustion (or refused lanes stepping on spend 0 there) get that far.
    ``U`` is computed as ``d * v - m * s``, bitwise the ``-m * s + d * v``
    above, since negation is exact.
    """
    one_prev = 1.0 - q
    exhausted = one_prev <= 0.0
    msq = m * m
    total, comp = kahan_step(q, q_comp, msq)
    q_new, comp_new, rad_prev, rad_new = total, comp, one_prev, o.maximum(1.0 - total, 0.0)
    overshoot = total - 1.0 > CLAMP_BAND
    if o.any(exhausted):
        # Exhausted lanes keep Q and take a unit radicand pair, so d = 1.
        q_new, comp_new, rad_prev, rad_new = o.select(
            exhausted, (q, q_comp, 1.0, 1.0), (q_new, comp_new, rad_prev, rad_new))
        overshoot = (exhausted & (msq > CLAMP_BAND)) | (q_new - 1.0 > CLAMP_BAND)
    if o.any(overshoot):
        raise BudgetOverflowError(
            f"spend {m!r} takes ||m||^2 = {total!r} past the unit bound beyond tolerance"
        )
    # y_last = 0 where the true radicands' product is not positive (exhausted
    # lanes and lanes that just reached Q = 1): they divide by inf.
    prod = rad_new * one_prev
    y_last = m / o.sqrt(o.where(prod > 0.0, prod, math.inf))
    return o.sqrt(rad_new / rad_prev) * v - m * s, q_new, comp_new, s + y_last * v


def next_noise(state, m, fresh_seed):
    """Extend by ``m`` and return ``(U, new_state)`` where U is the last
    entry of L_i v_i.

    ``fresh_seed`` is this round's i.i.d. standard-normal seed V_i.  Dense
    mode appends the new row, the seed and one entry of y, Theta(i) work;
    streaming mode advances its three scalars and does Theta(1).
    """
    # Floats whose sum is finite are both finite; anything else (a finite
    # pair whose sum overflows included) takes ``check_real``.
    if (m.__class__ is not float or fresh_seed.__class__ is not float
            or not math.isfinite(m + fresh_seed)):
        m, fresh_seed = check_real("m", m), check_real("fresh_seed", fresh_seed)

    if isinstance(state, StreamingCholesky):
        u, q, q_comp, s = stream_step(FLOAT_OPS, *state, m, fresh_seed)
        return u, _record(StreamingCholesky, (q, q_comp, s))

    # The diagonal entry d_i is the coefficient of the fresh seed: the
    # streaming U at s = 0, V = 1.
    rows, solved, seeds, q_prev, comp_prev = state
    d, q, q_comp, _ = stream_step(FLOAT_OPS, q_prev, comp_prev, 0.0, m, 1.0)
    k = len(rows)
    row = np.empty(k + 1)
    head = row[:k]
    if q_prev < 1.0:    # solved holds one entry per row until exhaustion
        y = np.fromiter(solved, float, k)
        np.multiply(-m, y, out=head)
        if q < 1.0:     # one forward-substitution step of L y = m
            solved += ((m - float(head.dot(y))) / d,)
    else:               # after exhaustion the row is (0, ..., 0, 1)
        head.fill(0.0)
    row[k] = d
    u = float(head.dot(np.fromiter(seeds, float, k))) + d * fresh_seed
    return u, _record(DenseCholesky, (rows + (row,), solved, seeds + (fresh_seed,), q, q_comp))
