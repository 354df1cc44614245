"""Vectorized Monte-Carlo trial engine.

Runs n_trials independent curator interactions for one (kind, bit, policy)
arm, round-synchronously across numpy arrays with one lane per live trial:
a trial that stops leaves every per-lane array at once, so each round costs
only its live lanes.  A per-lane value that every live lane shares -- the
filter ledger, the spend, the decision, the factor's Q and its
compensation, the tableau cursor -- is held once, as a Python float, bool
or int.  The kernels' array op set runs the float form of each op whose
arguments are all shared, so such a value stays one and takes the scalar
engine's own float operations; NumPy broadcasting makes it a lane array
only when a kernel result depends on something that differs by lane (an
answer, a draw, ``W0``).  So in a lockstep arm the filter, the policy and
most of the factor step cost a few float operations per round, and only
the answers and draws cost a lane each.  A refused lane draws nothing,
steps the factor on spend 0 (admissible in any state) and keeps its state
through ``np.where``; a fully refused round runs no factor step.  Each
round writes its spends, decisions and answers into column r of the
round-major result matrices, and adds each accepted answer into its trial's
summary: into the output vector while every trial is live, then into a
per-lane running sum that leaves with its lane.  A policy that declares its
length gets matrices of that width once; others start at 16 columns and
double when full; never-written capacity is never touched.  While every
trial is live and shares a round's spend (or decision), that column is
written once into a row; the n-row matrix is made at the first column
that differs by trial or has a stopped trial, and an arm whose columns
never differ returns a read-only view of the row (trial stride 0).
The filter rule (``budget.admit``), the streaming factor step
(``cholesky.stream_step``) and the policy's ``spends`` kernel are the same
functions a scalar ``gdpsim.curator.Session`` runs on floats, so per-trial
behaviour is bitwise identical to a session fed the same draw row -- the
test suite asserts this.  The single-box equivalent of fanning trials out
across workers.

Randomness: one arm key is derived from (master seed, kind, policy id, bit).
Column j of the arm's tableau is ``n_trials`` standard normals from the
stream of (arm key, "col", j), drawn when a trial's cursor first reaches it
(``gdpsim.rng.streams``); trial t consumes entry t of columns 0, 1, ... in
order, so its draws do not depend on n_trials.  Refused rounds consume
nothing.  Each round in which some trial draws, the vector engine first
releases the columns below every live trial's cursor (refused trials
included, since they read theirs later), so a lockstep arm holds one column
however long it runs; a round admitted on every lane keeps their cursor one
shared integer.  Both engines return round-major (order "F") answers; a row
sum's last bit depends on memory order.

Both engines run registered policies only.  ``engine="scalar"`` replays
each trial through a real session, whose draw function reads its tableau
row and grows the tableau when the row runs out (it never releases
columns), and ``run_interaction``; it is the per-trial reference the vector
engine is tested against, and produces the same BatchResult.  It writes
each finished trial into its result matrices, adds its accepted answers
into its summary and drops the transcript.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._numeric import ARRAY_OPS, as_floats, check_int
from .adversaries import make_policy
from .budget import admit, check_budget, check_spend
from .cholesky import stream_step
from .curator import (DEFAULT_MAX_ROUNDS, Round, Session, Transcript, check_kind_bit,
                      run_interaction)
from .rng import check_seed, derive_key, streams


def policy_stream_id(name: str, params: dict) -> str:
    """Canonical label mixed into an arm's stream key: the name, then the
    parameters as the floats their maker reads (``as_floats``), so
    ``{"hi": 1}`` and ``{"hi": 1.0}`` key one stream."""
    if not params:
        return name
    values = {k: as_floats(k, v) for k, v in params.items()}
    return name + ":" + json.dumps(values, sort_keys=True, separators=(",", ":"))


class DrawTableau:
    """Standard normals for one arm, column j drawn on first use from the
    stream ``streams(key, "col")(j)``.  The columns still held,
    ``[base, width)``, are rows of a ring whose capacity is a power of two:
    column j is row ``j % capacity``.  The ring doubles only when the held
    window outgrows it.  ``release`` drops the columns below a floor;
    reading one of them raises rather than return a wrapped row.  ``take``
    only reads; the caller sets what the ring holds through
    ``release``, as the vector engine does each round it draws.  Until the
    first release the ring never wraps, so column j is row j and ``row`` is
    a plain slice."""

    def __init__(self, key: int, n_trials: int):
        self._column = streams(key, "col")
        self._n = n_trials
        self._base = 0
        self._width = 0
        self._data = np.empty((0, n_trials))

    @property
    def width(self) -> int:
        return self._width

    def ensure(self, width: int) -> None:
        while self._width < width:
            j = self._width
            if j - self._base == len(self._data):
                self._grow()
            self._column(j).standard_normal(
                out=self._data[j & (len(self._data) - 1)])
            self._width = j + 1

    def _grow(self) -> None:
        cap = max(1, 2 * len(self._data))
        grown = np.empty((cap, self._n))
        held = np.arange(self._base, self._width)
        grown[held & (cap - 1)] = self._data[held & (len(self._data) - 1)]
        self._data = grown

    def release(self, floor: int) -> None:
        """Drop the drawn columns below ``floor``; no read may reach them."""
        self._base = max(self._base, min(floor, self._width))

    def take(self, rows: np.ndarray, cols) -> np.ndarray:
        """Gather one draw per (trial row, per-trial cursor) for distinct,
        nonempty trial ``rows`` in increasing order.  An integer ``cols``
        (not an array) is a cursor every row shares: that column's ring row
        is read, as a read-only view of the ring when ``rows`` is every
        trial: read it before a later column reuses the ring row."""
        lanes = isinstance(cols, np.ndarray)
        self.ensure((int(cols.max()) if lanes else cols) + 1)
        if self._base:
            low = int(cols.min()) if lanes else cols
            if low < self._base:
                raise IndexError(f"tableau column {low} was released")
            cols = cols & (len(self._data) - 1)
        if lanes:
            return self._data[cols, rows]
        row = self._data[cols]
        if rows.size < self._n:
            return row[rows]
        row.flags.writeable = False
        return row

    def row(self, t: int, width: int) -> np.ndarray:
        if self._base:
            raise IndexError("tableau columns were released; rows are incomplete")
        self.ensure(width)
        return self._data[:width, t]


def _row_draws(tableau: DrawTableau, t: int) -> Iterator[float]:
    """Trial ``t``'s tableau row in order, as Python floats; past the
    tableau's width, each draw grows it by a column.  The row is one list
    read by ``chain``, so each draw from it is a C-level ``next``."""
    row = tableau.row(t, tableau.width).tolist()
    return chain(row, _grown_draws(tableau, t, len(row)))


def _grown_draws(tableau: DrawTableau, t: int, width: int) -> Iterator[float]:
    """Trial ``t``'s draws from column ``width`` on, each growing the
    tableau by a column."""
    while True:
        width += 1
        yield tableau.row(t, width)[-1].item()


def make_vector_policy(name: str, params: dict):
    """The registered policy, whose ``spends`` kernel the vector engine
    calls on lane arrays and the scalar engine on floats.  Both engines make
    each arm's policy here, so one wrapper of this name (perfbench's tracer)
    sees every arm's policy."""
    return make_policy(name, **params)


# --- results ---------------------------------------------------------------

@dataclass
class BatchResult:
    """Per-trial transcripts of one arm, in rectangular NaN-padded form.

    decisions: int8 matrix, 1 = accepted, 0 = refused, -1 = round absent;
    a trial's refusal pattern is its row of ``decisions == 0``.  Answers
    are an order "F" matrix; spends and decisions are one too, or (from the
    vector engine) a read-only view of one row that every trial shares.
    summaries: each trial's sum of accepted answers (the built-in policy
    summary), added in round order from +0.0 by the engine as rounds run.
    A sum that starts at +0.0 is never -0.0, so a round that adds +0.0
    (refused, or past the trial's last) would leave it bitwise as it is.
    """

    bit: int
    budget: float
    n_trials: int
    spends: np.ndarray
    decisions: np.ndarray
    answers: np.ndarray
    summaries: np.ndarray
    lengths: np.ndarray
    truncated: np.ndarray
    draws: np.ndarray
    w0: np.ndarray | None

    def transcripts(self) -> Iterator[Transcript]:
        """Each trial's Transcript in turn, built from its rows read once."""
        for t, (k, truncated) in enumerate(zip(self.lengths.tolist(),
                                               self.truncated.tolist())):
            rows = zip(self.spends[t, :k].tolist(), self.decisions[t, :k].tolist(),
                       self.answers[t, :k].tolist())
            rounds = [Round(i, spend, dec == 1, answer if dec == 1 else None)
                      for i, (spend, dec, answer) in enumerate(rows)]
            yield Transcript(self.budget, rounds, truncated)


def run_trial_batch(
    kind: str,
    bit: int,
    budget,
    policy_name: str,
    policy_params: dict | None = None,
    n_trials: int = 1,
    master_seed: int = 0,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    engine: str = "vector",
    stream_label: str | None = None,
) -> BatchResult:
    """Run one arm of n_trials interactions and collect the transcripts.

    ``stream_label`` overrides the policy id in the arm key; the harness uses
    it to keep mechanism arms on streams disjoint from policy arms.  A
    malformed policy spend raises ``ValueError`` on both engines, which may
    name different values when the spends differ by lane: the vector engine
    meets them round by round, the scalar engine trial by trial.  Checked
    before use: ``kind`` and ``bit`` by ``check_kind_bit``, ``n_trials``
    (>= 1) and ``max_rounds`` (>= 0) by ``check_int``, ``master_seed`` by
    ``gdpsim.rng.check_seed``, and ``engine``.
    """
    policy_params = dict(policy_params or {})
    bit = check_kind_bit(kind, bit)
    n_trials = check_int("n_trials", n_trials, 1)
    max_rounds = check_int("max_rounds", max_rounds, 0)
    master_seed = check_seed("master_seed", master_seed)
    if engine not in ("vector", "scalar"):
        raise ValueError(f"unknown engine {engine!r}")
    label = stream_label or policy_stream_id(policy_name, policy_params)
    arm_key = derive_key(master_seed, kind, label, bit)
    tableau = DrawTableau(arm_key, n_trials)
    mu0 = check_budget(budget)
    run = _run_vector if engine == "vector" else _run_scalar
    return BatchResult(bit, mu0, n_trials, *run(kind, bit, mu0, policy_name, policy_params,
                                                n_trials, max_rounds, tableau))


def _run_vector(kind, bit, mu0, policy_name, policy_params,
                n, max_rounds, tableau: DrawTableau):
    """All trials round-synchronously, on the live lanes only, in trial order
    (``lane`` names their trials).  Every other per-lane value starts as a
    Python float, bool or int that all lanes share, and the kernels'
    ``ARRAY_OPS`` keep it one while their inputs are shared; it becomes a
    lane array only once a kernel result depends on a per-lane input (an
    answer, a draw, ``W0`` or a lane-dependent spend).  A refused lane draws
    nothing, takes the factor step on spend 0 and keeps its state; a fully
    refused round runs no factor step.  The round cap is the loop's last
    turn.  Spends and decisions stay one row while every trial is live and
    their round's value is shared; answers are always a matrix.  Accepted
    answers are added into ``summaries`` while every trial is live, then
    into ``acc``, the live lanes' running sums, which a stopping lane writes
    out.  Both engines return the BatchResult fields from ``spends`` on, in
    order."""
    o = ARRAY_OPS
    vec = make_vector_policy(policy_name, policy_params)
    budget_sq = mu0 * mu0
    norm = mu0 if mu0 > 0.0 else 1.0
    lane = np.arange(n)
    cursor = 0
    w0 = live_w0 = q = qc = s = None
    if kind == "simulated":
        w0 = live_w0 = bit * mu0 + tableau.take(lane, cursor)
        cursor = 1
        q = qc = s = 0.0
    spent = comp = 0.0
    last = prev = math.nan
    lengths, draws = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    summaries = acc = np.zeros(n)
    # Spends, decisions and answers; round r is column r, written whole.
    # Spends and decisions start as one row that every trial shares.
    out = _result_matrices((1, 1, n), _first_width(vec, max_rounds))

    for r in range(max_rounds + 1):
        rem = o.maximum(0.0, budget_sq - spent)
        sp, stop = vec.spends(o, r, rem, last, prev)
        if r == max_rounds:   # the cap; lanes that would go on are truncated
            truncated[lane], stop = np.logical_not(stop), True
        if o.any(stop):   # stopped lanes leave every per-lane value at once
            if not (isinstance(stop, np.ndarray) and stop.ndim):   # every lane
                live = slice(None) if lane.size == n else lane
                lengths[live], draws[live], summaries[live] = r, cursor, acc
                break
            gone, keep = lane[stop], np.flatnonzero(~stop)
            lengths[gone], draws[gone], summaries[gone] = r, _at(cursor, stop), acc[stop]
            lane, cursor, spent, comp, last, sp, live_w0, q, qc, s, acc = (
                _at(a, keep)
                for a in (lane, cursor, spent, comp, last, sp, live_w0, q, qc, s, acc))
            if lane.size == 0:
                break
        if isinstance(sp, np.ndarray) and sp.ndim:
            sp = sp.astype(float, copy=False)
            if not ((sp >= 0.0).all() and sp.max() < math.inf):   # NaN fails >=
                for x in sp.tolist():   # raises as the scalar session does
                    check_spend(x)
        else:
            sp = check_spend(sp)

        admitted, total, new_comp = admit(spent, comp, budget_sq, sp)
        spent, comp = o.select(admitted & (sp != 0.0), (total, new_comp), (spent, comp))
        if isinstance(admitted, np.ndarray):
            whole = admitted.all()
            some = whole or admitted.any()
        else:
            whole = some = admitted
        if not some:   # nothing drawn, no factor step; every lane keeps ``last``
            ans = math.nan
        else:
            # no live trial reads below the lowest cursor
            tableau.release(int(cursor.min()) if isinstance(cursor, np.ndarray) else cursor)
            if whole:   # + 1 keeps a shared cursor shared
                v, m, cursor = tableau.take(lane, cursor), sp, cursor + 1
            else:   # refused lanes draw nothing and step on spend 0
                v = np.zeros(lane.size)
                v[admitted] = tableau.take(lane[admitted], _at(cursor, admitted))
                m, cursor = np.where(admitted, sp, 0.0), cursor + admitted
            if live_w0 is None:
                ans = bit * m + v
            else:
                m = m / norm
                u, *state = stream_step(o, q, qc, s, m, v)
                q, qc, s = state if whole else (
                    np.where(admitted, x, y) for x, y in zip(state, (q, qc, s)))
                ans = m * live_w0 + u
            if whole:
                last = ans
                acc += ans
            else:
                acc += np.where(admitted, ans, 0.0)
                ans = np.where(admitted, ans, np.nan)
                last = np.where(admitted, ans, last)
        prev = sp
        if r == out[0].shape[1]:
            _widen(out, min(max_rounds, 2 * r))
        for i, (vals, fill) in enumerate(zip((sp, admitted, ans), _FILLS)):
            mat = out[i]
            if mat.shape[0] < n:   # a row every trial has shared so far
                if lane.size == n and not isinstance(vals, np.ndarray):
                    mat[0, r] = vals
                    continue
                mat = out[i] = _spread(mat, n, r)
            if lane.size == n:
                mat[:, r] = vals
            else:
                col = mat[:, r]
                col.fill(fill)
                col[lane] = vals
    return (*(_trials(mat, n, r) for mat in out), summaries, lengths, truncated, draws, w0)


def _at(x, sel):
    """Lanes ``sel`` (a boolean lane mask or lane indices) of a per-lane
    value; a shared value (not an array) is every lane's, so it stays as
    it is."""
    return x[sel] if isinstance(x, np.ndarray) else x


# Fill value and dtype of the spends, decisions and answers matrices.
_FILLS = (np.nan, -1, np.nan)
_DTYPES = (float, np.int8, float)


def _result_matrices(rows, cap):
    """The unwritten spends, decisions and answers matrices (order "F"), of
    ``rows`` rows each and ``cap`` columns."""
    return [np.empty((k, cap), dtype=dtype, order="F") for k, dtype in zip(rows, _DTYPES)]


def _first_width(policy, max_rounds):
    """Columns the result matrices start with: the policy's declared length,
    which they never outgrow, or else 16, so short arms never regrow them."""
    return min(max_rounds, 16 if policy.length is None else policy.length)


def _spread(row, n, r):
    """An unwritten n-row matrix shaped like the shared ``row``, its first
    ``r`` columns filled by broadcasting ``row``'s."""
    mat = np.empty((n, row.shape[1]), dtype=row.dtype, order="F")
    mat[:, :r] = row[:, :r]
    return mat


def _trials(mat, n, r):
    """The first ``r`` columns of ``mat`` for all ``n`` trials.  If ``mat``
    is still a row every trial shares, that is a read-only view of the row
    with trial stride 0: what ``np.broadcast_to`` returns, made directly at
    about half its cost."""
    if mat.shape[0] == n:
        return mat[:, :r]
    view = np.ndarray((n, r), mat.dtype, mat, 0, (0, mat.strides[1]))
    view.flags.writeable = False
    return view


def _widen(out, cap):
    """Regrow each matrix of ``out`` to ``cap`` columns, one at a time, so
    only one old matrix is alive beside its copy.  New columns are left
    unwritten."""
    for i, old in enumerate(out):
        out[i] = np.empty((old.shape[0], cap), dtype=old.dtype, order="F")
        out[i][:, :old.shape[1]] = old


def _run_scalar(kind, bit, mu0, policy_name, policy_params,
                n_trials, max_rounds, tableau: DrawTableau):
    """Reference engine: real sessions, one trial at a time, same draw rows.
    Each finished trial is written into the result matrices and dropped;
    after the last, the cells past each trial's length are marked absent.
    Its summary adds the accepted answers one by one in round order, not
    by ``sum()``, which compensates float sums from Python 3.12 on."""
    policy = make_vector_policy(policy_name, policy_params)
    out = _result_matrices((n_trials,) * 3, _first_width(policy, max_rounds))
    summaries, lengths, truncated, draws, w0s = [], [], [], [], []
    for t in range(n_trials):
        session = Session(kind, bit, mu0, _row_draws(tableau, t).__next__)
        tr = run_interaction(session, policy, max_rounds=max_rounds)
        k = len(tr.rounds)
        if k > out[0].shape[1]:
            _widen(out, min(max_rounds, max(k, 2 * out[0].shape[1])))
        total = 0.0
        if k:   # a refused round's None answer reads as NaN
            _, spend, accepted, answer = zip(*tr.rounds)
            out[0][t, :k], out[1][t, :k], out[2][t, :k] = spend, accepted, answer
            for a in answer:
                if a is not None:
                    total += a
        summaries.append(total)
        lengths.append(k)
        truncated.append(tr.truncated)
        draws.append(session.draws)
        w0s.append(session.w0)
    lengths = np.array(lengths, dtype=np.int64)
    r_max = int(lengths.max())
    absent = np.arange(r_max) >= lengths[:, None]
    out = [mat[:, :r_max] for mat in out]
    for mat, fill in zip(out, _FILLS):
        mat[absent] = fill
    return (*out, np.array(summaries), lengths, np.array(truncated, dtype=bool),
            np.array(draws, dtype=np.int64),
            np.array(w0s, dtype=float) if kind == "simulated" else None)
