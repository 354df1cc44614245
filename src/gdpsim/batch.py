"""Vectorized Monte-Carlo trial engine.

Runs n_trials independent curator interactions for one (kind, bit, policy)
arm, round-synchronously across numpy arrays with one lane per live trial:
a trial that stops leaves every per-lane array at once, so each round costs
only its live lanes.  Each round writes its spends, decisions and answers
straight into column r of the round-major result matrices, which start at
16 columns and double when full; never-written capacity is never touched.
The filter rule (``budget.admit``), the streaming factor step
(``cholesky.stream_step``) and the policy's ``spends`` kernel are the same
functions a scalar ``gdpsim.curator.Session`` runs on floats, so per-trial
behaviour is bitwise identical to a session fed the same draw row -- the
test suite asserts this.  The single-box equivalent of fanning trials out
across workers.

Randomness: one arm key is derived from (master seed, kind, policy id, bit).
Column j of the arm's tableau is ``generator(arm key, "col", j)
.standard_normal(n_trials)``, drawn when a trial's cursor first reaches it;
trial t consumes entry t of columns 0, 1, ... in order, so its draws do not
depend on n_trials.  Refused rounds consume nothing.  The vector engine
releases the columns below every live trial's cursor (refused trials
included, since they read theirs later) when the tableau would otherwise
grow, so a lockstep arm holds a few columns however long it runs.  Both
engines return round-major (order "F") results; a row sum's last bit depends
on memory order.

Both engines run registered policies only.  ``engine="scalar"`` replays
each trial through a real session and ``run_interaction``, drawing from its
tableau row and growing the tableau when the row runs out (it never
releases columns); it is the per-trial reference the vector engine is tested
against, and produces the same BatchResult.  It writes each finished trial
into its result matrices and drops the transcript.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._numeric import ARRAY_OPS
from .adversaries import make_policy
from .budget import admit, check_budget
from .cholesky import stream_step
from .curator import DEFAULT_MAX_ROUNDS, KINDS, Round, Session, Transcript, run_interaction
from .errors import NumericalIntegrityError
from .rng import derive_key, generator


def policy_stream_id(name: str, params: dict) -> str:
    """Canonical label mixed into an arm's stream key."""
    if not params:
        return name
    return name + ":" + json.dumps(params, sort_keys=True, separators=(",", ":"))


class DrawTableau:
    """Standard normals for one arm, column j drawn from its own stream on
    first use.  The columns still held, ``[base, width)``, are rows of a ring
    whose capacity is a power of two: column j is row ``j % capacity``.  The
    ring doubles only when the held window outgrows it.  ``release`` drops
    the columns below a floor; reading one of them raises rather than return
    a wrapped row.  Until the first release the ring never wraps, so column
    j is row j and ``row`` is a plain slice."""

    def __init__(self, key: int, n_trials: int):
        self._key = key
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
                self._grow(width - self._base)
            generator(self._key, "col", j).standard_normal(
                out=self._data[j & (len(self._data) - 1)])
            self._width = j + 1

    def _grow(self, need: int) -> None:
        cap = max(1, 2 * len(self._data))
        while cap < need:
            cap *= 2
        grown = np.empty((cap, self._n))
        held = np.arange(self._base, self._width)
        grown[held & (cap - 1)] = self._data[held & (len(self._data) - 1)]
        self._data = grown

    def release(self, floor: int) -> None:
        """Drop the drawn columns below ``floor``; no read may reach them."""
        self._base = max(self._base, min(floor, self._width))

    def take(self, rows: np.ndarray, cols: np.ndarray,
             live: np.ndarray | None = None) -> np.ndarray:
        """Gather one draw per (trial row, per-trial cursor).  ``live``, the
        cursors of every trial still running, lets a full ring release the
        columns below all of them instead of growing."""
        if rows.size == 0:
            return np.empty(0)
        top = int(cols.max()) + 1
        if live is not None and top - self._base > len(self._data):
            self.release(int(live.min()))
        self.ensure(top)
        if self._base:
            low = int(cols.min())
            if low < self._base:
                raise IndexError(f"tableau column {low} was released")
            cols = cols & (len(self._data) - 1)
        return self._data[cols, rows]

    def row(self, t: int, width: int) -> np.ndarray:
        if self._base:
            raise IndexError("tableau columns were released; rows are incomplete")
        self.ensure(width)
        return self._data[:width, t]


class _RowDraws:
    """Draw source of one scalar session: trial ``t``'s tableau row, in
    order, growing the tableau when the row runs out.  The row is read once
    into a list (and again after a growth), so each draw is a Python float."""

    def __init__(self, tableau: DrawTableau, t: int):
        self._tableau = tableau
        self._t = t
        self._row = tableau.row(t, tableau.width).tolist()
        self._taken = 0

    def standard_normal(self) -> float:
        if self._taken == len(self._row):
            self._tableau.ensure(self._taken + 1)
            self._row = self._tableau.row(self._t, self._tableau.width).tolist()
        v = self._row[self._taken]
        self._taken += 1
        return v


def make_vector_policy(name: str, params: dict):
    """The registered policy, whose ``spends`` kernel the vector engine
    calls on arrays of trial lanes."""
    return make_policy(name, **params)


# --- results ---------------------------------------------------------------

@dataclass
class BatchResult:
    """Per-trial transcripts of one arm, in rectangular NaN-padded form.

    decisions: int8 matrix, 1 = accepted, 0 = refused, -1 = round absent;
    a trial's refusal pattern is its row of ``decisions == 0``.
    """

    bit: int
    budget: float
    n_trials: int
    spends: np.ndarray
    decisions: np.ndarray
    answers: np.ndarray
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

    def summaries(self) -> np.ndarray:
        """Sum of accepted answers per trial (the built-in policy summary).
        Added one round at a time, with no trials x rounds temporary, in the
        order a row sum of the round-major matrices adds them."""
        total = np.zeros(self.n_trials)
        for r in range(self.answers.shape[1]):
            total += np.where(self.decisions[:, r] == 1, self.answers[:, r], 0.0)
        return total


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
    it to keep mechanism arms on streams disjoint from policy arms.
    """
    policy_params = dict(policy_params or {})
    if kind not in KINDS:
        raise ValueError(f"unknown session kind {kind!r}")
    if bit not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {bit!r}")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    label = stream_label or policy_stream_id(policy_name, policy_params)
    arm_key = derive_key(master_seed, kind, label, bit)
    tableau = DrawTableau(arm_key, n_trials)
    if engine not in ("vector", "scalar"):
        raise ValueError(f"unknown engine {engine!r}")
    mu0 = check_budget(budget)
    run = _run_vector if engine == "vector" else _run_scalar
    return BatchResult(bit, mu0, n_trials, *run(kind, bit, mu0, policy_name, policy_params,
                                                n_trials, max_rounds, tableau))


def _run_vector(kind, bit, mu0, policy_name, policy_params,
                n, max_rounds, tableau: DrawTableau):
    """All trials round-synchronously, on arrays of the live lanes only, in
    trial order (``lane`` names their trials).  Both engines return the
    BatchResult fields from ``spends`` on, in order."""
    vec = make_vector_policy(policy_name, policy_params)
    budget_sq = mu0 * mu0
    norm = mu0 if mu0 > 0.0 else 1.0
    lane = np.arange(n)
    cursor = np.zeros(n, dtype=np.int64)
    w0 = live_w0 = q = qc = s = None
    if kind == "simulated":
        w0 = live_w0 = bit * mu0 + tableau.take(lane, cursor)
        cursor += 1
        q, qc, s = np.zeros(n), np.zeros(n), np.zeros(n)
    spent, comp = np.zeros(n), np.zeros(n)
    last = prev = np.full(n, np.nan)
    lengths, draws = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    # Spends, decisions and answers; round r is column r, written whole.
    # They start at 16 columns, so short arms never regrow them.
    out = _result_matrices(n, min(max_rounds, 16))
    rounds = 0

    for r in range(max_rounds):
        rem = np.maximum(0.0, budget_sq - spent)
        sp, stop = vec.spends(ARRAY_OPS, r, rem, last, prev)
        if stop.any():   # stopped lanes leave every per-lane array at once
            gone, keep = lane[stop], ~stop
            lengths[gone], draws[gone] = r, cursor[stop]
            lane, cursor, spent, comp, last, sp, live_w0, q, qc, s = (
                None if a is None else a[keep]
                for a in (lane, cursor, spent, comp, last, sp, live_w0, q, qc, s))
            if lane.size == 0:
                break
        sp = np.asarray(sp, dtype=float)
        if not np.all(np.isfinite(sp) & (sp >= 0.0)):
            raise NumericalIntegrityError(
                f"policy {policy_name!r} emitted a malformed spend at round {r}")

        admitted, total, new_comp = admit(spent, comp, budget_sq, sp)
        moved = admitted & (sp != 0.0)
        np.copyto(spent, total, where=moved)
        np.copyto(comp, new_comp, where=moved)
        whole = admitted.all()
        acc = slice(None) if whole else np.flatnonzero(admitted)
        v = tableau.take(lane[acc], cursor[acc], cursor)
        cursor += admitted
        if live_w0 is None:
            ans = bit * sp[acc] + v
        else:
            m = sp[acc] / norm
            u, q[acc], qc[acc], s[acc] = stream_step(ARRAY_OPS, q[acc], qc[acc], s[acc], m, v)
            ans = m * live_w0[acc] + u
        if not whole:
            answers, ans = ans, np.full(lane.size, np.nan)
            ans[acc] = answers
        last, prev = ans if whole else np.where(admitted, ans, last), sp
        if r == out[0].shape[1]:
            _widen(out, min(max_rounds, 2 * r), filled=False)
        for mat, vals, fill in zip(out, (sp, admitted, ans), _FILLS):
            if lane.size == n:
                mat[:, r] = vals
            else:
                col = mat[:, r]
                col.fill(fill)
                col[lane] = vals
        rounds = r + 1

    if lane.size:   # the lanes still live ran every round
        lengths[lane], draws[lane] = rounds, cursor
        rem = np.maximum(0.0, budget_sq - spent)
        _, stop = vec.spends(ARRAY_OPS, max_rounds, rem, last, prev)
        truncated[lane[~stop]] = True
    return (*(mat[:, :rounds] for mat in out), lengths, truncated, draws, w0)


# Fill value and dtype of the spends, decisions and answers matrices.
_FILLS = (np.nan, -1, np.nan)
_DTYPES = (float, np.int8, float)


def _result_matrices(n, cap):
    """The unwritten n x cap spends, decisions and answers matrices
    (order "F")."""
    return [np.empty((n, cap), dtype=dtype, order="F") for dtype in _DTYPES]


def _widen(out, cap, filled):
    """Regrow each matrix of ``out`` to ``cap`` columns, one at a time, so
    only one old matrix is alive beside its copy.  New columns hold their
    fill values if ``filled``, else are left unwritten."""
    for i, fill in enumerate(_FILLS):
        old = out[i]
        out[i] = np.empty((old.shape[0], cap), dtype=old.dtype, order="F")
        out[i][:, :old.shape[1]] = old
        if filled:
            out[i][:, old.shape[1]:] = fill


def _run_scalar(kind, bit, mu0, policy_name, policy_params,
                n_trials, max_rounds, tableau: DrawTableau):
    """Reference engine: real sessions, one trial at a time, same draw rows.
    Each finished trial is written into the result matrices and dropped."""
    policy = make_policy(policy_name, **policy_params)
    out = _result_matrices(n_trials, 0)
    lengths, truncated, draws, w0s = [], [], [], []
    for t in range(n_trials):
        session = Session(kind, bit, mu0, _RowDraws(tableau, t))
        tr = run_interaction(session, policy, max_rounds=max_rounds)
        k = len(tr.rounds)
        if k > out[0].shape[1]:
            _widen(out, min(max_rounds, max(k, 2 * out[0].shape[1])), filled=True)
        if k:   # a refused round's None answer reads as NaN
            _, spend, accepted, answer = zip(*tr.rounds)
            out[0][t, :k], out[1][t, :k], out[2][t, :k] = spend, accepted, answer
        lengths.append(k)
        truncated.append(tr.truncated)
        draws.append(session.draws)
        w0s.append(session.w0)
    r_max = max(lengths)
    return (*(mat[:, :r_max] for mat in out), np.array(lengths, dtype=np.int64),
            np.array(truncated, dtype=bool), np.array(draws, dtype=np.int64),
            np.array(w0s, dtype=float) if kind == "simulated" else None)
