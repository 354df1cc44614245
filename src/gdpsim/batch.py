"""Vectorized Monte-Carlo trial engine.

Runs n_trials independent curator interactions for one (kind, bit, policy)
arm, round-synchronously across numpy arrays with one lane per trial.  The
filter rule (``budget.admit``), the streaming factor step
(``cholesky.stream_step``) and the policy's ``spends`` kernel are the same
functions a scalar ``gdpsim.curator.Session`` runs on floats, so per-trial
behaviour is bitwise identical to a session fed the same draw row -- the
test suite asserts this.  The single-box equivalent of fanning trials out
across workers.

Randomness: one arm key is derived from (master seed, kind, policy id, bit).
Column j of the arm's tableau is ``generator(arm key, "col", j)
.standard_normal(n_trials)``, drawn when a trial's cursor first reaches it;
trial t consumes entry t of columns 0, 1, ... in order, so its draws do not
depend on n_trials.  Refused rounds consume nothing.  Both engines return
round-major (order "F") results; a row sum's last bit depends on memory order.

Both engines run registered policies only.  ``engine="scalar"`` replays
each trial through a real session and ``run_interaction``, drawing from its
tableau row and growing the tableau when the row runs out; it is the
per-trial reference the vector engine is tested against, and produces the
same BatchResult.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
    first use and stored as row j of a (capacity x n_trials) array."""

    def __init__(self, key: int, n_trials: int):
        self._key = key
        self._n = n_trials
        self._width = 0
        self._data = np.empty((0, n_trials))

    @property
    def width(self) -> int:
        return self._width

    def ensure(self, width: int) -> None:
        while self._width < width:
            j = self._width
            if j == len(self._data):
                grown = np.empty((max(width, 2 * j), self._n))
                grown[:j] = self._data
                self._data = grown
            generator(self._key, "col", j).standard_normal(out=self._data[j])
            self._width = j + 1

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Gather one draw per (trial row, per-trial cursor)."""
        if rows.size == 0:
            return np.empty(0)
        self.ensure(int(cols.max()) + 1)
        return self._data[cols, rows]

    def row(self, t: int, width: int) -> np.ndarray:
        self.ensure(width)
        return self._data[:width, t]


class _RowDraws:
    """Draw source of one scalar session: trial ``t``'s tableau row, in
    order, growing the tableau when the row runs out."""

    def __init__(self, tableau: DrawTableau, t: int):
        self._tableau = tableau
        self._t = t
        self._row = tableau.row(t, tableau.width)
        self._taken = 0

    def standard_normal(self) -> float:
        if self._taken == self._row.size:
            self._tableau.ensure(self._taken + 1)
            self._row = self._tableau.row(self._t, self._tableau.width)
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

    decisions: int8 matrix, 1 = accepted, 0 = refused, -1 = round absent.
    """

    kind: str
    bit: int
    budget: float
    policy_name: str
    policy_params: dict
    n_trials: int
    spends: np.ndarray
    decisions: np.ndarray
    answers: np.ndarray
    lengths: np.ndarray
    truncated: np.ndarray
    draws: np.ndarray
    w0: np.ndarray | None

    def transcripts(self) -> list[Transcript]:
        out = []
        for t in range(self.n_trials):
            rounds = []
            for i in range(int(self.lengths[t])):
                accepted = self.decisions[t, i] == 1
                rounds.append(Round(
                    i,
                    float(self.spends[t, i]),
                    bool(accepted),
                    float(self.answers[t, i]) if accepted else None,
                ))
            out.append(Transcript(self.budget, rounds, bool(self.truncated[t])))
        return out

    def round_answers(self, r: int) -> np.ndarray:
        """Accepted answers at round r across trials."""
        col = self.answers[:, r]
        return col[self.decisions[:, r] == 1]

    def summaries(self) -> np.ndarray:
        """Sum of accepted answers per trial (the built-in policy summary)."""
        if self.answers.shape[1] == 0:
            return np.zeros(self.n_trials)
        vals = np.where(self.decisions == 1, self.answers, 0.0)
        return vals.sum(axis=1)

    def refusal_rows(self) -> np.ndarray:
        return self.decisions == 0


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
    return BatchResult(kind, bit, mu0, policy_name, policy_params, n_trials,
                       *run(kind, bit, mu0, policy_name, policy_params,
                            n_trials, max_rounds, tableau))


def _run_vector(kind, bit, mu0, policy_name, policy_params,
                n, max_rounds, tableau: DrawTableau):
    """All trials round-synchronously, one array lane per trial.  Both
    engines return the BatchResult fields from ``spends`` on, in order."""
    vec = make_vector_policy(policy_name, policy_params)
    budget_sq = mu0 * mu0
    norm = mu0 if mu0 > 0.0 else 1.0
    spent = np.zeros(n)
    comp = np.zeros(n)
    q = np.zeros(n)
    qc = np.zeros(n)
    s = np.zeros(n)
    cursor = np.zeros(n, dtype=np.int64)
    w0 = None
    if kind == "simulated":
        z0 = tableau.take(np.arange(n), cursor)
        cursor += 1
        w0 = bit * mu0 + z0
    last_accepted = np.full(n, np.nan)
    prev_spend = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    lengths = np.zeros(n, dtype=np.int64)
    truncated = np.zeros(n, dtype=bool)
    spend_cols, dec_cols, ans_cols = [], [], []

    for r in range(max_rounds):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        rem = np.maximum(0.0, budget_sq - spent[idx])
        sp, stop = vec.spends(r, rem, last_accepted[idx], prev_spend[idx])
        active[idx[stop]] = False
        cont = idx[~stop]
        if cont.size == 0:
            continue
        sp = np.asarray(sp[~stop], dtype=float)
        if not np.all(np.isfinite(sp) & (sp >= 0.0)):
            raise NumericalIntegrityError(
                f"policy {policy_name!r} emitted a malformed spend at round {r}"
            )

        admitted, total, new_comp = admit(spent[cont], comp[cont], budget_sq, sp)
        moved = admitted & (sp != 0.0)
        spent[cont[moved]] = total[moved]
        comp[cont[moved]] = new_comp[moved]
        acc_idx = cont[admitted]

        col_spend = np.full(n, np.nan)
        col_dec = np.full(n, -1, dtype=np.int8)
        col_ans = np.full(n, np.nan)
        col_spend[cont] = sp
        col_dec[cont] = 0
        col_dec[acc_idx] = 1

        if acc_idx.size:
            v = tableau.take(acc_idx, cursor[acc_idx])
            cursor[acc_idx] += 1
            if kind == "direct":
                answers = bit * sp[admitted] + v
            else:
                m = sp[admitted] / norm
                u, q[acc_idx], qc[acc_idx], s[acc_idx] = stream_step(
                    q[acc_idx], qc[acc_idx], s[acc_idx], m, v)
                answers = m * w0[acc_idx] + u
            col_ans[acc_idx] = answers
            last_accepted[acc_idx] = answers
        prev_spend[cont] = sp
        lengths[cont] = r + 1
        spend_cols.append(col_spend)
        dec_cols.append(col_dec)
        ans_cols.append(col_ans)

    idx = np.flatnonzero(active)
    if idx.size:
        rem = np.maximum(0.0, budget_sq - spent[idx])
        _, stop = vec.spends(max_rounds, rem, last_accepted[idx], prev_spend[idx])
        truncated[idx[~stop]] = True

    return (np.array(spend_cols, dtype=float).reshape(-1, n).T,
            np.array(dec_cols, dtype=np.int8).reshape(-1, n).T,
            np.array(ans_cols, dtype=float).reshape(-1, n).T,
            lengths, truncated, cursor.copy(), w0)


def _run_scalar(kind, bit, mu0, policy_name, policy_params,
                n_trials, max_rounds, tableau: DrawTableau):
    """Reference engine: real sessions, one trial at a time, same draw rows."""
    policy = make_policy(policy_name, **policy_params)
    transcripts = []
    w0s = np.empty(n_trials)
    draws = np.zeros(n_trials, dtype=np.int64)
    for t in range(n_trials):
        session = Session(kind, bit, mu0, _RowDraws(tableau, t))
        tr = run_interaction(session, policy, max_rounds=max_rounds)
        transcripts.append(tr)
        w0s[t] = session.w0 if session.w0 is not None else np.nan
        draws[t] = session.draws

    r_max = max((len(tr.rounds) for tr in transcripts), default=0)
    spends = np.full((n_trials, r_max), np.nan, order="F")
    decisions = np.full((n_trials, r_max), -1, dtype=np.int8, order="F")
    answers = np.full((n_trials, r_max), np.nan, order="F")
    lengths = np.zeros(n_trials, dtype=np.int64)
    truncated = np.zeros(n_trials, dtype=bool)
    for t, tr in enumerate(transcripts):
        lengths[t] = len(tr.rounds)
        truncated[t] = tr.truncated
        for rnd in tr.rounds:
            spends[t, rnd.index] = rnd.spend
            decisions[t, rnd.index] = 1 if rnd.accepted else 0
            if rnd.accepted:
                answers[t, rnd.index] = rnd.answer
    return (spends, decisions, answers, lengths, truncated, draws,
            w0s if kind == "simulated" else None)
