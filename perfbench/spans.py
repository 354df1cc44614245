"""Span recorder and the wrappers that put gdpsim's layers under it.

Nothing here edits the package.  ``install`` swaps the module attributes
the program calls through (``gdpsim.harness.run_trial_batch``,
``gdpsim.curator.try_spend``, ...) for timing wrappers and returns a
function that puts the originals back.

Every wrapped call opens a frame on one stack.  When the frame closes, its
duration minus the time of the frames it caused is credited to its layer
as self time, so the layer self times of one verdict add up to the root
frame.  Coarse calls (runs, arms, hypothesis tests) are also kept as spans
(name, start, end, parent, arm, call id) until the tracer is dumped.
Per-trial calls of the scalar engine (about 190k ``try_spend`` calls per
1000 trials), and anything they call, are only counted and timed, not kept.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

# Frame name -> layer whose self time it is credited to.
LAYER_OF = {
    "cli.main": "cli.self",
    "cli.to_json": "cli.report_write",
    "cli.report_table": "cli.report_write",
    "cli.write": "cli.report_write",
    "harness.run_experiment": "harness.self",
    "harness.verify_cholesky": "verify.self",
    "stats.ks_two_sample": "stats.ks",
    "stats.empirical_moments": "stats.moments",
    "stats.normality_check": "stats.normality",
    "stats.two_proportion_z": "stats.other",
    "stats.covariance_deviation": "stats.other",
    "batch.run_trial_batch": "batch.self",
    "rng.ensure": "rng.tableau",
    "rng.take": "rng.tableau",
    "rng.row": "rng.tableau",
    "adversaries.spends": "adversaries.busy",
    "adversaries.next_spend": "adversaries.busy",
    "budget.try_spend": "budget.busy",
    "cholesky.next_noise": "cholesky.busy",
    "cholesky.oracle": "cholesky.oracle",
    "curator.run_interaction": "curator.self",
    "mechanisms.post": "mechanisms.post",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# Frames kept as spans; the others are only aggregated.
_KEPT = {
    "cli.main", "cli.to_json", "cli.report_table", "cli.write",
    "harness.run_experiment", "harness.verify_cholesky",
    "stats.ks_two_sample", "stats.empirical_moments", "stats.normality_check",
    "stats.two_proportion_z", "batch.run_trial_batch", "rng.ensure", "rng.take",
    "cholesky.oracle", "mechanisms.post",
}


class Tracer:
    """Frame stack, per-call totals and the list of kept spans."""

    def __init__(self):
        self.spans = []
        self._stack = []      # [name, start, child_time, span index or -1, arm]
        self._depth = defaultdict(int)   # open frames per name
        self.call_id = -1
        self.begin_call()

    def begin_call(self):
        """Start the totals of a new verdict; spans of earlier calls stay."""
        self.call_id += 1
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.batch = None     # per-arm context of the open run_trial_batch

    @property
    def arm(self):
        return self._stack[-1][4] if self._stack else None

    def open(self, name, arm=None):
        arm = arm if arm is not None else self.arm
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        if name in _KEPT and (parent >= 0 or not self._stack):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, arm, self.call_id])
        self._depth[name] += 1
        frame = [name, perf_counter(), 0.0, idx, arm]
        if idx >= 0:
            self.spans[idx][1] = frame[1]
        self._stack.append(frame)
        return frame

    def close(self, frame):
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name, start, child, idx, _ = frame
        dur = end - start
        self.self_s[LAYER_OF[name]] += dur - child
        self.counts[name] += 1
        self._depth[name] -= 1
        if not self._depth[name]:
            self.busy_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = end
        return dur

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, arm, call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "arm": arm, "call": call}) + "\n")


class _TimedFile:
    """File proxy that times writes and the close under ``cli.write``."""

    def __init__(self, tracer, fh):
        self._tracer = tracer
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        frame = self._tracer.open("cli.write")
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer.close(frame)

    def write(self, text):
        frame = self._tracer.open("cli.write")
        try:
            return self._fh.write(text)
        finally:
            self._tracer.close(frame)


def _result_bytes(res):
    arrays = (res.spends, res.decisions, res.answers, res.lengths,
              res.truncated, res.draws, res.w0)
    return sum(a.nbytes for a in arrays if a is not None)


def install(tracer, gdpsim):
    """Wrap the layer boundaries of an imported ``gdpsim``; returns an undo."""
    cli, harness, batch, curator = gdpsim.cli, gdpsim.harness, gdpsim.batch, gdpsim.curator
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    wrap(cli, "run_experiment", "harness.run_experiment")
    wrap(cli, "report_table", "cli.report_table")
    wrap(harness.ExperimentReport, "to_json", "cli.to_json")
    patch(cli, "open", lambda *a, **k: _TimedFile(tracer, open(*a, **k)))
    for attr in ("ks_two_sample", "empirical_moments", "normality_check",
                 "two_proportion_z", "covariance_deviation"):
        wrap(harness, attr, "stats." + attr)
    wrap(harness, "canonical_cholesky_oracle", "cholesky.oracle")
    wrap(harness, "next_noise", "cholesky.next_noise")
    wrap(curator, "next_noise", "cholesky.next_noise")
    wrap(curator, "try_spend", "budget.try_spend")
    wrap(batch, "run_interaction", "curator.run_interaction")
    wrap(batch.DrawTableau, "take", "rng.take")
    wrap(batch.DrawTableau, "row", "rng.row")

    orig_ks = harness.ks_two_sample

    def ks_two_sample(x, y, *args, **kwargs):
        tracer.counts["stats.ks_values"] += len(x) + len(y)
        return orig_ks(x, y, *args, **kwargs)
    patch(harness, "ks_two_sample", ks_two_sample)

    orig_ensure = batch.DrawTableau.ensure

    def ensure(self, width):
        before = self.width
        frame = tracer.open("rng.ensure")
        try:
            return orig_ensure(self, width)
        finally:
            tracer.close(frame)
            ctx = tracer.batch
            if ctx is not None and self.width > before:
                tracer.counts["rng.draws_generated"] += (self.width - before) * ctx["n"]
                ctx["width"] = self.width
    patch(batch.DrawTableau, "ensure", ensure)

    orig_make_vec = batch.make_vector_policy

    def make_vector_policy(name, params):
        vec = orig_make_vec(name, params)
        vec.spends = tracer.wrap("adversaries.spends", vec.spends)
        return vec
    patch(batch, "make_vector_policy", make_vector_policy)

    orig_make_policy = batch.make_policy

    def make_policy(name, **params):
        policy = orig_make_policy(name, **params)
        return replace(policy, next_spend=tracer.wrap("adversaries.next_spend",
                                                      policy.next_spend))
    patch(batch, "make_policy", make_policy)

    orig_make_mech = harness.make_mechanism

    def make_mechanism(name, mu, **params):
        mech = orig_make_mech(name, mu, **params)
        post = tracer.wrap("mechanisms.post", mech.post)
        vector_post = mech.vector_post
        if vector_post is not None:
            vector_post = tracer.wrap("mechanisms.post", vector_post)
        return replace(mech, post=post, vector_post=vector_post)
    patch(harness, "make_mechanism", make_mechanism)

    orig_batch = harness.run_trial_batch

    def run_trial_batch(kind, bit, budget, policy_name, policy_params=None,
                        n_trials=1, *args, stream_label=None, **kwargs):
        label = stream_label or batch.policy_stream_id(policy_name, dict(policy_params or {}))
        outer, tracer.batch = tracer.batch, {"n": n_trials, "width": 0}
        frame = tracer.open("batch.run_trial_batch", arm=f"{kind}/{label}/bit{bit}")
        try:
            res = orig_batch(kind, bit, budget, policy_name, policy_params,
                             n_trials, *args, stream_label=stream_label, **kwargs)
        finally:
            dur = tracer.close(frame)
            ctx, tracer.batch = tracer.batch, outer
        if label.startswith("mechanism:"):
            tracer.busy_s["mechanisms.arm"] += dur
        counts, maxima = tracer.counts, tracer.maxima
        counts["batch.arms"] += 1
        counts["rng.draws_used"] += int(res.draws.sum())
        counts["budget.admitted"] += int((res.decisions == 1).sum())
        counts["budget.refused"] += int((res.decisions == 0).sum())
        maxima["batch.result_bytes"] = max(maxima["batch.result_bytes"], _result_bytes(res))
        maxima["rng.tableau_bytes"] = max(maxima["rng.tableau_bytes"],
                                          ctx["width"] * ctx["n"] * 8)
        return res
    patch(harness, "run_trial_batch", run_trial_batch)

    def undo():
        for owner, attr, value in reversed(saved):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
    return undo


_MISSING = object()
