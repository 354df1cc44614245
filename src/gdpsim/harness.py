"""Experiment harness: configs, matched-batch runs, verification, reports.

An experiment config is one JSON file (human-readable key/value with
nesting; unknown keys are errors):

    {
      "budget": 1.0,                 // total privacy budget mu0 (required)
      "n_trials": 200000,            // trials per arm (required)
      "bits": [0, 1],                // secret bits to exercise
      "master_seed": 42,
      "max_rounds": 256,
      "alpha": 0.001,                // per-test significance level
      "min_test_samples": 10000,     // both arms need this many values per test
      "policies": [ {"name": "fixed", "spends": [0.6, 0.8]}, ... ],
      "mechanisms": [ {"name": "threshold", "mu": 1.0, "tau": 0.5}, ... ]
    }

For every (policy, bit), ``run_experiment`` runs n_trials direct and
n_trials simulated interactions on disjoint derived streams (policy arms and
mechanism arms are keyed separately; see gdpsim.rng for the splitting rule),
then evaluates per-round marginal KS tests, a KS test on each trial's sum of
accepted answers, moment and covariance bounds where round shapes are
uniform, and refusal-pattern checksums.  A (mechanism, bit) section compares
the arms' one-query outcomes by a two-proportion z-test (binary mechanisms)
or a KS test, and their refused counts.  Every test runs only when both
samples hold min_test_samples values (and two at the least), else it is
reported as "insufficient sample", keeping the asymptotic p-values honest.
Each check, a test or a bound, leaves one ``Check`` record where it runs.  A
section passes when all its records pass; a failing section is rerun once on
an independently derived seed before the failure stands.

A report is one line of compact canonical JSON (sorted keys, no whitespace,
no NaN).  The results are serialized once; the checksum is the SHA-256 of
that text, and the report file carries the same text as its ``results``
value, so a report verifies from its own bytes.  The checksum covers the
config echo and results only -- wall time, timestamps and versions live in
a separate metadata block -- so two runs with the same (config,
master_seed) are checksum-identical.  ``report_table`` renders the records
as a flat TSV, one row each: that table is the human-facing view.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields, replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from ._numeric import as_floats, check_int, is_int
from .adversaries import make_policy
from .batch import run_trial_batch, policy_stream_id
from .budget import check_budget, check_spend
from .cholesky import DenseCholesky, StreamingCholesky, next_noise
from .curator import DEFAULT_MAX_ROUNDS, KINDS, Round, Transcript, check_kind_bit
from .errors import ConfigError, NumericalIntegrityError
from .mechanisms import make_mechanism
from .rng import check_seed, derive_key, generator, streams
from .stats import (
    TestReport,
    empirical_moments,
    covariance_deviation,
    ks_two_sample,
    normality_check,
    two_proportion_z,
)

_REPORT_SCHEMA = "gdpsim.report.v4"

# Bit weights of eight rounds in a refusal key byte, first round highest.
_KEY_BITS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)

# Bound checks on moments, in units of 1/sqrt(n_trials).  ~6.4 sigma and up:
# effectively never false-failing, so they sit outside the alpha budget.
_MEAN_TOL_FACTOR = 6.7
_COV_TOL_FACTOR = 9.0

# verify_cholesky's bounds: |LL^T - (I - mm^T)| per entry, the streaming
# noise value against the dense one, and |L - oracle| per entry.
_FACTOR_TOL = 1e-10
_NOISE_TOL = 1e-9
_CANONICAL_TOL = 1e-8
# Oracle pivots in [-_PIVOT_NEGATIVE_TOL, _PIVOT_ZERO_TOL] are zero; below, not PSD.
_PIVOT_ZERO_TOL = 1e-12
_PIVOT_NEGATIVE_TOL = 1e-8


# --- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    budget: float
    n_trials: int
    bits: tuple = (0, 1)
    policies: tuple = ()      # ((name, params dict), ...)
    mechanisms: tuple = ()    # ((name, mu, params dict), ...)
    max_rounds: int = DEFAULT_MAX_ROUNDS
    master_seed: int = 0
    alpha: float = 0.001
    min_test_samples: int = 10000


# The config file's keys are ExperimentConfig's fields; those without a
# default are required.  Tuple defaults are JSON lists in a config file.
_DEFAULTS = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
             for f in fields(ExperimentConfig) if f.default is not MISSING}
_REQUIRED = [f.name for f in fields(ExperimentConfig) if f.name not in _DEFAULTS]


def _is_number(x) -> bool:
    """A finite JSON number: not a boolean, a string, NaN or infinity
    (Python's json reads ``NaN`` and ``Infinity``)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def with_seed(config: ExperimentConfig, master_seed: int) -> ExperimentConfig:
    """``config`` with another master seed, read by the config loader's
    rule (``rng.check_seed``): a bool, a float or a string is refused with
    a ``ConfigError``, not converted."""
    try:
        return replace(config, master_seed=check_seed("master_seed", master_seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(data: dict, source: str = "<dict>") -> ExperimentConfig:
    """Validate a raw config mapping; unknown keys are errors (fail closed)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: config root must be an object")
    unknown = set(data).difference(_DEFAULTS, _REQUIRED)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in data:
            raise ConfigError(f"{source}: missing required key {key!r}")
    data = {**_DEFAULTS, **data}

    def fail(field, msg):
        raise ConfigError(f"{source}: {field}: {msg}")

    if not _is_number(data["budget"]):
        fail("budget", f"must be a finite number, got {data['budget']!r}")
    try:
        budget = check_budget(data["budget"])
        n_trials = check_int("n_trials", data["n_trials"], 1)
        max_rounds = check_int("max_rounds", data["max_rounds"], 1)
        min_test_samples = check_int("min_test_samples", data["min_test_samples"], 2)
        master_seed = check_seed("master_seed", data["master_seed"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    bits = data["bits"]
    if (not isinstance(bits, list) or not bits
            or any(not is_int(b) or b not in (0, 1) for b in bits)
            or len(set(bits)) != len(bits)):
        fail("bits", f"must be a nonempty subset of [0, 1], got {bits!r}")
    alpha = data["alpha"]
    if not _is_number(alpha) or not 0.0 < alpha < 1.0:
        fail("alpha", f"must lie in (0, 1), got {alpha!r}")

    # ``head``: the keys an entry passes to its maker as positional
    # arguments (a mechanism's spend ``mu`` too); the rest are parameters.
    entries = {"policies": [], "mechanisms": []}
    seen = set()
    for key, make, head in (("policies", make_policy, ("name",)),
                            ("mechanisms", make_mechanism, ("name", "mu"))):
        if not isinstance(data[key], list):
            fail(key, f"must be a list, got {data[key]!r}")
        for i, entry in enumerate(data[key]):
            field = f"{key}[{i}]"
            if (not isinstance(entry, dict) or not isinstance(entry.get("name"), str)
                    or any(k not in entry for k in head)):
                fail(field, "must be an object with a string " + " and a ".join(map(repr, head)))
            # Parameters, and a mechanism's spend, are finite numbers or lists
            # of them, kept as the floats the maker reads: 1 and 1.0 are one value.
            values = {k: v for k, v in entry.items() if k != "name"}
            for k, value in values.items():
                items = value if isinstance(value, list) else [value]
                if not all(_is_number(v) for v in items):
                    fail(field, f"{k} must be a finite number or a list of them, got {value!r}")
                values[k] = as_floats(value)
            args = [values[k] for k in head[1:]]
            params = {k: v for k, v in values.items() if k not in head}
            try:
                make(entry["name"], *args, **params)
            except (TypeError, ValueError) as exc:
                fail(field, exc)
            unique = (key, policy_stream_id(entry["name"], values))
            if unique in seen:
                fail(field, "repeats an earlier entry (same stream label)")
            seen.add(unique)
            entries[key].append((entry["name"], *args, params))

    return ExperimentConfig(
        budget=budget,
        n_trials=n_trials,
        bits=tuple(map(int, bits)),
        policies=tuple(entries["policies"]),
        mechanisms=tuple(entries["mechanisms"]),
        max_rounds=max_rounds,
        master_seed=master_seed,
        alpha=float(alpha),
        min_test_samples=min_test_samples,
    )


def load_config(path) -> ExperimentConfig:
    """Load and validate a JSON config file, with line/field diagnostics."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data, source=str(path))


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    echo.update(
        bits=list(config.bits),
        policies=[{"name": n, "params": p} for n, p in config.policies],
        mechanisms=[{"name": n, "mu": mu, "params": p} for n, mu, p in config.mechanisms],
    )
    return echo


# --- evaluation of one (policy, bit) pair ----------------------------------

def _finite_or_none(x) -> float | None:
    x = float(x)
    return x if math.isfinite(x) else None


def _mean_var(x: np.ndarray) -> tuple[float | None, float | None]:
    """``x.mean()`` and ``x.var(ddof=1)``, each None where undefined or not
    finite, bitwise as NumPy computes them: its variance sums ``x`` for the
    mean, then sums the squares of ``x - mean`` made in one buffer.  Here
    the one sum serves both."""
    n = x.size
    if n == 0:
        return None, None
    mean = np.add.reduce(x) / n
    if n < 2:
        return _finite_or_none(mean), None
    dev = np.subtract(x, mean)
    np.multiply(dev, dev, out=dev)
    return _finite_or_none(mean), _finite_or_none(np.add.reduce(dev) / (n - 1))


class _Arm(NamedTuple):
    """One arm as evaluation reads it: its spends matrix is not kept."""

    bit: int
    answers: np.ndarray
    decisions: np.ndarray
    first_spends: np.ndarray   # row 0 of spends
    uniform: bool              # _uniform_shape of the whole result
    summaries: np.ndarray
    truncated: int
    draws_used: int            # draws the trials consumed
    draws_generated: int       # n_trials per tableau column either engine draws

    def round_answers(self, r: int) -> np.ndarray:
        """Accepted answers at round r across trials; none past the last
        round.  When every trial answered round r, this is the answers
        column itself, as a read-only view: callers read it and must not
        keep it past the moment check, which overwrites the answers.
        Otherwise the accepted entries are gathered into a new array."""
        if r >= self.answers.shape[1]:
            return np.empty(0)
        col = self.answers[:, r]
        if self.decisions.strides[0] == 0:   # one decision row every trial shares
            if self.decisions[0, r] != 1:
                return col[:0]
        else:
            accepted = self.decisions[:, r] == 1
            if not accepted.all():
                return col[accepted]
        col.flags.writeable = False
        return col


def _shrink(res) -> _Arm:
    return _Arm(res.bit, res.answers, res.decisions, res.spends[0].copy(),
                _uniform_shape(res), res.summaries, int(np.count_nonzero(res.truncated)),
                int(res.draws.sum()), res.n_trials * int(res.draws.max()))


def _uniform_shape(res) -> bool:
    """True when all trials share the same rounds, spends and decisions:
    trial 0's row has no absent round and no NaN spend (which would match no
    row), and each matrix is one row all trials read (trial stride 0) or
    equals trial 0's row everywhere.  Adaptive arms mostly fail on trial
    0's row and lockstep arms share their rows, so few compare whole."""
    dec, sp = res.decisions, res.spends
    if (dec[0] == -1).any() or (sp[0] != sp[0]).any():
        return False
    return not any((m != m[0]).any() for m in (dec, sp) if m.strides[0] != 0)


def _refusal_checksum(decisions: np.ndarray, width: int) -> tuple[str, int]:
    """SHA-256 of the multiset of one arm's refusal rows (``decisions == 0``),
    and the number of refused rounds in all rows.

    The hashed bytes are pinned by ``_REPORT_SCHEMA``: the sorted unique
    refusal patterns as 0/1 ``uint8`` rows zero-padded to ``width``, then
    their int64 counts, then ``str(width)``.  Changing any part changes
    every checksum and needs a schema bump.

    Each row is packed big-endian into a key of 64-bit words: a key byte
    is the product of ``_KEY_BITS`` with eight contiguous rounds of the
    transposed matrix (so no trials x rounds mask is made; ``np.packbits``
    along that axis measured 3 to 6 times slower at 200k trials).  One
    ``np.lexsort`` of the keys as unsigned words sorts the rows
    lexicographically.  A lane-shared matrix (trial stride 0) is one row,
    packed once and counted once per trial.  Keys are at least one word
    long, so at width 0 every row is one empty pattern.  The refused
    rounds are counted from the unique patterns and their counts.
    """
    n = decisions.shape[0]
    shared = n > 0 and decisions.strides[0] == 0
    rows = decisions[:1] if shared else decisions
    keys = np.zeros((rows.shape[0], 8 * max(1, -(-width // 64))), dtype=np.uint8)
    rounds = rows.T
    for b in range(0, rows.shape[1], 8):
        refused = (rounds[b:b + 8] == 0).view(np.uint8)
        keys[:, b // 8] = _KEY_BITS[:len(refused)] @ refused
    words = keys.view(">u8").astype(np.uint64)
    if shared:
        uniq, counts = words, np.array([n])
    else:
        words = words[np.lexsort(words.T[::-1])]
        new = np.any(words[1:] != words[:-1], axis=1)
        starts = np.flatnonzero(np.concatenate(([n > 0], new)))
        uniq, counts = words[starts], np.diff(np.append(starts, n))
    patterns = np.unpackbits(uniq.astype(">u8").view(np.uint8), axis=1, count=width)
    counts = counts.astype(np.int64)
    h = hashlib.sha256()
    h.update(patterns.tobytes())
    h.update(counts.tobytes())
    h.update(str(width).encode())
    return h.hexdigest(), int(counts @ patterns.sum(axis=1, dtype=np.int64))


class Check(NamedTuple):
    """One input to a verdict: where it sits (a round, "summary", "moments",
    "refusals", "refused", or None), the sample cells the table shows (up to
    n and mean, direct then simulated), the test's report if one ran, the
    status text and whether it passed."""

    where: object
    cells: tuple
    test: TestReport | None
    status: str
    passed: bool


def _check(where, passed: bool, status=None, cells=(), test=None) -> Check:
    """A record whose status text is ``status``, or pass/FAIL if None."""
    return Check(where, cells, test, status or ("pass" if passed else "FAIL"), passed)


def _test(checks, where, cells, sizes, min_samples, test, *args, name):
    """The sample rule: run ``test(*args, name=name)`` when each sample size
    is at least min_samples, and two at the least, and add its record to
    ``checks``.  Returns the report dict, or why it did not run."""
    if min(sizes) < max(2, min_samples):
        checks.append(_check(where, True, "insufficient sample", cells))
        return "insufficient sample"
    rep = test(*args, name=name)
    checks.append(_check(where, rep.passed, None, cells, rep))
    return rep.to_dict()


def _evaluate_pair(direct: _Arm, sim: _Arm, alpha: float, min_samples: int) -> tuple:
    """A policy section's results, and the records of its checks."""
    n = direct.answers.shape[0]
    r_max = max(direct.answers.shape[1], sim.answers.shape[1])
    checks = []

    per_round = []
    for r in range(r_max):
        xd, xs = direct.round_answers(r), sim.round_answers(r)
        (mean_d, var_d), (mean_s, var_s) = _mean_var(xd), _mean_var(xs)
        per_round.append({
            "round": r,
            "n_direct": int(xd.size),
            "n_simulated": int(xs.size),
            "mean_direct": mean_d,
            "mean_simulated": mean_s,
            "var_direct": var_d,
            "var_simulated": var_s,
            "ks": _test(checks, r, (xd.size, xs.size, mean_d, mean_s), (xd.size, xs.size),
                        min_samples, ks_two_sample, xd, xs, alpha, name=f"round_{r}_ks"),
        })
    summary = _test(checks, "summary", (), (direct.summaries.size, sim.summaries.size),
                    min_samples, ks_two_sample, direct.summaries, sim.summaries, alpha,
                    name="summary_ks")

    uniform = direct.uniform and sim.uniform \
        and direct.decisions.shape == sim.decisions.shape \
        and bool((direct.decisions[0] == sim.decisions[0]).all()) \
        and bool((direct.first_spends == sim.first_spends).all())
    if uniform and n >= 2:
        acc_cols = np.flatnonzero(direct.decisions[0] == 1)
        if acc_cols.size:
            mean_tol = _MEAN_TOL_FACTOR / math.sqrt(n)
            cov_tol = _COV_TOL_FACTOR / math.sqrt(n)
            targets = direct.bit * direct.first_spends[acc_cols]
            eye = np.eye(acc_cols.size)
            # the last reads of the answers: each is compacted and centred in place
            mean_d, cov_d = empirical_moments(direct.answers, acc_cols)
            mean_s, cov_s = empirical_moments(sim.answers, acc_cols)
            mean_dev = max(
                float(np.abs(mean_d - targets).max()),
                float(np.abs(mean_s - targets).max()),
            )
            moments = {
                "accepted_rounds": [int(c) for c in acc_cols],
                "mean_targets": [float(t) for t in targets],
                "mean_direct": [float(v) for v in mean_d],
                "mean_simulated": [float(v) for v in mean_s],
                "mean_tolerance": mean_tol,
                "mean_max_deviation": mean_dev,
                "mean_ok": mean_dev <= mean_tol,
                "cov_deviation_direct_vs_identity": covariance_deviation(cov_d, eye),
                "cov_deviation_simulated_vs_identity": covariance_deviation(cov_s, eye),
                "cov_deviation_between_arms": covariance_deviation(cov_d, cov_s),
                "cov_tolerance": cov_tol,
            }
            moments["cov_ok"] = (
                moments["cov_deviation_direct_vs_identity"] <= cov_tol
                and moments["cov_deviation_simulated_vs_identity"] <= cov_tol
            )
            checks.append(_check("moments", moments["mean_ok"] and moments["cov_ok"]))
        else:
            moments = "no accepted rounds"
    else:
        moments = "skipped (adaptive round shape)" if not uniform else "insufficient trials"
    if isinstance(moments, str):
        checks.append(_check("moments", True, moments))

    ck_d, refused_d = _refusal_checksum(direct.decisions, r_max)
    ck_s, refused_s = _refusal_checksum(sim.decisions, r_max)
    match = ck_d == ck_s
    refusals = {
        "checksum_direct": ck_d,
        "checksum_simulated": ck_s,
        "match": match,
        "refused_rounds_direct": refused_d,
        "refused_rounds_simulated": refused_s,
    }
    checks.append(_check("refusals", match, "match" if match else "MISMATCH"))

    return {
        "n_trials": n,
        "rounds": r_max,
        "per_round": per_round,
        "summary_ks": summary,
        "moments": moments,
        "refusals": refusals,
        "truncated_direct": direct.truncated,
        "truncated_simulated": sim.truncated,
        "draws_used_direct": direct.draws_used,
        "draws_used_simulated": sim.draws_used,
        "draws_generated_direct": direct.draws_generated,
        "draws_generated_simulated": sim.draws_generated,
        "tests_run": sum(c.test is not None for c in checks),
        "passed": all(c.passed for c in checks),
    }, checks


def _arm_pair(config, name, params, bit, seed, engine, stream_label=None):
    """Run a section's direct arm, then its simulated arm, each reduced by
    ``_shrink`` to what the section reads before the next runs."""
    return [_shrink(run_trial_batch(kind, bit, config.budget, name, params,
                                    config.n_trials, seed, config.max_rounds,
                                    engine, stream_label=stream_label))
            for kind in KINDS]


def _policy_section(config, name, params, bit, seed, engine) -> tuple:
    direct, sim = _arm_pair(config, name, params, bit, seed, engine)
    section, checks = _evaluate_pair(direct, sim, config.alpha, config.min_test_samples)
    return {"policy": name, "params": params, "bit": bit, **section}, checks


# --- mechanisms -------------------------------------------------------------

def _mechanism_section(config, name, mu, params, bit, seed, engine) -> tuple:
    mech = make_mechanism(name, mu, **params)
    label = "mechanism:" + policy_stream_id(name, {"mu": mu, **params})
    out_d, out_s = (mech.post(arm.round_answers(0)) for arm in _arm_pair(
        config, "fixed", {"spends": [mu]}, bit, seed, engine, stream_label=label))
    section = {"mechanism": name, "mu": mu, "params": params, "bit": bit,
               "n_trials": config.n_trials, "binary": mech.binary,
               "refused_direct": config.n_trials - out_d.size,
               "refused_simulated": config.n_trials - out_s.size}
    checks = []
    sizes = (out_d.size, out_s.size)
    if 0 in sizes:
        section["test"] = "all queries refused"
        checks.append(_check(0, True, section["test"], sizes))
    elif mech.binary:
        success = float(max(out_d.max(), out_s.max()))
        k_d = int(np.count_nonzero(out_d == success))
        k_s = int(np.count_nonzero(out_s == success))
        section["success_value"] = success
        section["freq_direct"] = k_d / out_d.size
        section["freq_simulated"] = k_s / out_s.size
        section["test"] = _test(
            checks, 0, (*sizes, section["freq_direct"], section["freq_simulated"]), sizes,
            config.min_test_samples, two_proportion_z, k_d, out_d.size, k_s, out_s.size,
            config.alpha, name=f"{name}_two_proportion")
    else:
        section["test"] = _test(checks, 0, sizes, sizes, config.min_test_samples,
                                ks_two_sample, out_d, out_s, config.alpha, name=f"{name}_ks")
    checks.append(_check("refused", out_d.size == out_s.size))
    section["passed"] = all(c.passed for c in checks)
    return section, checks


# --- experiment driver ------------------------------------------------------

@dataclass
class ExperimentReport:
    """One run's verdict.

    ``results_json`` is ``results`` serialized once in canonical form
    (sorted keys, no whitespace, no NaN) and ``checksum`` is the SHA-256 of
    those bytes.  ``to_json`` writes the same text back unchanged, so the
    ``results`` text of a report file is exactly what its ``checksum``
    hashes.  Both are fixed when the run ends: editing ``results`` afterwards
    changes neither.  ``python -m json.tool`` pretty-prints a report.

    ``checks`` lists every verdict input as ``(section label, name, bit,
    Check)`` in run order, retries (label ``policy_retry`` or
    ``mechanism_retry``) and the ``rng`` normality check included; it sits
    outside ``results``, and ``report_table`` renders it.  The benchmark's
    tracer (``perfbench/spans.py``) wraps ``to_json`` by name.
    """

    passed: bool
    results: dict
    metadata: dict
    checksum: str
    results_json: str
    checks: list

    def to_json(self) -> str:
        """The report as one line of canonical JSON: byte-equal to
        ``json.dumps({"checksum": ..., "metadata": ..., "results": ...},
        sort_keys=True, separators=(",", ":"), allow_nan=False)``, with
        ``results_json`` spliced in rather than encoded again."""
        return (f'{{"checksum":{json.dumps(self.checksum)},'
                f'"metadata":{_canonical_json(self.metadata)},'
                f'"results":{self.results_json}}}')


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run_experiment(config: ExperimentConfig, engine: str = "vector") -> ExperimentReport:
    """Run the matched direct/simulated batches for every configured policy,
    bit and mechanism, evaluate all tests, and assemble the report.  The
    run passes when every record of each section's last attempt passes, and
    the normality check does."""
    t0 = time.perf_counter()
    results = {
        "schema": _REPORT_SCHEMA,
        "config": _config_echo(config),
        "policies": [],
        "mechanisms": [],
    }
    retry_seed = derive_key(config.master_seed, "retry")
    checks, verdict = [], []   # every record; the records the verdict reads

    arms = [("policies", "policy", _policy_section, (name, params, bit))
            for name, params in config.policies for bit in config.bits]
    arms += [("mechanisms", "mechanism", _mechanism_section, (name, mu, params, bit))
             for name, mu, params in config.mechanisms for bit in config.bits]
    for key, label, run_section, args in arms:
        section, attempt = run_section(config, *args, config.master_seed, engine)
        checks += [(label, args[0], args[-1], c) for c in attempt]
        if not section["passed"]:
            retry, attempt = run_section(config, *args, retry_seed, engine)
            section["retry"] = retry
            section["passed_after_retry"] = retry["passed"]
            checks += [(label + "_retry", args[0], args[-1], c) for c in attempt]
        verdict += attempt
        results[key].append(section)

    normality = normality_check(
        generator(config.master_seed, "normality").standard_normal(100000), config.alpha)
    results["rng"] = {"normality": normality.to_dict()}
    verdict.append(_check(None, normality.passed, test=normality))
    checks.append(("rng", "normality", None, verdict[-1]))
    results["passed"] = passed = all(c.passed for c in verdict)

    from . import __version__   # the package root imports this module
    results_json = _canonical_json(results)
    checksum = hashlib.sha256(results_json.encode()).hexdigest()
    metadata = {
        "wall_time_seconds": time.perf_counter() - t0,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "engine": engine,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "gdpsim": __version__,
        },
    }
    return ExperimentReport(passed, results, metadata, checksum, results_json, checks)


def report_table(report: ExperimentReport) -> str:
    """Flat TSV rendering of a report's checks, for spreadsheet use: one
    row per record in ``report.checks``, every cell written by one
    formatter, then the ``overall`` verdict."""

    def fmt(x):
        return "" if x is None else f"{x:.6g}" if isinstance(x, float) else str(x)

    rows = [["section", "name", "bit", "round", "n_direct", "n_simulated",
             "mean_direct", "mean_simulated", "statistic", "p_value", "status"]]
    for label, name, bit, c in report.checks:
        test = (c.test.statistic, c.test.p_value) if c.test else (None, None)
        cells = (*c.cells, *[None] * (4 - len(c.cells)))
        rows.append([fmt(x) for x in (label, name, bit, c.where, *cells, *test)] + [c.status])
    rows.append(["overall"] + [""] * 9 + ["pass" if report.passed else "FAIL"])
    return "".join("\t".join(row) + "\n" for row in rows)


# --- factor verification ----------------------------------------------------

def canonical_cholesky_oracle(sigma) -> np.ndarray:
    """Canonical Cholesky factor of an explicit PSD matrix.

    Right-looking factorization; pivots within 1e-12 of zero produce an
    all-zero column, which is the canonical convention for rank-deficient
    input.  Independent of the incremental construction it is used to check.
    """
    a = np.asarray(sigma, dtype=float)
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        row = L[j, :j]
        d2 = a[j, j] - row @ row
        if d2 <= _PIVOT_ZERO_TOL:
            if d2 < -_PIVOT_NEGATIVE_TOL:
                raise NumericalIntegrityError(f"pivot {j} is negative: {d2}")
            continue
        pivot = L[j, j] = math.sqrt(d2)
        if j + 1 < n:
            col = L[j + 1:, j]
            np.subtract(a[j + 1:, j], L[j + 1:, :j] @ row, out=col)
            col /= pivot
    return L


def _exact_exhaustion_spends(rng, max_len: int) -> np.ndarray:
    # Decompose 1024 into perfect squares; spends j/32 then have exactly
    # representable squares j^2/1024 whose float sum hits 1.0 exactly.
    remaining = 1024
    parts = []
    while remaining > 0:
        jmax = math.isqrt(remaining)
        if len(parts) >= max_len - 8:
            j = jmax
        else:
            j = int(rng.integers(1, jmax + 1))
        parts.append(j)
        remaining -= j * j
    spends = np.array(parts, dtype=float) / 32.0
    rng.shuffle(spends)
    tail = int(rng.integers(0, min(4, max(1, max_len - len(parts)))))
    if tail:
        spends = np.concatenate([spends, np.zeros(tail)])
    return spends


def random_admissible_spends(rng, exhaust: bool, max_len: int = 64) -> np.ndarray:
    """One random normalized spend vector with ||m|| <= 1; ``exhaust`` forces
    an exactly unit norm (followed by a short zero tail)."""
    if exhaust:
        return _exact_exhaustion_spends(rng, max_len)
    n = int(rng.integers(1, max_len + 1))
    g = np.abs(rng.standard_normal(n)) + 1e-3
    u = float(rng.uniform(0.05, 0.99))
    return g * (math.sqrt(u) / float(np.linalg.norm(g)))


@dataclass(frozen=True)
class CholeskyVerification:
    cases: int
    exhaustion_cases: int
    max_factor_deviation: float
    max_streaming_deviation: float
    max_canonical_deviation: float
    canonical_failures: int
    passed: bool


def verify_cholesky(seed: int = 0, cases: int = 1000,
                    max_len: int = 64) -> CholeskyVerification:
    """Random-suite check of the incremental factor against an explicit-matrix
    oracle, and of the streaming noise recurrences against dense mode.

    Case 0 is pinned to the rank-deficient exhaustion (0.6, 0.8) and case 1
    to the empty vector; afterwards every tenth case exhausts the budget
    exactly, so a 1000-case run includes 100 boundary cases.  ``cases`` and
    ``max_len`` go through ``check_int`` (each an integer >= 1), ``seed``
    through ``rng.check_seed``.
    """
    cases = check_int("cases", cases, 1)
    max_len = check_int("max_len", max_len, 1)
    seed = check_seed("seed", seed)
    max_factor = 0.0
    max_stream = 0.0
    max_canon = 0.0
    canon_failures = 0
    exhaust_count = 0
    case_stream = streams(seed, "cholesky-verify")
    for case in range(cases):
        rng = case_stream(case)
        if case == 0:
            exhaust = True
            m = np.array([0.6, 0.8])
        elif case == 1:
            exhaust = False
            m = np.empty(0)
        else:
            exhaust = case % 10 == 0
            m = random_admissible_spends(rng, exhaust, max_len)
        exhaust_count += int(exhaust)
        seeds = rng.standard_normal(m.size)
        dense = DenseCholesky()
        stream = StreamingCholesky()
        for mi, vi in zip(m.tolist(), seeds.tolist()):
            u_dense, dense = next_noise(dense, mi, vi)
            u_stream, stream = next_noise(stream, mi, vi)
            max_stream = max(max_stream, abs(u_dense - u_stream))
        L = dense.matrix()
        sigma = np.eye(m.size) - np.outer(m, m)
        if m.size:
            max_factor = max(max_factor, float(abs(L @ L.T - sigma).max()))
            oracle = canonical_cholesky_oracle(sigma)
            max_canon = max(max_canon, float(abs(L - oracle).max()))
        diag_ok = bool((L.diagonal() >= 0.0).all())
        zero_cols = int((L == 0.0).all(axis=0).sum()) if m.size else 0
        expected_zero = 1 if (m.size and dense.q >= 1.0) else 0
        if not diag_ok or zero_cols != expected_zero:
            canon_failures += 1
    return CholeskyVerification(
        cases=cases,
        exhaustion_cases=exhaust_count,
        max_factor_deviation=max_factor,
        max_streaming_deviation=max_stream,
        max_canonical_deviation=max_canon,
        canonical_failures=canon_failures,
        passed=(max_factor <= _FACTOR_TOL and max_stream <= _NOISE_TOL
                and max_canon <= _CANONICAL_TOL and canon_failures == 0),
    )


# --- transcript serialization ------------------------------------------------

_TRANSCRIPT_COLUMNS = ["policy", "bit", "kind", "trial", "budget",
                       "round", "spend", "decision", "answer"]


def write_transcripts(path, records) -> None:
    """Write labeled transcripts as one CSV row per round.

    ``records`` yields (policy, bit, kind, trial, Transcript).  Refused
    rounds carry an empty answer field; a truncated transcript gains one
    trailing row with decision "truncated".  Interactions with no rounds
    produce no rows.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRANSCRIPT_COLUMNS)
        for policy, bit, kind, trial, tr in records:
            budget = repr(tr.budget)
            for rnd in tr.rounds:
                writer.writerow([
                    policy, bit, kind, trial, budget, rnd.index, repr(rnd.spend),
                    "accepted" if rnd.accepted else "refused",
                    "" if rnd.answer is None else repr(rnd.answer),
                ])
            if tr.truncated:
                writer.writerow([policy, bit, kind, trial, budget,
                                 len(tr.rounds), "", "truncated", ""])


def parse_transcripts(path) -> dict:
    """Inverse of write_transcripts: {(policy, bit, kind, trial): Transcript}.
    A row's bit, trial and round are integers spelled as write_transcripts
    spells them, so ``01``, ``+1``, ``1_0`` and `` 1 `` are refused and no
    two spellings name one transcript.  Its kind and bit go through
    ``check_kind_bit``, its trial through ``check_int`` (>= 0); it holds a
    valid budget and spend, and a finite answer if accepted.  A transcript's
    rows number its rounds 0, 1, ..., keep one budget and end at its
    truncation marker, if any; every error names its ``path:line``."""
    out: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRANSCRIPT_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != len(_TRANSCRIPT_COLUMNS):
                    raise ValueError(f"expected {len(_TRANSCRIPT_COLUMNS)} fields")
                policy, bit, kind, trial, budget, rnd, spend, decision, answer = row
                for field, text in (("bit", bit), ("trial", trial), ("round", rnd)):
                    if str(int(text)) != text:
                        raise ValueError(f"{field} must be a plain decimal integer, got {text!r}")
                bit = check_kind_bit(kind, int(bit))
                trial = check_int("trial", int(trial), 0)
                key = (policy, bit, kind, trial)
                budget = check_budget(budget)
                tr = out.get(key)
                if tr is None:
                    tr = out[key] = Transcript(budget=budget)
                if tr.truncated:
                    raise ValueError("row after the truncation marker")
                if budget != tr.budget:
                    raise ValueError("budget changes within a transcript")
                if int(rnd) != len(tr.rounds):
                    raise ValueError(f"round {rnd} where {len(tr.rounds)} is next")
                if decision == "truncated":
                    tr.truncated = True
                    continue
                if decision not in ("accepted", "refused"):
                    raise ValueError(f"unknown decision {decision!r}")
                accepted = decision == "accepted"
                if accepted == (answer == ""):
                    raise ValueError("answer presence contradicts decision")
                answer = float(answer) if accepted else None
                if accepted and not math.isfinite(answer):
                    raise ValueError(f"answer must be finite, got {answer!r}")
                tr.rounds.append(Round(len(tr.rounds), check_spend(spend), accepted, answer))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from exc
    return out


def emit_transcripts(config: ExperimentConfig, path, kinds=KINDS):
    """Run the configured arms and write every transcript to ``path``.

    Arms run one at a time as the writer asks for records, and each arm's
    transcripts are built one at a time from its result matrices.
    """

    def records():
        for name, params in config.policies:
            label = policy_stream_id(name, params)
            for bit in config.bits:
                for kind in kinds:
                    res = run_trial_batch(
                        kind, bit, config.budget, name, params,
                        config.n_trials, config.master_seed, config.max_rounds,
                    )
                    for t, tr in enumerate(res.transcripts()):
                        yield label, bit, kind, t, tr

    write_transcripts(path, records())
    return path
