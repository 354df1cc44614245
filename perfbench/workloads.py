"""Workload definitions, the one call each workload times, and its checks.

A workload is a config under ``perfbench/configs`` plus the engine it runs
on, or a ``verify_cholesky`` case count.  The acceptance config is a
byte-for-byte copy of the repository's ``configs/acceptance.cfg`` taken when
the benchmark was defined.  The benchmark scales its ``n_trials`` (and
``min_test_samples`` in the same 1:20 ratio, so the same rounds are tested)
so that one run collects enough samples, and lowers ``alpha`` to 1e-4 as in
its own configs: at 1e-3, 15% of seeds rerun a section after a false
failure, which adds a tenth to that seed's time (long_interaction: 7% of
seeds, nine tenths) and swamped the run-to-run spread.  The tests, their
number and their cost do not depend on alpha.  The resulting config is
written to the run's work directory and loaded there with ``load_config``,
which validates it with ``config_from_dict``.

The calls of one run cycle through ``INPUTS`` program seeds derived from
the benchmark seed, ``INPUTS * seed + j``.  One program seed fixes a
workload's work: how long adaptive interactions run, how long
``verify_cholesky``'s spend vectors are (about 10% between seeds at 120
cases), and whether a section is rerun after a false test failure (which
doubles ``long_interaction``'s time).  Cycling makes a run's median cover
eight of them, so it does not hang on one.

Decision and check counts are read from the report the CLI writes, outside
the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
INPUTS = 8

# ``speed_mix`` weights the reference kernels of calibrate.py by what the
# workload spends its time on: large NumPy sorts and generation for the
# vector engine, the interpreter for the scalar engine, short-vector NumPy
# calls for the dense factor.
WORKLOADS = {
    "acceptance": {"config": "acceptance.cfg", "engine": "vector",
                   "overrides": {"n_trials": 2000, "min_test_samples": 100,
                                 "alpha": 0.0001},
                   "speed_mix": {"python": 1, "small": 1, "large": 2}},
    "long_interaction": {"config": "long_interaction.cfg", "engine": "vector",
                         "speed_mix": {"python": 1, "large": 3}},
    "scalar_reference": {"config": "scalar_reference.cfg", "engine": "scalar",
                         "speed_mix": {"python": 1, "small": 1}},
    "verify_cholesky": {"cases": 120, "speed_mix": {"small": 1, "large": 1}},
}

# Sizes for the self-test of the benchmark runner, which uses two inputs.
TINY_INPUTS = 2
TINY = {
    "acceptance": {"n_trials": 200, "min_test_samples": 10},
    "long_interaction": {"n_trials": 200, "min_test_samples": 10},
    "scalar_reference": {"n_trials": 30, "min_test_samples": 2},
    "verify_cholesky": {"cases": 12},
}

# Stated tolerances of verify_cholesky (its defaults, and its canonical-form
# bound), checked again here from the returned maxima.
FACTOR_TOL = 1e-10
NOISE_TOL = 1e-9
CANONICAL_TOL = 1e-8


class Outcome:
    """What one call produced, as far as the gate and the metrics need it."""

    def __init__(self, ok, signature, decisions, checks, failed_checks,
                 shape=(0, 0, 0), report_bytes=0, key=0, detail=""):
        self.ok = ok
        self.key = key
        self.signature = signature
        self.decisions = decisions
        self.checks = checks
        self.failed_checks = failed_checks
        self.shape = shape    # report_shape(); the report itself is not kept
        self.report_bytes = report_bytes
        self.detail = detail


def report_checks(results):
    """(attempted, failed) hypothesis tests and bound checks of a report,
    retry sections included."""
    attempted = failed = 0

    def count(passed):
        nonlocal attempted, failed
        attempted += 1
        failed += not passed

    def test(entry):
        if isinstance(entry, dict):
            count(entry["passed"])

    def policy(sec):
        for ent in sec["per_round"]:
            test(ent["ks"])
        test(sec["summary_ks"])
        if isinstance(sec["moments"], dict):
            count(sec["moments"]["mean_ok"])
            count(sec["moments"]["cov_ok"])
        count(sec["refusals"]["match"])
        if "retry" in sec:
            policy(sec["retry"])

    def mechanism(sec):
        test(sec["test"])
        count(sec["refused_direct"] == sec["refused_simulated"])
        if "retry" in sec:
            mechanism(sec["retry"])

    for sec in results["policies"]:
        policy(sec)
    for sec in results["mechanisms"]:
        mechanism(sec)
    test(results["rng"]["normality"])
    return attempted, failed


def report_decisions(results):
    """Admitted plus refused spends over every arm, both kinds and retries."""
    total = 0
    stack = list(results["policies"])
    while stack:
        sec = stack.pop()
        total += sum(e["n_direct"] + e["n_simulated"] for e in sec["per_round"])
        total += sec["refusals"]["refused_rounds_direct"]
        total += sec["refusals"]["refused_rounds_simulated"]
        if "retry" in sec:
            stack.append(sec["retry"])
    stack = list(results["mechanisms"])
    while stack:
        sec = stack.pop()
        total += 2 * sec["n_trials"]
        if "retry" in sec:
            stack.append(sec["retry"])
    return total


def report_shape(results):
    """Sections, hypothesis tests run and retries of a report."""
    sections = tests = retries = 0
    for key in ("policies", "mechanisms"):
        stack = list(results[key])
        while stack:
            sec = stack.pop()
            sections += 1
            tests += sum(isinstance(e["ks"], dict) for e in sec.get("per_round", ()))
            tests += isinstance(sec.get("summary_ks"), dict)
            tests += isinstance(sec.get("test"), dict)
            if "retry" in sec:
                retries += 1
                stack.append(sec["retry"])
    tests += isinstance(results["rng"].get("normality"), dict)
    return sections, tests, retries


class RunWorkload:
    """``gdpsim run`` on one config; the timed call is ``gdpsim.cli.main``."""

    kind = "run"

    def __init__(self, name, spec, work, seed, tiny, gdpsim):
        self.speed_mix = spec["speed_mix"]
        self.engine = spec["engine"]
        self.seed = seed
        self.inputs = TINY_INPUTS if tiny else INPUTS
        self.cli = gdpsim.cli
        source = CONFIG_DIR / spec["config"]
        data = json.loads(source.read_text())
        data.update(spec.get("overrides", {}))
        if tiny:
            data.update(TINY[name])
        self.config = work / f"{name}.cfg"
        self.config.write_text(json.dumps(data, indent=2) + "\n")
        gdpsim.harness.load_config(self.config)   # validates via config_from_dict
        self.out = work / f"{name}-report.json"

    def call(self, index=0, engine=None):
        argv = ["run", "--config", str(self.config),
                "--seed", str(INPUTS * self.seed + index),
                "--out", str(self.out), "--engine", engine or self.engine]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def outcome(self, result, index=0):
        rc, printed = result
        try:
            report = json.loads(self.out.read_text())
        except (OSError, ValueError) as exc:
            return Outcome(False, None, 0, 1, 1, detail=f"no report: {exc}")
        results = report["results"]
        checks, failed = report_checks(results)
        lines = printed.splitlines()
        ok = (rc == 0 and report["results"]["passed"] and lines[-1:] == ["PASS"]
              and f"checksum: {report['checksum']}" in lines)
        size = self.out.stat().st_size + Path(str(self.out) + ".tsv").stat().st_size
        return Outcome(ok, report["checksum"], report_decisions(results), checks,
                       failed, shape=report_shape(results), report_bytes=size, key=index,
                       detail=f"exit {rc}, last line {lines[-1:]}")


class VerifyWorkload:
    """``verify_cholesky`` over its random suite."""

    kind = "verify"

    def __init__(self, name, spec, work, seed, tiny, gdpsim):
        self.speed_mix = spec["speed_mix"]
        self.seed = seed
        self.cases = (TINY[name] if tiny else spec)["cases"]
        self.inputs = TINY_INPUTS if tiny else INPUTS
        self.gdpsim = gdpsim
        self._rows = {}

    def suite_seed(self, index):
        return INPUTS * self.seed + index

    def call(self, index=0):
        return self.gdpsim.harness.verify_cholesky(seed=self.suite_seed(index),
                                                   cases=self.cases)

    def outcome(self, rep, index=0):
        within = {
            "factor": rep.max_factor_deviation <= FACTOR_TOL,
            "streaming": rep.max_streaming_deviation <= NOISE_TOL,
            "canonical": rep.max_canonical_deviation <= CANONICAL_TOL,
        }
        failed = rep.canonical_failures + sum(not ok for ok in within.values())
        ok = rep.passed and all(within.values()) and rep.canonical_failures == 0
        signature = repr((rep.cases, rep.exhaustion_cases, rep.max_factor_deviation,
                          rep.max_streaming_deviation, rep.max_canonical_deviation,
                          rep.canonical_failures))
        return Outcome(ok, signature, self.rows(index), rep.cases + len(within), failed,
                       key=index, detail=f"within tolerances: {within}")

    def counted_call(self, index=0):
        """One call that also counts the factor rows it grows (next_noise
        calls on a dense state); returns (report, rows)."""
        harness = self.gdpsim.harness
        orig = harness.next_noise
        rows = 0

        def counting(state, *args, **kwargs):
            nonlocal rows
            rows += isinstance(state, self.gdpsim.cholesky.DenseCholesky)
            return orig(state, *args, **kwargs)

        harness.next_noise = counting
        try:
            rep = self.call(index)
        finally:
            harness.next_noise = orig
        return rep, rows

    def rows(self, index):
        """Factor rows one call grows, from the suite's own case generator
        (case 0 is (0.6, 0.8), case 1 empty, every tenth exhausts); the
        child checks it against ``counted_call`` on one input."""
        if index not in self._rows:
            harness = self.gdpsim.harness
            rows = 2
            for case in range(2, self.cases):
                rng = harness.generator(self.suite_seed(index), "cholesky-verify", case)
                rows += harness.random_admissible_spends(rng, case % 10 == 0).size
            self._rows[index] = rows
        return self._rows[index]


def make(name, work, seed, tiny, gdpsim):
    spec = WORKLOADS[name]
    cls = VerifyWorkload if "cases" in spec else RunWorkload
    return cls(name, spec, work, seed, tiny, gdpsim)
