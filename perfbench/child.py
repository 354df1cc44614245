"""One benchmark process: set up one workload, then time or trace its call.

Started by ``run.py`` in a fresh single-threaded interpreter.  It writes
JSON lines to stdout: ``{"event": "ready"}`` as soon as gdpsim is imported
and the workload's config is loaded and validated (the parent times set-up
up to that line), ``{"event": "speed", ...}`` with the machine's speed right
after it (see calibrate.py), then one ``{"event": "result", ...}`` line.
Every reported time is wall time scaled by the machine's speed measured
right after it.

Modes:
  setup  exit right after the speed line
  time   one untimed warm-up call, then timed calls for --seconds
  trace  alternate untraced and traced calls for --seconds, and report the
         per-layer metrics of the traced ones
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from spans import LAYERS, Tracer, install

ROOT = Path(__file__).resolve().parent.parent
# Set-up is interpreter start and imports, scaled by the interpreter kernel.
SETUP_MIX = {"python": 1}
_OUT = sys.stdout


def emit(obj):
    _OUT.write(json.dumps(obj) + "\n")
    _OUT.flush()


def import_gdpsim():
    import gdpsim
    import gdpsim.cli

    where = Path(gdpsim.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"gdpsim imported from {where}, not from {ROOT / 'src'}")
    return gdpsim


class Gate:
    """Counts the benchmark's own correctness checks and keeps the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


class Calls:
    """Per-call bookkeeping shared by the timed and traced loops."""

    def __init__(self, workload, gate, np):
        self.workload = workload
        self.gate = gate
        self.reference = {}   # input index -> signature of its first call
        self.decisions = {}   # input index -> decisions (or factor rows) per call
        self.np = np
        self.made = 0
        self.failed = 0
        self.checks = 0
        self.failed_checks = 0

    def record(self, out, label):
        self.made += 1
        self.checks += out.checks
        self.failed_checks += out.failed_checks
        ref = self.reference.setdefault(out.key, out.signature)
        self.decisions[out.key] = out.decisions
        ok = self.gate.check(f"{label} passes", out.ok, out.detail)
        ok &= self.gate.check(f"{label} repeats the first result of its input",
                              out.signature == ref, f"{out.signature} != {ref}")
        self.failed += not ok
        return out

    def timed(self, label, index, call=None):
        """Time one call on input ``index``, then the reference kernels;
        returns the wall time, the machine's speed right after it and the
        checked outcome."""
        gc.collect()
        t0 = perf_counter()
        result = (call or self.workload.call)(index)
        dt = perf_counter() - t0
        speed = calibrate.speed(calibrate.kernel_times(self.np), self.workload.speed_mix)
        return dt, speed, self.record(self.workload.outcome(result, index), label)


def layer_values(tracer, out, wall_s, speed):
    """Per-layer metrics of one traced call; times scaled like verdict_s."""
    self_s, busy, counts, maxima = tracer.self_s, tracer.busy_s, tracer.counts, tracer.maxima
    values = {f"{layer}_s": self_s[layer] for layer in LAYERS}
    sections, tests, retries = out.shape
    generated = counts["rng.draws_generated"]
    accounted = sum(self_s.values())
    values.update({
        "harness.sections": sections,
        "harness.tests_run": tests,
        "harness.retries": retries,
        "stats.ks_calls": counts["stats.ks_two_sample"],
        "stats.ks_values": counts["stats.ks_values"],
        "rng.draws_generated": generated,
        "rng.draws_used": counts["rng.draws_used"],
        "rng.draw_use_ratio": counts["rng.draws_used"] / generated if generated else 0.0,
        "rng.tableau_bytes": maxima["rng.tableau_bytes"],
        "batch.busy_s": busy["batch.run_trial_batch"],
        "batch.arms": counts["batch.arms"],
        "batch.result_bytes": maxima["batch.result_bytes"],
        "adversaries.calls": counts["adversaries.spends"] + counts["adversaries.next_spend"],
        "budget.calls": counts["budget.try_spend"],
        "budget.admitted": counts["budget.admitted"],
        "budget.refused": counts["budget.refused"],
        "cholesky.calls": counts["cholesky.next_noise"],
        "curator.sessions": counts["curator.run_interaction"],
        "mechanisms.arm_s": busy["mechanisms.arm"],
        "cli.report_bytes": out.report_bytes,
        "trace.verdict_s": wall_s,
        "trace.accounted_share": accounted / wall_s,
    })
    for key in values:
        if key.endswith("_s"):
            values[key] *= speed
    values["trace.speed_ratio"] = speed
    return values


def traced_loop(args, gdpsim, workload, calls, gate):
    root = "cli.main" if workload.kind == "run" else "harness.verify_cholesky"
    tracer = Tracer()

    def traced_call(index):
        frame = tracer.open(root)
        try:
            return workload.call(index)
        finally:
            tracer.close(frame)

    plain, traced, per_call = [], [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(traced) < 2:
        index = len(traced) % workload.inputs
        dt, speed, _ = calls.timed("untraced call", index)
        plain.append(dt * speed)
        if traced:
            tracer.begin_call()
        undo = install(tracer, gdpsim)
        try:
            dt, speed, out = calls.timed("traced call", index, traced_call)
        finally:
            undo()
        traced.append(dt * speed)
        if workload.kind == "run":
            gate.check("traced BatchResult decisions match the report",
                       tracer.counts["budget.admitted"] + tracer.counts["budget.refused"]
                       == out.decisions)
        per_call.append(layer_values(tracer, out, dt, speed))
    tracer.dump(Path(args.work) / "spans.jsonl")
    layers = {key: statistics.median(v[key] for v in per_call) for key in per_call[0]}
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"layers": layers, "traced_calls": len(traced), "untraced_calls": len(plain)}


def timed_loop(args, calls):
    times, speeds, decisions = [], [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(times) < 3:
        dt, speed, out = calls.timed("timed call", len(times) % calls.workload.inputs)
        times.append(dt)
        speeds.append(speed)
        decisions.append(out.decisions)
    return {"times": times, "speeds": speeds, "call_decisions": decisions,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for reports")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    gdpsim = import_gdpsim()
    workload = workloads.make(args.workload, Path(args.work), args.seed, args.tiny, gdpsim)
    emit({"event": "ready"})
    import numpy as np

    emit({"event": "speed", "speed": calibrate.speed(calibrate.kernel_times(np), SETUP_MIX)})
    if args.mode == "setup":
        return 0

    gate = Gate()
    calls = Calls(workload, gate, np)
    if workload.kind == "verify":
        warm, counted = workload.counted_call(0)
        gate.check("factor rows from the case generator match the counted rows",
                   workload.rows(0) == counted, f"{workload.rows(0)} != {counted}")
    else:
        warm = workload.call(0)
    warm = calls.record(workload.outcome(warm, 0), "warm-up call")

    if args.mode == "trace":
        result = traced_loop(args, gdpsim, workload, calls, gate)
    else:
        result = timed_loop(args, calls)
        if getattr(workload, "engine", None) == "scalar":
            vector = workload.outcome(workload.call(engine="vector"))
            calls.made += 1
            gate.check("vector engine gives the scalar checksum",
                       vector.signature == warm.signature,
                       f"{vector.signature} != {warm.signature}")

    result.update({
        "event": "result",
        "decisions": statistics.mean(calls.decisions.values()),
        "calls": calls.made,
        "failed_calls": calls.failed,
        "checks": calls.checks + gate.attempted,
        "failed_checks": calls.failed_checks + len(gate.failures),
        "gate_failures": gate.failures,
        "numpy": np.__version__,
        "blas": _blas_name(np),
    })
    emit(result)
    return 0


def _blas_name(np):
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
