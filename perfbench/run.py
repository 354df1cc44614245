"""gdpsim's benchmark: time-to-verdict, throughput and memory per workload.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Each run starts fresh single-threaded Python processes (perfbench/child.py)
that import gdpsim from ./src.  With ``--trace 0`` it times set-up in
several processes, then makes timed calls of the workload in three more
processes for ``--seconds`` in all and prints the end-to-end metrics.  Times are wall times
scaled to a reference machine speed measured next to each one (see
calibrate.py), because a shared machine's speed drifts more than the calls
vary.  With ``--trace 1`` it
alternates untraced and traced calls instead and prints the per-layer
metrics.  Every call is checked (see workloads.py and child.py); a failed
check sets ``correct`` to false and the exit code to 1.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``python3 perfbench/selftest.py`` checks this runner at tiny
sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
# Every process of a run is killed once the run has taken this long.
RUN_LIMIT_S = 170.0
# The timed calls are spread over this many processes, so that one process's
# luck (memory layout, a slow neighbour) moves the median less.
TIMING_PROCESSES = 3
# Every BLAS/OpenMP pool the child could start is pinned to one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = 1


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@contextmanager
def child(args, mode, work, seconds=0.0):
    """A child process that is killed and reaped however the block ends, and
    killed when the run reaches RUN_LIMIT_S."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--mode", mode, "--work", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, args.deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        yield proc
        proc.stdout.close()
        if proc.wait() != 0:
            raise BenchError(f"{mode} process exited with code {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def read_event(proc, expected):
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"process ended before its {expected!r} line")
    event = json.loads(line)
    if event.get("event") != expected:
        raise BenchError(f"expected {expected!r}, got {line.strip()!r}")
    return event


def measure(args, work):
    """Run the set-up samples and the measuring processes; returns (setups,
    result) with the results of several timing processes merged."""
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES + 1):
            t0 = perf_counter()
            with child(args, "setup", work) as proc:
                read_event(proc, "ready")
                dt = perf_counter() - t0
                speed = read_event(proc, "speed")["speed"]
                if i:  # the first fills the bytecode cache and is not counted
                    setups.append((dt, speed))
    mode, processes = ("trace", 1) if args.trace else ("time", TIMING_PROCESSES)
    results = []
    for _ in range(processes):
        t0 = perf_counter()
        with child(args, mode, work, args.seconds / processes) as proc:
            read_event(proc, "ready")
            dt = perf_counter() - t0
            setups.append((dt, read_event(proc, "speed")["speed"]))
            results.append(read_event(proc, "result"))
    return setups, merge(results)


def scaled(res):
    """Call times scaled by the machine's speed, each call's speed being the
    median of the five kernel timings around it in its process: that keeps
    the drift and drops most of the kernels' own noise."""
    speeds = res["speeds"]
    return [t * statistics.median(speeds[max(0, i - 2):i + 3])
            for i, t in enumerate(res["times"])]


def merge(results):
    merged = dict(results[0])
    if "times" in merged:
        merged["scaled"] = scaled(merged)
    for res in results[1:]:
        merged["scaled"] = merged["scaled"] + scaled(res)
        for key in ("times", "speeds", "call_decisions", "gate_failures"):
            merged[key] = merged[key] + res[key]
        for key in ("calls", "failed_calls", "checks", "failed_checks"):
            merged[key] += res[key]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"], res["peak_rss_mb"])
    merged["decisions"] = statistics.mean(res["decisions"] for res in results)
    return merged


def machine_record():
    def first(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "ram": first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "thread_pools": {var: str(THREADS) for var in THREAD_VARS},
    }


def tail(times):
    """Highest-percentile sample with ten samples above it (never below the
    median); returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - 11, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(setups, result):
    times = result["scaled"]
    verdict = statistics.median(times)
    tail_value, tail_pct = tail(times)
    notes = {
        "setup_s": f"median of {len(setups)} processes; wall median "
                   f"{statistics.median(t for t, _ in setups):.4g} s",
        "verdict_s": f"median of {len(times)} calls; p{tail_pct:.0f} {tail_value:.6g} s "
                     f"with {len(times) - round(tail_pct * len(times) / 100)} calls "
                     f"beyond it; wall median {statistics.median(result['times']):.4g} s "
                     f"at machine speed {statistics.median(result['speeds']):.3g}",
        "rounds_per_s": f"median of decisions / time per call; "
                        f"{result['decisions']:.6g} decisions per call",
        "peak_rss_mb": f"largest ru_maxrss of {TIMING_PROCESSES} timing processes",
        "check_pass_share": f"{result['checks'] - result['failed_checks']} of "
                            f"{result['checks']} checks passed",
    }
    metrics = {
        "setup_s": (statistics.median(t * s for t, s in setups), "s"),
        "verdict_s": (verdict, "s"),
        "rounds_per_s": (statistics.median(
            d / t for d, t in zip(result["call_decisions"], times)), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "check_pass_share": (1.0 - result["failed_checks"] / result["checks"], "share"),
    }
    return metrics, notes


_UNITS = {"_s": "s", "_bytes": "bytes", "_share": "share", "_ratio": "ratio"}


def per_layer(result):
    metrics = {}
    for name, value in result["layers"].items():
        unit = next((u for suffix, u in _UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    metrics["failed_check_share"] = (result["failed_checks"] / result["checks"], "share")
    notes = {"trace.overhead_s": f"median of {result['traced_calls']} traced calls minus "
                                 f"median of {result['untraced_calls']} untraced calls"}
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes, for checking the runner only")
    args = parser.parse_args(argv)
    args.deadline = perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "gdpsim" / "__init__.py").is_file():
        print(f"error: no gdpsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_record()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        setups, result = measure(args, work)
        spans = work / "spans.jsonl"
        if spans.exists():
            spans.replace(out_dir / f"spans-{args.workload}.jsonl")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine.update(numpy=result["numpy"], blas=result["blas"])
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}  closed loop, one caller")
    metrics, notes = per_layer(result) if args.trace else end_to_end(setups, result)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    for failure in result["gate_failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not result["gate_failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["calls"],
        "failed": max(result["failed_calls"], 0 if correct else 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
