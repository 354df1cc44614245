"""Self-test of the benchmark runner at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at tiny sizes, and checks
that the last line of each run is the result object with exactly the
metrics and units that BENCHMARK.json names, that every check passed, and
that the runner refuses to run where there are no gdpsim sources.  Exits
with 1 if any of that fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected):
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return f"checks failed: {proc.stdout}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return f"metrics {got} != {expected}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check_result(run(ROOT, workload, trace), expected[trace])
            print(f"{workload} trace {trace}: {problem or 'ok'}", flush=True)
            if problem:
                problems.append(problem)

    same = (HERE / "configs" / "acceptance.cfg").read_bytes() == \
        (ROOT / "configs" / "acceptance.cfg").read_bytes()
    print("perfbench/configs/acceptance.cfg "
          + ("matches configs/acceptance.cfg" if same else "differs from configs/acceptance.cfg"
             " (the benchmark keeps its own copy)"))

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"without gdpsim sources: {'refused' if refused else 'NOT refused'}")
    if not refused:
        problems.append("ran without gdpsim sources")

    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
