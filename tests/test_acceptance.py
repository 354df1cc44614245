"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run pytest with -s to see them).  Criteria 4, 5 and 8 drive the CLI on
configs/acceptance.cfg at seed 42; the expensive report is produced once and
shared.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gdpsim.batch import run_trial_batch
from gdpsim.budget import REL_SLACK, filter_new, try_spend
from gdpsim.curator import Session
from gdpsim.harness import _REPORT_SCHEMA, verify_cholesky
from gdpsim.rng import generator

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "acceptance.cfg"

# Checksum of the seed-42 report on configs/acceptance.cfg.  A change that
# moves a byte of it must bump the report schema and add its checksum here.
ACCEPTANCE_CHECKSUM = {
    "gdpsim.report.v2": "4bf8cd60c7bd952bab4ca380de34a0ad1d54dc68ca7a07a691786e7d556e9b27",
    "gdpsim.report.v3": "5d98dedd4b2f00e6bc6e1bf912739457926216c5460b6e10b4e9ba2294dcff6d",
    "gdpsim.report.v4": "4f1c1cc42eb2a205fb2f51fdb2ef16fa592e74786129ae49ba9b49b1346adb58",
}

P_LO = 0.3085375387259869  # 1 - Phi(0.5), from the normal CDF oracle
P_HI = 0.6914624612740131


def announce(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def run_cli(out_path):
    # The pytest filterwarnings rule does not reach the subprocess.
    cmd = [sys.executable, "-W", "error", "-m", "gdpsim", "run",
           "--config", str(CONFIG), "--seed", "42", "--out", str(out_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(Path(out_path).read_text()), elapsed


@pytest.fixture(scope="module")
def cholesky_suite():
    t0 = time.perf_counter()
    rep = verify_cholesky(seed=20240817, cases=1000, max_len=64)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def acceptance_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "report1.json"
    return run_cli(out)


def effective(section):
    """The arm that stands after the documented one-retry discipline."""
    return section.get("retry", section)


def test_criterion_1_factor_correctness(cholesky_suite):
    rep, elapsed = cholesky_suite
    ok = (rep.cases == 1000
          and rep.exhaustion_cases >= 50
          and rep.max_factor_deviation <= 1e-10
          and rep.max_canonical_deviation <= 1e-8
          and rep.canonical_failures == 0
          and elapsed <= 10.0)
    announce("criterion 1: cholesky factor correctness", ok,
             f"max dev {rep.max_factor_deviation:.2e}, "
             f"max |L - oracle| {rep.max_canonical_deviation:.2e}, "
             f"{rep.exhaustion_cases} exhaustion cases, {elapsed:.1f}s")


def test_criterion_2_streaming_dense_agreement(cholesky_suite):
    rep, elapsed = cholesky_suite
    ok = rep.max_streaming_deviation <= 1e-9 and elapsed <= 10.0
    announce("criterion 2: streaming/dense agreement", ok,
             f"max dev {rep.max_streaming_deviation:.2e}, {elapsed:.1f}s")


def test_criterion_3_simulator_law_nonadaptive():
    n = 200000
    spends = [0.6, 0.8]
    t0 = time.perf_counter()
    worst_mean, worst_cov = 0.0, 0.0
    for b in (0, 1):
        res = run_trial_batch("simulated", b, 1.0, "fixed", {"spends": spends},
                              n, master_seed=42)
        for r, mu in enumerate(spends):
            worst_mean = max(worst_mean, abs(res.answers[:, r].mean() - b * mu))
        cov = np.cov(res.answers, rowvar=False, ddof=1)
        worst_cov = max(worst_cov, float(np.max(np.abs(cov - np.eye(2)))))
    elapsed = time.perf_counter() - t0
    ok = worst_mean <= 0.015 and worst_cov <= 0.02 and elapsed <= 60.0
    announce("criterion 3: simulator law (nonadaptive)", ok,
             f"mean dev {worst_mean:.4f} <= 0.015, cov dev {worst_cov:.4f} <= 0.02, "
             f"{elapsed:.1f}s")


def test_criterion_4_transcript_equivalence(acceptance_run):
    report, elapsed = acceptance_run
    results = report["results"]
    assert {s["policy"] for s in results["policies"]} == {
        "fixed", "sign_adaptive", "greedy_halving", "overspend_prober"}
    worst_p = 1.0
    ks_count = 0
    retried = []
    for section in results["policies"]:
        if "retry" in section:
            retried.append(f"{section['policy']}/b={section['bit']}")
        arm = effective(section)
        assert arm["passed"], (section["policy"], section["bit"])
        for entry in arm["per_round"]:
            if isinstance(entry["ks"], dict):
                assert entry["ks"]["p_value"] > 0.001, (section["policy"], entry)
                worst_p = min(worst_p, entry["ks"]["p_value"])
                ks_count += 1
        assert isinstance(arm["summary_ks"], dict)
        assert arm["summary_ks"]["p_value"] > 0.001
        worst_p = min(worst_p, arm["summary_ks"]["p_value"])
        assert arm["refusals"]["match"]
    ok = elapsed <= 300.0
    announce("criterion 4: transcript equivalence (fully adaptive)", ok,
             f"{ks_count} per-round KS tests, worst p {worst_p:.4f}, "
             f"retries: {retried or 'none'}, {elapsed:.0f}s <= 300s")


def test_criterion_5_claim1_mechanisms(acceptance_run):
    report, _ = acceptance_run
    sections = [s for s in report["results"]["mechanisms"]
                if s["mechanism"] == "threshold"]
    assert len(sections) == 2
    worst = 0.0
    for section in sections:
        arm = effective(section)
        target = P_HI if section["bit"] == 1 else P_LO
        for key in ("freq_direct", "freq_simulated"):
            dev = abs(arm[key] - target)
            worst = max(worst, dev)
            assert dev <= 0.006, (section["bit"], key, arm[key], target)
        assert arm["test"]["p_value"] > 0.001
    announce("criterion 5: threshold mechanism frequencies", True,
             f"worst |freq - target| {worst:.4f} <= 0.006")


def test_criterion_6_edge_determinism():
    # single full-budget query returns W0 bitwise
    for seed in range(50):
        session = Session("simulated", 1, 1.0, generator(seed).standard_normal)
        answer = session.ask(1.0)
        assert answer is not None and answer.hex() == session.w0.hex()
    # zero spends after exhaustion: accepted, standard normal, uncorrelated
    # with W0
    n = 200000
    res = run_trial_batch("simulated", 1, 1.0, "fixed",
                          {"spends": [1.0, 0.0, 0.0]}, n, master_seed=606)
    assert np.all(res.decisions == 1)
    w0 = res.answers[:, 0]
    worst_rho = 0.0
    for r in (1, 2):
        col = res.answers[:, r]
        rho = float(np.corrcoef(w0, col)[0, 1])
        worst_rho = max(worst_rho, abs(rho))
        assert abs(col.mean()) < 4.0 / math.sqrt(n)
        assert abs(col.var(ddof=1) - 1.0) < 5.0 / math.sqrt(n)
    ok = worst_rho <= 0.01
    announce("criterion 6: edge determinism", ok,
             f"50 bitwise W0 passthroughs, |rho| {worst_rho:.5f} <= 0.01")


def test_criterion_7_filter_exactness():
    state = filter_new(1.0)
    ok1, state = try_spend(state, 0.6)
    ok2, state = try_spend(state, 0.8)
    ok3, _ = try_spend(state, 0.1)
    assert ok1 and ok2 and not ok3

    # property run: prefix soundness plus agreement with the rational oracle
    # outside the 2**-30 margin band, over 1e5 random dyadic spend sequences.
    # Every spend is k/64, so the oracle ledger is kept exactly as integer
    # numerators over 4096 = 64**2, and the band in those units is 2**-18:
    # a margin lies outside it exactly when its numerator is nonzero.
    rng = np.random.default_rng(4242)
    band = 4096 * 2.0 ** -30
    checked = 0
    t0 = time.perf_counter()
    for _ in range(100000):
        n = int(rng.integers(1, 8))
        ks = rng.integers(0, 80, size=n).tolist()
        state = filter_new(1.0)
        spent_q = 0
        accepted_sq = []
        for k in ks:
            mu = k / 64.0
            got, state = try_spend(state, mu)
            mu_q = k * k
            margin = 4096 - spent_q - mu_q
            want = margin >= 0
            if abs(margin) > band:
                assert got == want, (ks, mu, margin)
                checked += 1
            if got:
                spent_q += mu_q
                accepted_sq.append(mu * mu)
                assert math.fsum(accepted_sq) <= (1.0 + REL_SLACK) * (1 + 1e-15)
    elapsed = time.perf_counter() - t0
    announce("criterion 7: filter exactness", True,
             f"{checked} oracle-checked decisions, {elapsed:.1f}s")


def test_criterion_8_reproducibility(acceptance_run, tmp_path):
    report1, _ = acceptance_run
    report2, _ = run_cli(tmp_path / "report2.json")
    same_checksum = report1["checksum"] == report2["checksum"]
    same_results = (json.dumps(report1["results"], sort_keys=True)
                    == json.dumps(report2["results"], sort_keys=True))
    pinned = report1["checksum"] == ACCEPTANCE_CHECKSUM[_REPORT_SCHEMA]
    announce("criterion 8: reproducibility", same_checksum and same_results and pinned,
             f"checksum {report1['checksum'][:16]}..., "
             f"pinned {ACCEPTANCE_CHECKSUM[_REPORT_SCHEMA][:16]}...")
