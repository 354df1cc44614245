"""Harness: config validation, experiment reports, transcript files, CLI."""

import hashlib
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

import gdpsim
from gdpsim import harness
from gdpsim.cli import main
from gdpsim.curator import Round, Transcript
from gdpsim.errors import ConfigError
from gdpsim.harness import (
    _refusal_checksum,
    config_from_dict,
    emit_transcripts,
    load_config,
    parse_transcripts,
    report_table,
    run_experiment,
    verify_cholesky,
    with_seed,
    write_transcripts,
)


def small_config(**overrides):
    data = {
        "budget": 1.0,
        "n_trials": 400,
        "bits": [0, 1],
        "master_seed": 7,
        "min_test_samples": 200,
        "policies": [{"name": "fixed", "spends": [0.6, 0.8]}],
        "mechanisms": [{"name": "threshold", "mu": 1.0, "tau": 0.5}],
    }
    data.update(overrides)
    return config_from_dict(data)


# --- config ------------------------------------------------------------------

def test_config_unknown_key_fails_closed():
    with pytest.raises(ConfigError, match="unknown keys.*budgett"):
        config_from_dict({"budgett": 1.0, "budget": 1.0, "n_trials": 1})


def test_config_missing_required():
    with pytest.raises(ConfigError, match="missing required key 'budget'"):
        config_from_dict({"n_trials": 1})


def test_config_field_diagnostics():
    with pytest.raises(ConfigError, match=r"policies\[0\]"):
        config_from_dict({"budget": 1.0, "n_trials": 1,
                          "policies": [{"name": "nonesuch"}]})
    with pytest.raises(ConfigError, match=r"mechanisms\[0\]"):
        config_from_dict({"budget": 1.0, "n_trials": 1,
                          "mechanisms": [{"name": "threshold", "mu": 1.0}]})
    with pytest.raises(ConfigError, match="bits"):
        config_from_dict({"budget": 1.0, "n_trials": 1, "bits": [2]})
    with pytest.raises(ConfigError, match="n_trials"):
        config_from_dict({"budget": 1.0, "n_trials": 0})
    with pytest.raises(ConfigError, match="alpha"):
        config_from_dict({"budget": 1.0, "n_trials": 1, "alpha": 1.5})
    # JSON booleans are not integers or numbers
    for key, value in [("bits", [True]), ("master_seed", True), ("n_trials", True),
                       ("max_rounds", True), ("budget", True),
                       ("min_test_samples", True)]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"budget": 1.0, "n_trials": 1, key: value})
    for key, entry in [
        ("policies", {"name": "fixed", "spends": [True, 0.5]}),
        ("policies", {"name": "sign_adaptive", "hi": True, "lo": False}),
        ("mechanisms", {"name": "identity", "mu": True}),
        ("policies", {"name": 5}),
        ("mechanisms", {"name": True, "mu": 0.5}),
    ]:
        with pytest.raises(ConfigError, match=rf"{key}\[0\]"):
            config_from_dict({"budget": 1.0, "n_trials": 1, key: [entry]})
    # policies and mechanisms must be lists, reported by field name
    for key, value in [("policies", 5), ("mechanisms", None),
                       ("policies", {"name": "fixed"}), ("mechanisms", "identity")]:
        with pytest.raises(ConfigError, match=rf"{key}: must be a list"):
            config_from_dict({"budget": 1.0, "n_trials": 1, key: value})
    # derive_key encodes seeds in 16 signed bytes
    for seed in (2**127, 2**130, -2**127 - 1):
        with pytest.raises(ConfigError, match="master_seed"):
            config_from_dict({"budget": 1.0, "n_trials": 1, "master_seed": seed})
    for seed in (2**127 - 1, -2**127):
        assert config_from_dict({"budget": 1.0, "n_trials": 1,
                                 "master_seed": seed}).master_seed == seed
    # numbers only: no strings, NaN or infinities (Python's json reads both)
    for key, value in [("budget", "1.0"), ("budget", float("nan")),
                       ("budget", float("inf")), ("alpha", float("nan"))]:
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"budget": 1.0, "n_trials": 1, key: value})
    for key, param, entry in [
        ("policies", "spends", {"name": "fixed", "spends": ["0.6", 0.8]}),
        ("policies", "hi", {"name": "sign_adaptive", "hi": "0.8", "lo": 0.2}),
        ("policies", "spends", {"name": "fixed", "spends": [0.6, float("nan")]}),
        ("mechanisms", "tau", {"name": "threshold", "mu": 1.0, "tau": "0.5"}),
        ("mechanisms", "tau", {"name": "threshold", "mu": 1.0, "tau": float("nan")}),
        ("mechanisms", "tau", {"name": "threshold", "mu": 1.0, "tau": float("inf")}),
        ("mechanisms", "tau", {"name": "threshold", "mu": 1.0, "tau": -float("inf")}),
        ("mechanisms", "mu", {"name": "identity", "mu": "0.5"}),
    ]:
        with pytest.raises(ConfigError, match=rf"{key}\[0\]: {param} must be a finite number"):
            config_from_dict({"budget": 1.0, "n_trials": 1, key: [entry]})


def test_package_root_exports_only_the_documented_surface():
    assert sorted(gdpsim.__all__) == ["__version__", "parse_transcripts"]
    assert gdpsim.parse_transcripts is parse_transcripts


def test_config_json_line_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text('{\n  "budget": 1.0,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_config_load_and_seed_override(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(json.dumps({"budget": 1.0, "n_trials": 5}))
    config = load_config(path)
    assert config.budget == 1.0 and config.master_seed == 0
    assert with_seed(config, 42).master_seed == 42


# --- refusal checksum ----------------------------------------------------------

def unique_rows_checksum(rows, width):
    """Reference: np.unique over whole 0/1 rows padded to width."""
    if rows.shape[1] < width:
        pad = np.zeros((rows.shape[0], width - rows.shape[1]), dtype=bool)
        rows = np.concatenate([rows, pad], axis=1)
    patterns, counts = np.unique(rows.astype(np.uint8), axis=0, return_counts=True)
    h = hashlib.sha256()
    h.update(patterns.tobytes())
    h.update(counts.astype(np.int64).tobytes())
    h.update(str(width).encode())
    return h.hexdigest()


def test_refusal_checksum_equals_unique_rows_reference():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 300):
        for width in (0, 1, 7, 8, 9, 63, 64, 65, 200, 256):
            for pad in (0, 3, 11):
                if pad > width:
                    continue
                for density in (0.0, 0.1, 0.5, 1.0):
                    rows = rng.random((n, width - pad)) < density
                    arm = SimpleNamespace(refusal_rows=lambda rows=rows: rows)
                    assert _refusal_checksum(arm, width) == \
                        unique_rows_checksum(rows, width), (n, width, pad, density)


# --- verify-cholesky ---------------------------------------------------------

def test_verify_cholesky_small_suite():
    rep = verify_cholesky(seed=5, cases=50, max_len=24)
    assert rep.passed
    assert rep.exhaustion_cases == 5
    assert rep.factor.passed and rep.streaming.passed
    assert rep.factor.threshold == 1e-10
    assert rep.streaming.threshold == 1e-9


# --- transcript files --------------------------------------------------------

def random_transcript(rnd):
    rounds = []
    for i in range(rnd.randint(1, 6)):
        accepted = rnd.random() < 0.7
        rounds.append(Round(
            i,
            rnd.uniform(0, 1),
            accepted,
            rnd.gauss(0, 1) if accepted else None,
        ))
    return Transcript(budget=rnd.choice([1.0, 2.0]), rounds=rounds,
                      truncated=rnd.random() < 0.2)


def test_transcript_round_trip_property(tmp_path):
    rnd = random.Random(13)
    records = [("p", rnd.randint(0, 1), rnd.choice(["direct", "simulated"]), t,
                random_transcript(rnd))
               for t in range(100)]
    path = tmp_path / "transcripts.csv"
    write_transcripts(path, records)
    parsed = parse_transcripts(path)
    assert len(parsed) == 100
    for policy, bit, kind, trial, tr in records:
        back = parsed[(policy, bit, kind, trial)]
        assert back == tr


def test_refusals_serialized_with_empty_answer(tmp_path):
    tr = Transcript(1.0, [Round(0, 0.9, True, 0.5), Round(1, 0.9, False, None)])
    path = tmp_path / "t.csv"
    write_transcripts(path, [("p", 0, "direct", 0, tr)])
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rounds
    assert lines[2].endswith("refused,")


def test_emit_transcripts_row_count(tmp_path):
    config = config_from_dict({
        "budget": 1.0, "n_trials": 2, "bits": [1],
        "policies": [{"name": "fixed", "spends": [0.5]}],
    })
    path = tmp_path / "out.csv"
    emit_transcripts(config, path, kinds=("simulated",))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one row per (trial, round)


def test_emit_transcripts_writes_each_arm_before_running_the_next(tmp_path, monkeypatch):
    events = []
    run_batch = harness.run_trial_batch

    def logged_batch(kind, *args, **kwargs):
        events.append(("batch", kind))
        return run_batch(kind, *args, **kwargs)

    def logged_writer(path, records):
        for record in records:
            events.append(("record", record[2]))

    monkeypatch.setattr(harness, "run_trial_batch", logged_batch)
    monkeypatch.setattr(harness, "write_transcripts", logged_writer)
    config = config_from_dict({
        "budget": 1.0, "n_trials": 3, "bits": [1],
        "policies": [{"name": "fixed", "spends": [0.5]}],
    })
    emit_transcripts(config, tmp_path / "out.csv")
    assert events == ([("batch", "direct")] + [("record", "direct")] * 3
                      + [("batch", "simulated")] + [("record", "simulated")] * 3)


def test_parse_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("policy,bit,kind,trial,budget,round,spend,decision,answer\n"
                    "p,0,direct,0,1.0,0,0.5,accepted,\n")
    with pytest.raises(ValueError, match="contradicts decision"):
        parse_transcripts(path)


# --- run_experiment ----------------------------------------------------------

def test_run_experiment_smoke_passes():
    report = run_experiment(small_config())
    assert report.passed
    res = report.results
    assert res["schema"] == "gdpsim.report.v2"
    assert len(res["policies"]) == 2
    sec = res["policies"][0]
    assert sec["refusals"]["match"]
    assert isinstance(sec["per_round"][0]["ks"], dict)
    assert sec["moments"]["mean_ok"] and sec["moments"]["cov_ok"]
    mech = res["mechanisms"][0]
    assert mech["binary"] and isinstance(mech["test"], dict)
    assert res["rng"]["normality"]["passed"]


def test_run_experiment_reproducible_checksums():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.checksum == b.checksum
    assert json.dumps(a.results, sort_keys=True) == json.dumps(b.results, sort_keys=True)
    c = run_experiment(small_config(master_seed=8))
    assert c.checksum != a.checksum


def test_scalar_engine_yields_identical_report():
    cfg = small_config(n_trials=60, min_test_samples=30, mechanisms=[])
    vec = run_experiment(cfg, engine="vector")
    sca = run_experiment(cfg, engine="scalar")
    assert vec.checksum == sca.checksum


def test_single_trial_marks_insufficient_sample():
    report = run_experiment(small_config(n_trials=1, mechanisms=[]))
    sec = report.results["policies"][0]
    assert sec["per_round"][0]["ks"] == "insufficient sample"
    assert sec["summary_ks"] == "insufficient sample"
    assert sec["per_round"][0]["mean_direct"] is not None
    assert sec["per_round"][0]["var_direct"] is None
    assert report.passed


def test_zero_budget_experiment():
    cfg = config_from_dict({
        "budget": 0.0, "n_trials": 50, "bits": [1], "min_test_samples": 25,
        "policies": [{"name": "fixed", "spends": [0.5, 0.5]},
                     {"name": "greedy_halving"}],
        "mechanisms": [{"name": "identity", "mu": 0.5}],
    })
    report = run_experiment(cfg)
    assert report.passed
    fixed_sec = report.results["policies"][0]
    assert fixed_sec["refusals"]["refused_rounds_direct"] == 100
    assert all(e["n_direct"] == 0 for e in fixed_sec["per_round"])
    greedy_sec = report.results["policies"][1]
    assert greedy_sec["rounds"] == 0
    mech = report.results["mechanisms"][0]
    assert mech["test"] == "all queries refused"


def test_failed_tests_are_retried_once_and_reported():
    # An absurd alpha makes every KS test fail deterministically at this
    # seed, so the one-retry discipline and the failure verdict both fire.
    cfg = small_config(alpha=0.9999, mechanisms=[], bits=[1])
    report = run_experiment(cfg)
    assert not report.passed
    sec = report.results["policies"][0]
    assert not sec["passed"]
    assert "retry" in sec and not sec["passed_after_retry"]
    retry = sec["retry"]
    # the retry ran on an independently derived seed: different p-values
    assert retry["per_round"][0]["ks"]["p_value"] != sec["per_round"][0]["ks"]["p_value"]


def test_cli_exit_code_on_test_failure(tmp_path):
    path = tmp_path / "failing.cfg"
    path.write_text(json.dumps({
        "budget": 1.0, "n_trials": 400, "bits": [1], "min_test_samples": 200,
        "alpha": 0.9999, "master_seed": 7,
        "policies": [{"name": "fixed", "spends": [0.5]}],
    }))
    assert main(["run", "--config", str(path)]) == 1


def test_report_table_renders():
    report = run_experiment(small_config())
    table = report_table(report.results)
    lines = table.strip().splitlines()
    assert lines[0].startswith("section\tname\tbit")
    assert any(line.startswith("policy\tfixed") for line in lines)
    assert any(line.startswith("mechanism\tthreshold") for line in lines)
    assert lines[-1].startswith("overall")


def test_report_json_round_trips():
    report = run_experiment(small_config(mechanisms=[]))
    payload = json.loads(report.to_json())
    assert payload["checksum"] == report.checksum
    assert payload["results"]["passed"] is True
    assert "wall_time_seconds" in payload["metadata"]


# --- CLI ----------------------------------------------------------------------

def write_cli_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(json.dumps({
        "budget": 1.0, "n_trials": 300, "bits": [1], "min_test_samples": 150,
        "policies": [{"name": "fixed", "spends": [0.6, 0.8]}],
    }))
    return path


def test_cli_run_writes_report_and_table(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(["run", "--config", str(config), "--seed", "5", "--out", str(out)])
    assert code == 0
    assert out.exists() and (tmp_path / "report.json.tsv").exists()
    payload = json.loads(out.read_text())
    assert payload["results"]["config"]["master_seed"] == 5
    assert "checksum:" in capsys.readouterr().out


def test_cli_verify_cholesky(capsys):
    assert main(["verify-cholesky", "--cases", "30", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_emit_transcripts(tmp_path):
    config = write_cli_config(tmp_path)
    out = tmp_path / "t.csv"
    code = main(["emit-transcripts", "--config", str(config), "--out", str(out),
                 "--kinds", "simulated"])
    assert code == 0
    assert len(parse_transcripts(out)) == 300


def test_cli_filter_demo(capsys):
    assert main(["filter-demo", "--budget", "1", "--spends", "0.6,0.8,0.1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "accepted" in lines[1] and "accepted" in lines[2] and "refused" in lines[3]


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    bad.write_text(json.dumps({"budget": 1.0, "n_trials": 1, "policies": 5}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "policies: must be a list" in capsys.readouterr().err
    bad.write_text(json.dumps({"budget": 1.0, "n_trials": 1, "master_seed": 2**130}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "master_seed" in capsys.readouterr().err
    bad.write_text('{"budget": 1.0, "n_trials": 1, "mechanisms": '
                   '[{"name": "threshold", "mu": 1.0, "tau": NaN}]}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "mechanisms[0]: tau" in capsys.readouterr().err
    # --seed outside what derive_key encodes, on every command that takes one
    config = write_cli_config(tmp_path)
    out = tmp_path / "out"
    for seed in (2**127, -2**127 - 1):
        for argv in (["run", "--config", str(config)],
                     ["emit-transcripts", "--config", str(config), "--out", str(out)],
                     ["verify-cholesky", "--cases", "3"]):
            assert main(argv + ["--seed", str(seed)]) == 2, argv
            assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_math_error_exit_code(capsys):
    assert main(["filter-demo", "--budget", "-1", "--spends", "0.1"]) == 2
