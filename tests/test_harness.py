"""Harness: config validation, experiment reports, transcript files, CLI."""

import hashlib
import itertools
import math
import importlib
import json
import os
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gdpsim
from gdpsim import harness
from gdpsim.adversaries import make_policy
from gdpsim.batch import run_trial_batch
from gdpsim.cholesky import DenseCholesky, StreamingCholesky
from gdpsim.cli import main
from gdpsim.curator import KINDS, Round, Session, Transcript, run_interaction
from gdpsim.errors import ConfigError
from gdpsim.harness import (
    _mean_var,
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


def test_config_rejects_repeated_entries():
    # Entries naming one policy or mechanism with equal parameter values
    # would run and test the same arms twice, even under different stream
    # labels (an integer-valued number).
    base = {"budget": 1.0, "n_trials": 1}
    fixed = {"name": "fixed", "spends": [0.5]}
    for key, entries in [
        ("policies", [fixed, {"name": "greedy_halving"}, dict(fixed)]),
        ("policies", [{"name": "greedy_halving"}, {"name": "greedy_halving"}]),
        ("policies", [{"name": "fixed", "spends": [1]}, {"name": "fixed", "spends": [1.0]}]),
        ("policies", [{"name": "sign_adaptive", "hi": 1, "lo": 0},
                      {"name": "sign_adaptive", "lo": 0.0, "hi": 1.0}]),
        ("mechanisms", [{"name": "identity", "mu": 0.5}, {"name": "identity", "mu": 0.5}]),
        ("mechanisms", [{"name": "sign", "mu": 1}, {"name": "sign", "mu": 1.0}]),
        ("mechanisms", [{"name": "threshold", "mu": 1.0, "tau": 0.5},
                        {"name": "threshold", "tau": 0.5, "mu": 1.0}]),
        ("mechanisms", [{"name": "threshold", "mu": 1.0, "tau": 0},
                        {"name": "threshold", "mu": 1.0, "tau": 0.0}]),
    ]:
        with pytest.raises(ConfigError, match=rf"{key}\[{len(entries) - 1}\]: repeats"):
            config_from_dict({**base, key: entries})
    # Each name has one spelling, which is its stream label: a hyphenated
    # alias is an unknown name, not a repeat.
    for key, kind, entries in [
        ("policies", "policy", [{"name": "greedy_halving"}, {"name": "greedy-halving"}]),
        ("policies", "policy", [{"name": "sign_adaptive", "hi": 1, "lo": 0},
                                {"name": "sign-adaptive", "lo": 0.0, "hi": 1.0}]),
        ("mechanisms", "mechanism", [{"name": "round_to_integer", "mu": 0.6},
                                     {"name": "round-to-integer", "mu": 0.6}]),
    ]:
        with pytest.raises(ConfigError, match=re.escape(
                f"{key}[1]: unknown {kind} {entries[1]['name']!r}; known: ")):
            config_from_dict({**base, key: entries})
    config = config_from_dict({
        **base,
        "policies": [fixed, {"name": "fixed", "spends": [0.6]},
                     {"name": "fixed", "spends": [0.5, 0.5]}],
        "mechanisms": [{"name": "identity", "mu": 0.5}, {"name": "identity", "mu": 0.6},
                       {"name": "sign", "mu": 0.5},
                       {"name": "threshold", "mu": 1.0, "tau": 0},
                       {"name": "threshold", "mu": 1.0, "tau": -0.5}],
    })
    assert len(config.policies) == 3 and len(config.mechanisms) == 5
    # Accepted entries keep their names and values as written: stream labels
    # and reports are unchanged.
    assert config.policies[0] == ("fixed", {"spends": [0.5]})
    assert config.mechanisms[3] == ("threshold", 1.0, {"tau": 0})


def test_package_root_exports_only_the_documented_surface():
    assert sorted(gdpsim.__all__) == ["__version__", "parse_transcripts"]
    assert gdpsim.parse_transcripts is parse_transcripts


def test_version_is_written_once():
    report = run_experiment(small_config(n_trials=20, min_test_samples=10,
                                         bits=[1], mechanisms=[]))
    assert report.metadata["versions"]["gdpsim"] == gdpsim.__version__
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == gdpsim.__version__


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


def test_with_seed_checks_the_seed_before_converting_it():
    config = config_from_dict({"budget": 1.0, "n_trials": 5})
    for bad in (True, False, 2.9, 5.0, "5", None, 2**127, -2**127 - 1,
                np.float64(3.0), np.bool_(True)):
        with pytest.raises(ConfigError, match="master_seed"):
            with_seed(config, bad)
    for seed in (0, -2**127, 2**127 - 1, np.int64(7), np.uint8(3)):
        got = with_seed(config, seed).master_seed
        assert got == seed and type(got) is int
    # the config loader takes the same rule, and stores a Python int
    got = config_from_dict({"budget": 1.0, "n_trials": np.int64(5),
                            "master_seed": np.int64(-9)})
    assert (got.n_trials, got.master_seed) == (5, -9)
    assert type(got.n_trials) is int and type(got.master_seed) is int


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


def shared_row_view(decisions):
    """A view of ``decisions``' first row that every trial reads (trial
    stride 0), as the vector engine returns a decisions row every trial
    shares: the first columns of a wider F-order row."""
    n, width = decisions.shape
    row = np.full((1, width + 5), 1, dtype=np.int8, order="F")
    if n:
        row[:, :width] = decisions[:1]
    return np.broadcast_to(row[:, :width], (n, width))


def test_refusal_checksum_equals_unique_rows_reference():
    # n x width cases with pad trailing rounds no trial reached; a width
    # past 64 rounds sorts keys of several words
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 300):
        for width in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200, 255, 256):
            for pad in (0, 3, 11):
                if pad > width:
                    continue
                for density in (0.0, 0.1, 0.5, 1.0):
                    rows = rng.random((n, width - pad)) < density
                    # accepted (1) and absent (-1) rounds are not refusals
                    decisions = np.where(rows, 0, rng.choice([1, -1], size=rows.shape))
                    decisions = decisions.astype(np.int8)
                    layouts = [(decisions, np.asfortranarray(decisions))]
                    if n in (0, 1, 300):
                        layouts.append((shared_row_view(decisions),))
                    for mats in layouts:
                        refused = np.array(mats[0]) == 0
                        expected = (unique_rows_checksum(refused, width), int(refused.sum()))
                        for mat in mats:
                            assert _refusal_checksum(mat, width) == expected, \
                                (n, width, pad, density, mat.strides)


def hexes(values):
    return [None if v is None else float(v).hex() for v in values]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5000])
def test_mean_var_is_numpys_mean_and_variance_bitwise(n):
    rng = np.random.default_rng(n)
    wide = np.asfortranarray(rng.standard_normal((n, 3)) * 2.5 + 0.7)
    column = wide[:, 1]
    column.flags.writeable = False   # as round_answers returns it
    # a contiguous view, a strided view and an owned copy
    for x in (column, np.ascontiguousarray(wide)[:, 1], column.copy()):
        expected = (x.mean() if n else None, x.var(ddof=1) if n >= 2 else None)
        assert hexes(_mean_var(x)) == hexes(expected)


def test_mean_var_gives_none_on_overflow():
    with np.errstate(over="ignore", invalid="ignore"):
        # the sum overflows, so both do; then only the squares overflow
        assert _mean_var(np.array([1e308, 1e308, 1e308])) == (None, None)
        assert _mean_var(np.array([1e308, -1e308])) == (0.0, None)


# --- verify-cholesky ---------------------------------------------------------

def test_verify_cholesky_small_suite():
    rep = verify_cholesky(seed=5, cases=50, max_len=24)
    assert rep.passed
    assert rep.exhaustion_cases == 5
    assert (harness._FACTOR_TOL, harness._NOISE_TOL) == (1e-10, 1e-9)
    assert rep.max_factor_deviation <= harness._FACTOR_TOL
    assert rep.max_streaming_deviation <= harness._NOISE_TOL


def test_verify_cholesky_passes_only_within_every_tolerance(monkeypatch):
    for name in ("_FACTOR_TOL", "_NOISE_TOL", "_CANONICAL_TOL"):
        with monkeypatch.context() as m:
            m.setattr(harness, name, 0.0)
            assert not verify_cholesky(seed=5, cases=10, max_len=24).passed, name


@pytest.mark.parametrize("name, value", [
    ("cases", 0), ("cases", True), ("cases", 2.0),
    ("max_len", 0), ("max_len", 2.5), ("max_len", True),
])
def test_verify_cholesky_rejects_a_malformed_size(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
        verify_cholesky(seed=5, **{name: value})


def test_each_input_rule_reads_the_same_from_every_entry_that_takes_it():
    # Each integer, session-kind and bit rule is written once, so a bad value
    # gets one message whichever public entry refuses it; the config loader
    # adds its source prefix.
    def refusal(call, **bad):
        with pytest.raises(ValueError) as info:
            call(**bad)
        return str(info.value)

    def batch(engine):
        def call(**bad):
            run_trial_batch(**{"kind": "direct", "bit": 1, "budget": 1.0,
                               "policy_name": "greedy_halving", "n_trials": 2,
                               "engine": engine, **bad})
        return call

    def session(kind="direct", bit=1):
        Session(kind, bit, 1.0, lambda: 0.0)

    def interaction(max_rounds):
        run_interaction(Session("direct", 1, 1.0, lambda: 0.0), make_policy("greedy_halving"),
                        max_rounds=max_rounds)

    engines = [batch("vector"), batch("scalar")]
    for kind in ("Direct", "", None, 0):
        for call in engines + [session]:
            assert refusal(call, kind=kind) == f"kind must be one of {KINDS}, got {kind!r}"
    for bit in (2, -1, True, 1.0, np.bool_(True), None):
        for call in engines + [session]:
            assert refusal(call, bit=bit) == f"secret bit must be 0 or 1, got {bit!r}"
    for name, low, values, entries in [
        ("n_trials", 1, (0, -3, True, 2.0, "2", None, np.int64(0)), engines),
        ("max_rounds", 0, (-1, True, 2.5, None), engines + [interaction]),
        ("cases", 1, (0, True, 2.0), [verify_cholesky]),
        ("max_len", 1, (0, False, 2.5), [verify_cholesky]),
    ]:
        for value in values:
            for call in entries:
                assert refusal(call, **{name: value}) == (
                    f"{name} must be an integer >= {low}, got {value!r}"), (call, value)
    # The config's own floors: n_trials and max_rounds 1, min_test_samples 2.
    for name, low, values in [
        ("n_trials", 1, (0, -3, True, 2.0, "2", None)),
        ("max_rounds", 1, (0, -1, True, 2.5, None)),
        ("min_test_samples", 2, (1, 0, True, 10.0, "10")),
    ]:
        for value in values:
            with pytest.raises(ConfigError) as info:
                config_from_dict({"budget": 1.0, "n_trials": 2, name: value}, source="exp.cfg")
            assert str(info.value) == f"exp.cfg: {name} must be an integer >= {low}, got {value!r}"
    # The seed rule: both engines and verify_cholesky, the config loader with
    # its source prefix, and with_seed, which raises a ConfigError.
    def seed_rule(name, value):
        return f"{name} must be an integer in [-2**127, 2**127), got {value!r}"

    config = config_from_dict({"budget": 1.0, "n_trials": 2})
    for value in (True, 2.0, "3", None, 2**127, -2**127 - 1):
        for call in engines:
            assert refusal(call, master_seed=value) == seed_rule("master_seed", value)
        assert refusal(verify_cholesky, seed=value, cases=1) == seed_rule("seed", value)
        with pytest.raises(ConfigError) as info:
            config_from_dict({"budget": 1.0, "n_trials": 2, "master_seed": value},
                             source="exp.cfg")
        assert str(info.value) == "exp.cfg: " + seed_rule("master_seed", value)
        with pytest.raises(ConfigError) as info:
            with_seed(config, value)
        assert str(info.value) == seed_rule("master_seed", value)
    # A NumPy integer is a seed, and keys the streams its int value keys.
    for engine in ("vector", "scalar"):
        a, b = (run_trial_batch("direct", 1, 1.0, "greedy_halving", {}, 2, seed, engine=engine)
                for seed in (np.int64(3), 3))
        assert np.array_equal(a.answers, b.answers, equal_nan=True)
    assert verify_cholesky(seed=np.int64(3), cases=3) == verify_cholesky(seed=3, cases=3)
    assert config_from_dict({"budget": 1.0, "n_trials": 2,
                             "master_seed": np.int64(3)}).master_seed == 3
    assert with_seed(config, np.int64(3)).master_seed == 3


def _shift_streaming_noise(next_noise):
    def planted(state, m, v):
        u, new = next_noise(state, m, v)
        return (u + 1e-6 if isinstance(state, StreamingCholesky) else u), new
    return planted


def _negate_new_diagonal(next_noise):
    def planted(state, m, v):
        u, new = next_noise(state, m, v)
        if isinstance(new, DenseCholesky):
            row = new.rows[-1]
            row[-1] = -row[-1]
        return u, new
    return planted


def _scale_oracle(oracle):
    return lambda sigma: oracle(sigma) * (1.0 + 1e-6)


_TOLERANCES = {"max_factor_deviation": "_FACTOR_TOL",
               "max_streaming_deviation": "_NOISE_TOL",
               "max_canonical_deviation": "_CANONICAL_TOL"}


@pytest.mark.parametrize("check, target, plant", [
    ("max_streaming_deviation", "next_noise", _shift_streaming_noise),
    ("canonical_failures", "next_noise", _negate_new_diagonal),
    ("max_canonical_deviation", "canonical_cholesky_oracle", _scale_oracle),
])
def test_verify_cholesky_fails_on_a_planted_defect(monkeypatch, check, target, plant):
    assert verify_cholesky(seed=5, cases=20, max_len=24).passed
    bounds = {field: getattr(harness, tol) for field, tol in _TOLERANCES.items()}
    monkeypatch.setattr(harness, target, plant(getattr(harness, target)))
    # Every other tolerance is lifted, so only the named check can fail the suite.
    for field, tol in _TOLERANCES.items():
        if field != check:
            monkeypatch.setattr(harness, tol, math.inf)
    rep = verify_cholesky(seed=5, cases=20, max_len=24)
    assert not rep.passed
    if check == "canonical_failures":
        assert rep.canonical_failures > 0
    else:
        assert rep.canonical_failures == 0
        assert getattr(rep, check) > 10 * bounds[check]


def test_verify_cholesky_grows_one_dense_row_per_spend(monkeypatch):
    seed, cases, max_len = 11, 40, 24
    calls = {"dense": 0, "streaming": 0, "oracle": 0}
    next_noise, oracle = harness.next_noise, harness.canonical_cholesky_oracle

    def counting_next_noise(state, m, v):
        calls["dense" if isinstance(state, DenseCholesky) else "streaming"] += 1
        return next_noise(state, m, v)

    def counting_oracle(sigma):
        calls["oracle"] += 1
        return oracle(sigma)

    monkeypatch.setattr(harness, "next_noise", counting_next_noise)
    monkeypatch.setattr(harness, "canonical_cholesky_oracle", counting_oracle)
    assert verify_cholesky(seed=seed, cases=cases, max_len=max_len).passed
    # Case 0 is (0.6, 0.8), case 1 is empty, the rest come from the generator.
    spends = 2 + sum(
        harness.random_admissible_spends(
            harness.generator(seed, "cholesky-verify", case), case % 10 == 0, max_len).size
        for case in range(2, cases))
    assert calls == {"dense": spends, "streaming": spends, "oracle": cases - 1}


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


def test_parse_rejects_broken_transcript_structure(tmp_path):
    # Every arm written twice: the second copy of each transcript restarts
    # at round 0, which must not merge into rounds [0, 1, 0, 1].
    config = config_from_dict({
        "budget": 1.0, "n_trials": 3, "bits": [1],
        "policies": [{"name": "fixed", "spends": [0.6, 0.8]}],
    })
    path = tmp_path / "twice.csv"
    emit_transcripts(config, path, kinds=("direct", "direct"))
    # header, 3 trials x 2 rounds, then the copy of trial 0's round 0
    with pytest.raises(ValueError, match=re.escape(f"{path}:8: round 0 where 2 is next")):
        parse_transcripts(path)

    header = "policy,bit,kind,trial,budget,round,spend,decision,answer\n"
    for rows, message in [
        ("p,0,direct,0,1.0,1,0.5,refused,\n", ":2: round 1 where 0 is next"),
        ("p,0,direct,0,1.0,0,0.5,refused,\n"
         "p,0,direct,0,1.0,2,0.5,refused,\n", ":3: round 2 where 1 is next"),
        ("p,0,direct,0,1.0,0,0.5,refused,\n"
         "p,0,direct,0,1.0,1,,truncated,\n"
         "p,0,direct,0,1.0,1,0.5,refused,\n", ":4: row after the truncation marker"),
        ("p,0,direct,0,1.0,0,,truncated,\n"
         "p,0,direct,0,1.0,0,,truncated,\n", ":3: row after the truncation marker"),
        ("p,0,direct,0,1.0,0,0.5,refused,\n"
         "p,0,direct,0,2.0,1,0.5,refused,\n", ":3: budget changes"),
    ]:
        path.write_text(header + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            parse_transcripts(path)
    # the same rows under another key start their own transcript
    path.write_text(header + "p,0,direct,0,1.0,0,0.5,refused,\n"
                             "p,0,direct,1,2.0,0,0.5,refused,\n")
    assert len(parse_transcripts(path)) == 2


def test_parse_names_the_row_of_a_malformed_field(tmp_path):
    path = tmp_path / "fields.csv"
    header = "policy,bit,kind,trial,budget,round,spend,decision,answer\n"
    good = ["p", "0", "direct", "0", "1.0", "0", "0.5", "accepted", "0.25"]
    for field in ("bit", "trial", "budget", "round", "spend", "answer"):
        row = list(good)
        row[harness._TRANSCRIPT_COLUMNS.index(field)] = "x"
        path.write_text(header + ",".join(good) + "\n"
                        + ",".join(row).replace(",0,0.5,", ",1,0.5,", 1) + "\n")
        with pytest.raises(ValueError) as info:
            parse_transcripts(path)
        message = str(info.value)
        assert message.startswith(f"{path}:3: "), (field, message)
        assert message.count(str(path)) == 1
    # structural errors carry the prefix once as well
    path.write_text(header + "p,0,direct,0,1.0,1,0.5,refused,\n")
    with pytest.raises(ValueError) as info:
        parse_transcripts(path)
    assert str(info.value) == f"{path}:2: round 1 where 0 is next"


def test_parse_rejects_out_of_range_field_values(tmp_path):
    path = tmp_path / "values.csv"
    header = "policy,bit,kind,trial,budget,round,spend,decision,answer\n"
    good = "p,0,direct,0,1.0,0,0.5,accepted,0.25\n"
    for row, message in [
        ("p,0,direct,0,1.0,1,nan,refused,", "spend must be a finite nonnegative real"),
        ("p,0,direct,0,1.0,1,-0.5,refused,", "spend must be a finite nonnegative real"),
        ("p,0,direct,0,1.0,1,0.5,accepted,inf", "answer must be finite, got inf"),
        ("p,0,direct,0,1.0,1,0.5,accepted,nan", "answer must be finite, got nan"),
        ("p,0,direct,0,nan,1,0.5,refused,", "budget must be a finite nonnegative real"),
        ("p,0,direct,1,-1.0,0,0.5,refused,", "budget must be a finite nonnegative real"),
        ("p,7,direct,0,1.0,0,0.5,refused,", "secret bit must be 0 or 1, got 7"),
        ("p,0,other,0,1.0,0,0.5,refused,", f"kind must be one of {KINDS}, got 'other'"),
        ("p,0,direct,-1,1.0,0,0.5,refused,", "trial must be an integer >= 0, got -1"),
        # each integer field has the one spelling write_transcripts gives it:
        # int() reads "0_1" as 1 and " 1 " as 1, which would merge these two
        # rows into one transcript ('p', 1, 'direct', 10)
        ("p,0_1,direct,1_0,1.0,0,0.5,refused,", "bit must be a plain decimal integer, got '0_1'"),
        ("p,0,direct,1_0,1.0,0,0.5,refused,", "trial must be a plain decimal integer, got '1_0'"),
        ("p,1,direct,10,1.0, 1 ,0.5,refused,", "round must be a plain decimal integer, got ' 1 '"),
        ("p,01,direct,0,1.0,0,0.5,refused,", "bit must be a plain decimal integer, got '01'"),
        ("p,0,direct,+1,1.0,0,0.5,refused,", "trial must be a plain decimal integer, got '+1'"),
    ]:
        path.write_text(header + good + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: ") + ".*"
                           + re.escape(message)):
            parse_transcripts(path)


# --- run_experiment ----------------------------------------------------------

def test_run_experiment_smoke_passes():
    report = run_experiment(small_config())
    assert report.passed
    res = report.results
    assert res["schema"] == "gdpsim.report.v3"
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


def acceptance_mix(**overrides):
    data = json.loads((Path(__file__).resolve().parents[1]
                       / "configs" / "acceptance.cfg").read_text())
    return config_from_dict({**data, **overrides})


def test_draw_counters_agree_on_both_engines():
    cfg = acceptance_mix(n_trials=40, min_test_samples=10, mechanisms=[])
    counters = []
    for engine in ("vector", "scalar"):
        sections = run_experiment(cfg, engine=engine).results["policies"]
        counters.append([{k: v for k, v in sec.items() if k.startswith("draws_")}
                         for sec in sections])
    assert counters[0] == counters[1]
    for sec in counters[0]:
        for kind in KINDS:
            assert sec[f"draws_generated_{kind}"] >= sec[f"draws_used_{kind}"] > 0
    # fixed [0.6, 0.8]: two answers per trial, and the simulated arm's W0
    assert counters[0][0] == {"draws_used_direct": 80, "draws_generated_direct": 80,
                              "draws_used_simulated": 120,
                              "draws_generated_simulated": 120}
    # adaptive lengths leave tableau entries no trial reads
    assert any(sec["draws_generated_simulated"] > sec["draws_used_simulated"]
               for sec in counters[0])


def test_engines_agree_on_the_full_acceptance_mix():
    # All four policies, all four mechanisms and both bits, small enough for
    # the scalar engine; min_test_samples low enough that the tests run.
    cfg = acceptance_mix(n_trials=40, min_test_samples=10)
    assert len(cfg.policies) == 4 and len(cfg.mechanisms) == 4 and cfg.bits == (0, 1)
    vec = run_experiment(cfg, engine="vector")
    sca = run_experiment(cfg, engine="scalar")
    assert vec.checksum == sca.checksum
    dump = lambda r: json.dumps(r.results, sort_keys=True, allow_nan=False)
    assert dump(vec) == dump(sca)
    assert sum(sec["tests_run"] for sec in vec.results["policies"]) > 0


def test_policy_section_memory_is_bounded_by_the_arms_it_keeps():
    # A 64-round section must keep both arms' answers and decisions for
    # evaluation (9 bytes per trial and round each).  Its traced peak
    # measured 1.82x that; holding per-round columns beside the result
    # matrices and evaluating both full arms measured 3.35x.
    spends = [0.125] * 64
    data = {"budget": 1.0, "n_trials": 300, "bits": [1], "min_test_samples": 100,
            "policies": [{"name": "fixed", "spends": spends}]}
    harness._policy_section(config_from_dict(data), "fixed", {"spends": spends},
                            1, 42, "vector")   # one-time imports and caches
    n = data["n_trials"] = 3000
    tracemalloc.start()
    try:
        section, _ = harness._policy_section(config_from_dict(data), "fixed",
                                             {"spends": spends}, 1, 42, "vector")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert section["passed"] and section["rounds"] == 64
    assert peak <= 2.2 * (2 * n * 64 * 9)


def test_lockstep_section_holds_its_answers_and_per_trial_vectors_only():
    # A lockstep section must hold both arms' answers (8 bytes per trial and
    # round each); everything else it holds is per trial, not per round.
    # Spends and decisions are rows every trial shares, the matrices are
    # sized once from the declared length and the moment check centres the
    # answers in place.  The slack, in vectors of n float64s: the engine's
    # lane state while the second arm runs (lane ids, W0, draws, lengths,
    # one tableau column, the draw and the factor step's temporaries) stays
    # under 16; evaluation, after both arms, holds the two summaries, one
    # round's two samples and one two-sample KS test, which sorts the 2n
    # values (2 vectors) and merges the ones near its maximum, about a
    # sixth of them here (under 3 vectors), under 12 in all.  8 more
    # cover what is not per trial: the per-round records, the R x R
    # covariances (one vector each at R = 64, n = 4000) and the refusal
    # keys of one bit per trial and round.
    spends = [0.125] * 64
    data = {"budget": 1.0, "n_trials": 300, "bits": [1], "min_test_samples": 100,
            "policies": [{"name": "fixed", "spends": spends}]}

    def section(config):
        direct, sim = harness._arm_pair(config, "fixed", {"spends": spends}, 1, 42, "vector")
        return harness._evaluate_pair(direct, sim, config.alpha, config.min_test_samples)[0]

    section(config_from_dict(data))   # one-time imports and caches
    n = data["n_trials"] = 4000
    config = config_from_dict(data)
    tracemalloc.start()
    try:
        result = section(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result["passed"] and result["rounds"] == 64
    assert peak <= 2 * n * 64 * 8 + (max(16, 12) + 8) * n * 8


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
                     {"name": "greedy_halving"}, {"name": "fixed", "spends": []}],
        "mechanisms": [{"name": "identity", "mu": 0.5}],
    })
    report = run_experiment(cfg)
    assert report.passed
    fixed_sec = report.results["policies"][0]
    assert fixed_sec["refusals"]["refused_rounds_direct"] == 100
    assert all(e["n_direct"] == 0 for e in fixed_sec["per_round"])
    # every trial of a zero-round section has the same (empty) shape
    for sec in report.results["policies"][1:]:
        assert sec["rounds"] == 0 and sec["moments"] == "no accepted rounds", sec
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


def test_tests_run_counts_every_test_a_section_ran():
    # An absurd alpha fails every test that runs, so every section is retried.
    config = acceptance_mix(n_trials=40, min_test_samples=10, alpha=0.9999)
    for engine in ("vector", "scalar"):
        report = run_experiment(config, engine=engine)
        sections = [s for sec in report.results["policies"] for s in (sec, sec["retry"])]
        assert len(sections) == 16
        skipped = 0
        for sec in sections:
            tests = [e["ks"] for e in sec["per_round"]] + [sec["summary_ks"]]
            ran = [t for t in tests if isinstance(t, dict)]
            assert sec["tests_run"] == len(ran) > 0
            assert not sec["passed"]
            skipped += len(tests) - len(ran)
        assert skipped > 0

        # Each attempt's records follow one another in run order, and its
        # verdict and test count are read from them alone.
        attempts = [s for key in ("policies", "mechanisms") for sec in report.results[key]
                    for s in (sec, sec.get("retry")) if s is not None]
        *records, normality = report.checks
        groups = [[c for *_, c in group]
                  for _, group in itertools.groupby(records, key=lambda e: e[:3])]
        assert len(groups) == len(attempts)
        for sec, checks in zip(attempts, groups):
            assert sec["passed"] == all(c.passed for c in checks)
            ran = sec["tests_run"] if "policy" in sec else int(isinstance(sec["test"], dict))
            assert ran == sum(c.test is not None for c in checks)
        assert normality[:3] == ("rng", "normality", None)
        assert not report.passed and report.results["passed"] is False
        # one table row per record, plus the header and overall
        assert len(report_table(report).splitlines()) == len(report.checks) + 2


def test_every_mechanism_test_keeps_the_sample_rule():
    # Three outcomes per arm against min_test_samples 10000: the binary
    # mechanism's two-proportion test runs no more than the KS test does.
    report = run_experiment(config_from_dict({
        "budget": 1.0, "n_trials": 3, "bits": [1], "min_test_samples": 10000,
        "mechanisms": [{"name": "threshold", "mu": 1.0, "tau": 0.5},
                       {"name": "identity", "mu": 0.5}],
    }))
    threshold, identity = report.results["mechanisms"]
    assert threshold["test"] == identity["test"] == "insufficient sample"
    assert {"success_value", "freq_direct", "freq_simulated"} <= set(threshold)
    assert threshold["passed"] and report.passed


def table_rows(report):
    return [line.split("\t") for line in report_table(report).splitlines()]


def test_report_table_shows_retries_and_moment_checks(monkeypatch):
    config = small_config(alpha=0.9999, bits=[1], policies=[
        {"name": "fixed", "spends": [0.6, 0.8]},
        {"name": "sign_adaptive", "hi": 0.8, "lo": 0.2}])
    report = run_experiment(config)
    rows = table_rows(report)
    assert rows[0] == ["section", "name", "bit", "round", "n_direct", "n_simulated",
                       "mean_direct", "mean_simulated", "statistic", "p_value", "status"]
    assert rows[-1][0] == "overall" and rows[-1][-1] == "FAIL"
    assert all(len(row) == len(rows[0]) for row in rows)
    moments = {(row[0], row[1]): row[-1] for row in rows if row[3] == "moments"}
    assert moments == {("policy", "fixed"): "pass", ("policy_retry", "fixed"): "pass",
                       ("policy", "sign_adaptive"): "skipped (adaptive round shape)",
                       ("policy_retry", "sign_adaptive"): "skipped (adaptive round shape)"}
    assert [(row[0], row[3]) for row in rows if row[1] == "threshold"] == [
        ("mechanism", "0"), ("mechanism", "refused"),
        ("mechanism_retry", "0"), ("mechanism_retry", "refused")]
    # every test the JSON holds, retries included, is a row of the table
    tests = [e["ks"] for p in report.results["policies"] for sec in (p, p["retry"])
             for e in sec["per_round"]]
    tests += [sec["summary_ks"] for p in report.results["policies"] for sec in (p, p["retry"])]
    tests += [sec["test"] for m in report.results["mechanisms"] for sec in (m, m["retry"])]
    tests += [report.results["rng"]["normality"]]
    ran = [t for t in tests if isinstance(t, dict)]
    assert len(ran) == sum(row[9] != "" for row in rows[1:])
    assert sum(not t["passed"] for t in ran) == sum(row[-1] == "FAIL" for row in rows[:-1])

    # a moment check that fails where it runs reads FAIL, on both attempts
    monkeypatch.setattr(harness, "_COV_TOL_FACTOR", 0.0)
    report = run_experiment(config)
    assert not report.results["policies"][0]["moments"]["cov_ok"]
    assert [row[0] + ":" + row[-1] for row in table_rows(report)
            if row[1:4] == ["fixed", "1", "moments"]] == ["policy:FAIL", "policy_retry:FAIL"]


def test_a_refused_count_mismatch_fails_the_section_and_reads_fail(monkeypatch):
    # One outcome lost from an identity section's simulated arm: its KS test
    # still passes, but the refused counts differ, so the section and its
    # retry fail, and so does the run; the table's refused rows say why.
    make = harness.make_mechanism

    def planted(*args, **params):
        mech, calls = make(*args, **params), []

        def post(x):
            calls.append(x)
            out = mech.post(x)
            return out[1:] if len(calls) == 2 else out   # the simulated arm runs second
        return replace(mech, post=post)

    monkeypatch.setattr(harness, "make_mechanism", planted)
    report = run_experiment(small_config(policies=[], bits=[1],
                                         mechanisms=[{"name": "identity", "mu": 0.5}]))
    sec = report.results["mechanisms"][0]
    assert sec["refused_simulated"] == sec["refused_direct"] + 1
    assert not sec["passed"] and not sec["retry"]["passed"] and not sec["passed_after_retry"]
    assert not report.passed
    rows = table_rows(report)
    assert [(row[0], row[3], row[-1]) for row in rows if row[1] == "identity"] == [
        ("mechanism", "0", "pass"), ("mechanism", "refused", "FAIL"),
        ("mechanism_retry", "0", "pass"), ("mechanism_retry", "refused", "FAIL")]
    assert rows[-1] == ["overall"] + [""] * 9 + ["FAIL"]


def test_report_table_renders():
    report = run_experiment(small_config())
    table = report_table(report)
    lines = table.strip().splitlines()
    assert lines[0].startswith("section\tname\tbit")
    assert any(line.startswith("policy\tfixed") for line in lines)
    assert any(line.startswith("mechanism\tthreshold") for line in lines)
    assert "mechanism\tthreshold\t1\trefused\t\t\t\t\t\t\tpass" in lines
    assert lines[-1] == "overall" + "\t" * 10 + "pass"


def results_text(report_text):
    """The ``results`` value of a one-line report, as the text it holds.
    ``results`` is the last key, and no metadata key or string can hold the
    unescaped ``"results":``."""
    start = report_text.index('"results":') + len('"results":')
    assert report_text.endswith("}")
    return report_text[start:-1]


def test_report_json_round_trips():
    report = run_experiment(small_config(mechanisms=[]))
    text = report.to_json()
    payload = json.loads(text)
    assert payload["checksum"] == report.checksum
    assert payload["results"]["passed"] is True
    assert "wall_time_seconds" in payload["metadata"]
    assert payload["results"] == report.results
    # the report is canonical JSON whose results text is the hashed bytes
    assert text == json.dumps({"checksum": report.checksum, "results": report.results,
                               "metadata": report.metadata},
                              sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert hashlib.sha256(results_text(text).encode()).hexdigest() == report.checksum


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


def test_cli_run_report_verifies_from_its_own_bytes(tmp_path, capsys, monkeypatch):
    dumps, dumped = json.dumps, []

    def counting_dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and obj.get("schema") == harness._REPORT_SCHEMA:
            dumped.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    config = write_cli_config(tmp_path)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
    assert len(dumped) == 1   # the results are serialized once per run
    printed = capsys.readouterr().out.splitlines()
    text = out.read_text()
    assert text.endswith("}\n") and text.count("\n") == 1
    checksum = hashlib.sha256(results_text(text[:-1]).encode()).hexdigest()
    assert json.loads(text)["checksum"] == checksum
    assert printed[-2:] == [f"checksum: {checksum}", "PASS"]

    # Without --out the same canonical payload is printed, metadata aside.
    assert main(["run", "--config", str(config), "--seed", "5"]) == 0
    assert len(dumped) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [f"checksum: {checksum}", "PASS"]
    assert results_text(lines[0]) == results_text(text[:-1])
    printed_payload, written_payload = json.loads(lines[0]), json.loads(text)
    assert lines[0] == dumps(printed_payload, sort_keys=True, separators=(",", ":"),
                             allow_nan=False)
    del printed_payload["metadata"], written_payload["metadata"]
    assert printed_payload == written_payload


def test_cli_verify_cholesky(capsys):
    assert main(["verify-cholesky", "--cases", "30", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "PASS"
    # every maximum is printed with the tolerance it is checked against
    for prefix, tol in [("max |LL^T", "1.0e-10"), ("max |U_streaming", "1.0e-09"),
                        ("max |L - oracle|", "1.0e-08")]:
        assert any(line.startswith(prefix) and f"(tolerance {tol})" in line
                   for line in lines), prefix


def test_cli_emit_transcripts(tmp_path):
    config = write_cli_config(tmp_path)
    out = tmp_path / "t.csv"
    code = main(["emit-transcripts", "--config", str(config), "--out", str(out),
                 "--kinds", "simulated"])
    assert code == 0
    assert len(parse_transcripts(out)) == 300


def test_cli_emit_transcripts_rejects_empty_kinds(tmp_path, capsys):
    config = write_cli_config(tmp_path)
    out = tmp_path / "t.csv"
    # a repeated kind would write every arm twice
    for kinds in (",", "", " , ", "direct,nonesuch", "direct,direct",
                  "simulated, simulated", "direct,simulated,direct"):
        assert main(["emit-transcripts", "--config", str(config), "--out", str(out),
                     "--kinds", kinds]) == 2
        assert "--kinds" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_out_directory_fails_before_any_arm_runs(tmp_path, capsys, monkeypatch):
    def no_arm(*args, **kwargs):
        raise AssertionError("an arm ran before the --out check")

    monkeypatch.setattr(harness, "run_trial_batch", no_arm)
    config = write_cli_config(tmp_path)
    missing = tmp_path / "no" / "such"
    for argv in (["run", "--config", str(config), "--out", str(missing / "r.json")],
                 ["emit-transcripts", "--config", str(config), "--out", str(missing / "t.csv")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: --out: no such directory: {missing}\n", argv


def test_cli_out_naming_a_directory_fails_before_any_arm_runs(tmp_path, capsys,
                                                               monkeypatch):
    def no_arm(*args, **kwargs):
        raise AssertionError("an arm ran before the --out check")

    monkeypatch.setattr(harness, "run_trial_batch", no_arm)
    config = write_cli_config(tmp_path)
    for out in (str(tmp_path), str(tmp_path) + os.sep):
        for command in ("run", "emit-transcripts"):
            assert main([command, "--config", str(config), "--out", out]) == 2
            assert capsys.readouterr().err == f"error: --out: is a directory: {out}\n"
    # run also writes its table to --out + ".tsv": a directory there is
    # reported before any arm runs, and no report file is written.
    out = tmp_path / "r.json"
    (tmp_path / "r.json.tsv").mkdir()
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: is a directory: {out}.tsv\n"
    assert not out.exists()


def test_cli_write_error_is_a_one_line_usage_error(tmp_path, capsys):
    # --out passes the early checks (its directory exists and it is not
    # one), the run completes, then open fails: the name is too long.
    config = write_cli_config(tmp_path)
    for command in ("run", "emit-transcripts"):
        out = tmp_path / ("x" * 300)
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and err.count("\n") == 1, err


def test_console_script_resolves_to_cli_main():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gdpsim"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


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
    bad.write_text(json.dumps({"budget": 1.0, "n_trials": 1, "policies": [
        {"name": "fixed", "spends": [0.5]}, {"name": "fixed", "spends": [0.5]}]}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "policies[1]: repeats" in capsys.readouterr().err
    bad.write_text(json.dumps({"budget": 1.0, "n_trials": 1, "policies": [
        {"name": "sign-adaptive", "hi": 0.8, "lo": 0.2}]}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "policies[0]: unknown policy 'sign-adaptive'" in capsys.readouterr().err
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
