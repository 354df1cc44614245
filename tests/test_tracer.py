"""The benchmark's tracer still reaches the layers it times.

``perfbench/spans.py`` wraps gdpsim names by hand.  Deleting, renaming or
bypassing one of them leaves its layer at zero in a traced benchmark run
without any error, so this test loads the tracer unedited, runs each entry
point under it, and requires every layer's call count to be nonzero.
"""

import importlib.util
import json
from pathlib import Path

import gdpsim
import gdpsim.cli

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_namespaces():
    return (gdpsim.cli, gdpsim.harness, gdpsim.batch, gdpsim.curator,
            gdpsim.batch.DrawTableau, gdpsim.harness.ExperimentReport)


def test_tracer_counts_every_layer(tmp_path):
    spans = load_spans()
    config = tmp_path / "tiny.cfg"
    config.write_text(json.dumps({
        "budget": 1.0, "n_trials": 20, "bits": [1], "min_test_samples": 10,
        "policies": [{"name": "fixed", "spends": [0.6, 0.8]},
                     {"name": "overspend_prober"}],
        "mechanisms": [{"name": "threshold", "mu": 1.0, "tau": 0.5}],
    }))
    before = [dict(vars(ns)) for ns in patched_namespaces()]
    tracer = spans.Tracer()
    undo = spans.install(tracer, gdpsim)
    counts = {}
    try:
        gdpsim.harness.verify_cholesky(seed=1, cases=5, max_len=8)
        counts["verify"] = dict(tracer.counts)
        for engine in ("scalar", "vector"):
            tracer.begin_call()
            out = tmp_path / f"{engine}.json"
            assert gdpsim.cli.main(["run", "--config", str(config),
                                    "--engine", engine, "--out", str(out)]) == 0
            counts[engine] = dict(tracer.counts)
    finally:
        undo()
    assert [dict(vars(ns)) for ns in patched_namespaces()] == before

    evaluation = ["stats.empirical_moments", "stats.covariance_deviation",
                  "stats.normality_check"]
    expected = {
        "verify": ["cholesky.next_noise"],
        "scalar": ["budget.try_spend", "curator.run_interaction",
                   "cholesky.next_noise", "stats.ks_two_sample", *evaluation],
        "vector": ["adversaries.spends", "stats.ks_two_sample", *evaluation],
    }
    for run, names in expected.items():
        for name in names:
            assert counts[run].get(name, 0) > 0, (run, name)
