"""Mechanisms: registry, Gaussian-CDF oracle frequencies, edge-value maps.

Threshold probabilities frozen from the normal CDF oracle:
P[X > 0.5] = 0.3085375387259869 for X ~ N(0,1), 0.6914624612740131 for
X ~ N(1,1).
"""

import math
import re

import numpy as np
import pytest

from gdpsim.batch import run_trial_batch
from gdpsim.mechanisms import make_mechanism, mechanism_names
from gdpsim.rng import generator
from gdpsim.stats import normal_cdf, two_proportion_z

P_HI = 0.6914624612740131
P_LO = 0.3085375387259869


def direct_outcomes(mech, b, rng, n):
    """n outcomes of the mechanism run directly on bit b: ``post`` of
    ``b*mu + Z``, as the harness's direct arm applies it."""
    return mech.post(b * mech.mu + rng.standard_normal(n))


def test_registry():
    assert set(mechanism_names()) == {"identity", "threshold", "sign", "round_to_integer"}
    # One spelling per name: a hyphenated alias is an unknown mechanism.
    for name in ("round-to-integer", "nonesuch"):
        with pytest.raises(ValueError, match=re.escape(
                f"unknown mechanism {name!r}; known: identity, round_to_integer, "
                "sign, threshold")):
            make_mechanism(name, 0.5)
    with pytest.raises(TypeError):
        make_mechanism("threshold", 0.5)  # tau required
    with pytest.raises(ValueError):
        make_mechanism("identity", -1.0)
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match=re.escape(
                f"spend must be a finite real number >= 0, got {flag!r}")):
            make_mechanism("identity", flag)
    # tau is a finite real: a bool (float reads it as 0 or 1), text (float
    # would parse it) or a non-finite value (a constant map) is refused.
    for tau in (True, False, np.True_, float("nan"), float("inf"), -float("inf"), "nan",
                "0.5"):
        with pytest.raises(ValueError, match=re.escape(
                f"tau must be a finite real number, got {tau!r}")):
            make_mechanism("threshold", 0.5, tau=tau)
    for tau, outcomes in ((0.5, [0.0, 0.0, 1.0]), (-1, [0.0, 1.0, 1.0])):
        post = make_mechanism("threshold", 0.5, tau=tau).post
        assert post(np.array([-1.5, 0.4, 0.6])).tolist() == outcomes


def test_identity_sample_law():
    mech = make_mechanism("identity", 0.5)
    rng = generator(1, "mech-identity")
    n = 20000
    vals = direct_outcomes(mech, 1, rng, n)
    assert abs(vals.mean() - 0.5) < 4.0 / math.sqrt(n)
    assert abs(vals.var(ddof=1) - 1.0) < 5.0 / math.sqrt(n)


def test_threshold_frequencies_match_cdf_oracle():
    mech = make_mechanism("threshold", 1.0, tau=0.5)
    rng = generator(2, "mech-threshold")
    n = 20000
    for b, target in ((0, P_LO), (1, P_HI)):
        hits = direct_outcomes(mech, b, rng, n).sum()
        bound = 4.0 * math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) < bound


def test_threshold_direct_vs_simulated_two_proportion():
    mech = make_mechanism("threshold", 1.0, tau=0.5)
    n = 20000
    for b in (0, 1):
        counts = {}
        for kind in ("direct", "simulated"):
            res = run_trial_batch(kind, b, 1.0, "fixed", {"spends": [1.0]}, n, 77)
            outs = mech.post(res.answers[res.decisions[:, 0] == 1, 0])
            counts[kind] = int(outs.sum())
        rep = two_proportion_z(counts["direct"], n, counts["simulated"], n)
        assert rep.passed, rep


def test_round_mechanism_modal_outcome():
    mech = make_mechanism("round_to_integer", 0.6)
    rng = generator(3, "mech-round")
    n = 20000
    vals = direct_outcomes(mech, 0, rng, n)
    values, counts = np.unique(vals, return_counts=True)
    assert values[np.argmax(counts)] == 0.0
    # oracle bin probability P[round(X) = 0] = Phi(.5) - Phi(-.5)
    p0 = normal_cdf(0.5) - normal_cdf(-0.5)
    frac = counts[values == 0.0][0] / n
    assert abs(frac - p0) < 4.0 * math.sqrt(p0 * (1 - p0) / n)


def test_sign_mechanism_is_binary():
    mech = make_mechanism("sign", 0.7)
    rng = generator(4, "mech-sign")
    vals = set(direct_outcomes(mech, 1, rng, 200).tolist())
    assert vals <= {-1.0, 1.0}
    assert mech.binary


def test_post_maps_edge_values_to_their_stated_outcomes():
    # Signed zeros, the threshold itself, rint's half-to-even ties and the
    # largest double below 0.5, each against its outcome, compared bitwise
    # so a sign lost on a zero shows.
    xs = np.array([0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5, 0.49999999999999994])
    cases = [
        ("identity", {}, xs),
        ("threshold", {"tau": 0.5}, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]),
        ("threshold", {"tau": -0.5}, [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
        ("sign", {}, [-1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0]),
        ("round_to_integer", {}, [0.0, -0.0, 0.0, -0.0, 2.0, 2.0, -2.0, 0.0]),
    ]
    for name, kwargs, expected in cases:
        out = make_mechanism(name, 0.5, **kwargs).post(xs)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64, name
        assert out.tobytes() == np.asarray(expected, dtype=float).tobytes(), (name, out)
