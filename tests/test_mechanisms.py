"""Mechanisms: registry, Gaussian-CDF oracle frequencies, session reduction.

Threshold probabilities frozen from the normal CDF oracle:
P[X > 0.5] = 0.3085375387259869 for X ~ N(0,1), 0.6914624612740131 for
X ~ N(1,1).
"""

import math

import numpy as np
import pytest

from gdpsim.batch import run_trial_batch
from gdpsim.curator import open_session
from gdpsim.mechanisms import (
    PostprocessedMechanism,
    make_mechanism,
    mechanism_names,
    reduce_and_serve,
)
from gdpsim.rng import generator
from gdpsim.stats import normal_cdf, two_proportion_z

P_HI = 0.6914624612740131
P_LO = 0.3085375387259869


def direct_outcomes(mech, b, rng, n):
    """n outcomes of the mechanism run directly on bit b: ``post`` of
    ``b*mu + Z``, as the harness's direct arm applies it."""
    return mech.post(b * mech.mu + rng.standard_normal(n), rng)


def test_registry():
    assert set(mechanism_names()) == {"identity", "threshold", "sign", "round_to_integer"}
    assert make_mechanism("round-to-integer", 0.5).name == "round_to_integer"
    with pytest.raises(ValueError):
        make_mechanism("nonesuch", 0.5)
    with pytest.raises(TypeError):
        make_mechanism("threshold", 0.5)  # tau required
    with pytest.raises(ValueError):
        make_mechanism("identity", -1.0)


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
            outs = mech.post(res.round_answers(0), None)
            counts[kind] = int(outs.sum())
        rep = two_proportion_z(counts["direct"], n, counts["simulated"], n)
        assert rep.passed, rep


def test_identity_through_full_budget_simulated_session():
    mech = make_mechanism("identity", 1.0)
    session = open_session("simulated", 1, 1.0, 42)
    out = reduce_and_serve(session, mech)
    assert out == session.w0


def test_reduction_propagates_refusal():
    mech = make_mechanism("identity", 1.0)
    session = open_session("simulated", 1, 1.0, 42)
    assert reduce_and_serve(session, mech) is not None
    assert reduce_and_serve(session, mech) is None  # budget exhausted


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


def test_randomized_post_uses_its_own_stream():
    noisy = PostprocessedMechanism(
        "noisy_identity", 0.5,
        post=lambda x, rng: x + float(rng.standard_normal()),
    )
    core_a = open_session("simulated", 1, 1.0, 5)
    core_b = open_session("simulated", 1, 1.0, 5)
    out_a = reduce_and_serve(core_a, noisy, post_rng=generator(1, "post"))
    out_b = reduce_and_serve(core_b, noisy, post_rng=generator(2, "post"))
    # same Gaussian core (same session seed), different postprocessing noise
    assert core_a.draws == core_b.draws
    assert out_a != out_b


def test_post_on_an_array_matches_post_on_each_float():
    # One array call must equal the per-value float calls bit for bit,
    # including signed zeros, the threshold itself and rint's half-to-even ties.
    edges = [0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5, 1e-300, -1e300, 0.49999999999999994]
    xs = np.concatenate([edges, generator(6, "postcheck").standard_normal(500)])
    for name, kwargs in [("identity", {}), ("threshold", {"tau": 0.5}),
                         ("sign", {}), ("round_to_integer", {})]:
        mech = make_mechanism(name, 0.5, **kwargs)
        whole = mech.post(xs, None)
        assert isinstance(whole, np.ndarray) and whole.dtype == np.float64
        assert whole.shape == xs.shape
        for x, w in zip(xs, whole):
            one = mech.post(float(x), None)
            assert type(one) is float, (name, type(one))
            assert w.tobytes() == np.float64(one).tobytes(), (name, x, w, one)
