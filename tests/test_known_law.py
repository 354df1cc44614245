"""Each arm against the exact law of its padded privacy-loss statistic.

For a trial with accepted spends ``mu_i`` and answers ``a_i``, ``X = sum
mu_i a_i`` and ``S = sum mu_i**2``.  Given the past, each answer is
``N(b mu_i, 1)``, so ``M = X - b S`` is a martingale with ``N(0, mu_i**2)``
increments.  Padding it with one independent normal ``Z`` up to the total
variance ``mu0**2``,

    T = (M + sqrt(max(mu0**2 - S, 0)) Z) / mu0,

gives ``T ~ N(0, 1)`` exactly for any stopping rule the filter admits
(Rogers-Roth-Ullman-Vadhan, arXiv:1605.08294).  Unlike the harness's
two-arm tests, this checks one arm against a known law, so a defect both
arms would share still fails it.  On the direct arm it tests the draw
plumbing and the stopping rule; on the simulated arm, the factor too.
"""

import numpy as np
import pytest

from gdpsim import batch
from gdpsim.batch import policy_stream_id, run_trial_batch
from gdpsim.rng import generator
from gdpsim.stats import normality_check

N_TRIALS = 5000
SEED = 11
ARMS = [("sign_adaptive", {"hi": 0.8, "lo": 0.2}), ("fixed", {"spends": [0.125] * 64})]


def padded_statistic(res, kind, name, params, bit, mu0=1.0):
    """Each trial's ``T``, read from the arm's result matrices, with ``Z``
    from the arm's own pad stream."""
    accepted = res.decisions == 1
    spends = np.where(accepted, res.spends, 0.0)
    x = (spends * np.where(accepted, res.answers, 0.0)).sum(axis=1)
    s = (spends * spends).sum(axis=1)
    z = generator(SEED, "pad", kind, policy_stream_id(name, params), bit).standard_normal(
        res.n_trials)
    return (x - bit * s + np.sqrt(np.maximum(mu0 * mu0 - s, 0.0)) * z) / mu0


def law_p_value(kind, name, params, bit):
    res = run_trial_batch(kind, bit, 1.0, name, params, N_TRIALS, SEED)
    return normality_check(padded_statistic(res, kind, name, params, bit)).p_value


@pytest.mark.parametrize("name,params", ARMS)
@pytest.mark.parametrize("kind", ["direct", "simulated"])
@pytest.mark.parametrize("bit", [0, 1])
def test_padded_statistic_follows_the_standard_normal(name, params, kind, bit):
    assert law_p_value(kind, name, params, bit) > 1e-6


@pytest.mark.parametrize("name,params", ARMS)
def test_a_sign_flip_in_the_factor_step_fails_the_law(monkeypatch, name, params):
    # The planted defect turns U = -m s + d V into m s + d V.  Only the
    # simulated arm runs the factor, so the direct arm still passes.
    step = batch.stream_step

    def flipped(o, q, q_comp, s, m, v):
        u, *state = step(o, q, q_comp, s, m, v)
        return (u + 2.0 * m * s, *state)

    monkeypatch.setattr(batch, "stream_step", flipped)
    assert law_p_value("simulated", name, params, 1) < 1e-12
    assert law_p_value("direct", name, params, 1) > 1e-6
