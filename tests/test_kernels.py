"""The shared kernels on arrays of lanes against the same kernels on floats.

One array call over mixed lanes (with ``ARRAY_OPS``) must equal, bit for
bit, the float call on each lane's values (with ``FLOAT_OPS``) -- including
the branches the engine-level tests rarely reach: zero spends, exhausted
lanes, clamp-band debris, over-budget spends and lanes with no accepted
answer yet.
"""

import math
import struct

import numpy as np
import pytest

from gdpsim._numeric import ARRAY_OPS, FLOAT_OPS
from gdpsim.adversaries import STOP_TOL, make_policy
from gdpsim.budget import admit
from gdpsim.cholesky import CLAMP_BAND, stream_step
from gdpsim.errors import BudgetOverflowError


def assert_lanes_match(kernel, *args):
    """Call ``kernel`` once on the array arguments with ``ARRAY_OPS`` and
    once per lane on floats with ``FLOAT_OPS``; every output must agree
    bitwise lane by lane."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    whole = kernel(ARRAY_OPS, *args)
    for lane in range(n):
        one = kernel(FLOAT_OPS,
                     *(float(a[lane]) if isinstance(a, np.ndarray) else a for a in args))
        assert len(one) == len(whole)
        for w, f in zip(whole, one):
            assert type(f) in (float, bool), type(f)   # no NumPy on the float path
            w = np.asarray(w)
            assert w.shape == (n,)
            assert w[lane].tobytes() == np.asarray(f, dtype=w.dtype).tobytes(), (lane, w[lane], f)


TIGHT = math.sqrt(0.64) * (1.0 + 2.0 ** -42)   # admitted only through the slack
ADMIT_LANES = [
    # spent_sq, comp, mu
    (0.0, 0.0, 0.6),           # ordinary admission
    (0.0, 0.0, 0.0),           # zero spend, fresh ledger
    (0.36, 1e-17, 0.0),        # zero spend leaves a compensated ledger alone
    (0.36, 0.0, 0.8),          # analytically tight, admitted
    (0.36, 0.0, TIGHT),        # inside the comparison slack
    (0.36, 0.0, 0.9),          # over budget, refused
    (1.0, 0.0, 0.0),           # exhausted, zero spend admitted
    (1.0, 0.0, 1e-7),          # exhausted, positive spend refused
    (1.0 + 2.0 ** -52, 0.0, 0.0),   # past the budget by rounding
    (0.5, -1e-17, 2.0),        # far over budget
]


def test_admit_lanes():
    spent, comp, mu = (np.array(col) for col in zip(*ADMIT_LANES))
    # The filter rule is plain arithmetic and takes no op set.
    assert_lanes_match(lambda o, *a: admit(*a), spent, comp, 1.0, mu)
    admitted, total, _ = admit(spent, comp, 1.0, mu)
    assert admitted.tolist() == [True, True, True, True, True, False, True, False, True, False]
    assert total[2] == 0.36 and total[3] == 1.0


DEBRIS = math.sqrt(1e-13)
STREAM_LANES = [
    # q, q_comp, s, m, v
    (0.0, 0.0, 0.0, 0.6, 1.3),             # first step
    (0.36, 0.0, 0.5, 0.0, -0.7),           # zero spend before exhaustion
    (0.36, 0.0, 0.4, 0.8, 0.2),            # reaches Q = 1 exactly
    (0.36, 0.0, 0.4, math.sqrt(0.64 + 5e-13), 0.2),   # overshoot inside the band
    (1.0, 0.0, 0.3, 0.0, 0.9),             # exhausted, zero spend
    (1.0, 0.0, 0.3, DEBRIS, -1.1),         # exhausted, clamp-band debris
    (1.0 + 4e-13, 1e-29, -0.2, DEBRIS, 0.4),   # exhausted past 1 by the band
    (0.999999, 1e-22, 2.5, 5e-4, 0.6),     # deep near exhaustion
    (0.5, 0.0, -1.0, 0.5, 0.0),            # zero seed
]


def test_stream_step_lanes():
    q, q_comp, s, m, v = (np.array(col) for col in zip(*STREAM_LANES))
    assert m[5] * m[5] <= CLAMP_BAND
    assert_lanes_match(stream_step, q, q_comp, s, m, v)
    u, q_new, _, s_new = stream_step(ARRAY_OPS, q, q_comp, s, m, v)
    # exhausted lanes append the identity-block row: U = -m*s + V, Q and s kept
    for lane in (4, 5, 6):
        assert u[lane] == -m[lane] * s[lane] + v[lane]
        assert q_new[lane] == q[lane] and s_new[lane] == s[lane]
    assert q_new[2] == 1.0 and s_new[2] == s[2]


@pytest.mark.parametrize("q,m", [
    (1.0, 0.1),     # positive spend after exhaustion
    (0.5, 0.9),     # pushes ||m||^2 past 1 beyond the clamp band
])
def test_stream_step_overshoot_raises_in_both_forms(q, m):
    for o in (FLOAT_OPS, ARRAY_OPS):   # ARRAY_OPS on shared floats, then on lanes
        with pytest.raises(BudgetOverflowError):
            stream_step(o, q, 0.0, 0.0, m, 1.0)
    qs = np.array([0.0, q, 0.36])
    ms = np.array([0.6, m, 0.8])
    with pytest.raises(BudgetOverflowError):
        stream_step(ARRAY_OPS, qs, np.zeros(3), np.zeros(3), ms, np.ones(3))


POLICIES = [
    ("fixed", {"spends": [0.6, 0.0, 1.5]}),
    ("sign_adaptive", {"hi": 0.8, "lo": 0.2}),
    ("sign_adaptive", {"hi": 0.5, "lo": 0.0}),
    ("greedy_halving", {}),
    ("overspend_prober", {}),
]


@pytest.mark.parametrize("name,params", POLICIES)
def test_policy_kernel_lanes(name, params):
    remaining = np.array([1.0, 0.5, 0.0, STOP_TOL / 2, STOP_TOL, 1e-13, 0.84, 4.0])
    last = np.array([np.nan, 0.5, -0.3, 0.0, np.nan, 1.2, -0.0, np.nan])
    prev = np.array([np.nan, 0.4, 0.9, 0.0, 1.5, 1e-7, 0.3, 2.0])
    kernel = make_policy(name, **params).spends
    for i in range(5):
        assert_lanes_match(kernel, i, remaining, last, prev)


# --- lane-shared values ------------------------------------------------------
# The vector engine holds a value every live lane shares as a Python float,
# bool or int.  On such arguments each ARRAY_OPS op runs its float form, so a
# kernel call on all-float arguments must be the FLOAT_OPS call, result types
# included; with some lane arguments it must still equal the per-lane calls.

def same_float(a, b):
    """Bitwise equality of two Python floats or bools, type included."""
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


def assert_shared_matches(kernel, *args):
    """``kernel`` on all-float (shared) arguments with ``ARRAY_OPS`` returns
    Python floats and bools, bitwise those of the ``FLOAT_OPS`` call."""
    assert not any(isinstance(a, np.ndarray) for a in args)
    got, want = kernel(ARRAY_OPS, *args), kernel(FLOAT_OPS, *args)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(w) in (float, bool), type(w)
        assert same_float(g, w), (args, g, w)


def assert_mixed_matches(kernel, *args):
    """``kernel`` on shared floats mixed with lane arrays: each output is a
    lane array equal bitwise lane by lane to the per-lane float calls, or a
    shared Python float or bool equal bitwise to every lane's float call."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    whole = kernel(ARRAY_OPS, *args)
    for lane in range(n):
        one = kernel(FLOAT_OPS,
                     *(float(a[lane]) if isinstance(a, np.ndarray) else a for a in args))
        for w, f in zip(whole, one):
            if isinstance(w, np.ndarray):
                assert w.shape == (n,)
                assert w[lane].tobytes() == np.asarray(f, dtype=w.dtype).tobytes(), (lane, w, f)
            else:
                assert same_float(w, f), (lane, w, f)


@pytest.mark.parametrize("spent,comp,mu", ADMIT_LANES)
def test_admit_on_shared_values(spent, comp, mu):
    assert_shared_matches(lambda o, *a: admit(*a), spent, comp, 1.0, mu)


@pytest.mark.parametrize("q,q_comp,s,m,v", STREAM_LANES)
def test_stream_step_on_shared_values(q, q_comp, s, m, v):
    assert_shared_matches(stream_step, q, q_comp, s, m, v)


SHARED_INPUTS = [
    # remaining_sq, last_accepted, prev_spend
    (1.0, math.nan, math.nan),
    (0.5, 0.5, 0.4),
    (0.0, -0.3, 0.9),
    (STOP_TOL / 2, 0.0, 0.0),
    (STOP_TOL, math.nan, 1.5),
    (1e-13, 1.2, 1e-7),
    (0.84, -0.0, 0.3),
]


@pytest.mark.parametrize("name,params", POLICIES)
def test_policy_kernel_on_shared_values(name, params):
    kernel = make_policy(name, **params).spends
    for i in range(5):
        for remaining, last, prev in SHARED_INPUTS:
            assert_shared_matches(kernel, i, remaining, last, prev)


@pytest.mark.parametrize("name,params", POLICIES)
def test_policy_kernel_mixes_shared_and_lane_arguments(name, params):
    # a shared ledger and spend beside answers that differ by lane, and a
    # per-lane ledger beside a shared answer or a per-lane one
    lanes = np.array([np.nan, 0.5, -0.3, 0.0, 1.2, -0.0])
    kernel = make_policy(name, **params).spends
    for i in range(5):
        for remaining, last, prev in SHARED_INPUTS:
            assert_mixed_matches(kernel, i, remaining, lanes, prev)
            assert_mixed_matches(kernel, i, np.full(2, remaining), last, prev)
            assert_mixed_matches(kernel, i, np.full(2, remaining), lanes[:2], prev)


def test_admit_mixes_shared_and_lane_arguments():
    spent, comp, mu = (np.array(col) for col in zip(*ADMIT_LANES))
    for shared_spent, shared_comp, shared_mu in ADMIT_LANES:
        assert_mixed_matches(lambda o, *a: admit(*a), shared_spent, shared_comp, 1.0, mu)
        assert_mixed_matches(lambda o, *a: admit(*a), spent, comp, 1.0, shared_mu)


@pytest.mark.parametrize("q,q_comp,s,m,v", STREAM_LANES)
def test_stream_step_mixes_shared_and_lane_arguments(q, q_comp, s, m, v):
    lanes = np.array([1.3, -0.7, 0.0, 2.2])
    # a lockstep simulated arm: shared Q and spend, per-lane s and seed
    assert_mixed_matches(stream_step, q, q_comp, s + lanes, m, v * lanes)
    # and the first step, where s is still shared
    assert_mixed_matches(stream_step, q, q_comp, s, m, lanes)
    # spends that differ by lane against a shared Q
    ms = np.array([0.0, m, m / 2, math.sqrt(max(0.0, 1.0 - q))])
    assert_mixed_matches(stream_step, q, q_comp, s, ms, lanes)
