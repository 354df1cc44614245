"""The shared kernels on arrays of lanes against the same kernels on floats.

One array call over mixed lanes must equal, bit for bit, the float call on
each lane's values -- including the branches the engine-level tests rarely
reach: zero spends, exhausted lanes, clamp-band debris, over-budget spends
and lanes with no accepted answer yet.
"""

import math

import numpy as np
import pytest

from gdpsim.adversaries import STOP_TOL, make_policy
from gdpsim.budget import admit
from gdpsim.cholesky import CLAMP_BAND, stream_step
from gdpsim.errors import BudgetOverflowError


def assert_lanes_match(kernel, *args):
    """Call ``kernel`` once on the array arguments and once per lane on
    floats; every output must agree bitwise lane by lane."""
    n = next(len(a) for a in args if isinstance(a, np.ndarray))
    whole = kernel(*args)
    for lane in range(n):
        one = kernel(*(float(a[lane]) if isinstance(a, np.ndarray) else a for a in args))
        assert len(one) == len(whole)
        for w, f in zip(whole, one):
            assert type(f) in (float, bool), type(f)   # no NumPy on the float path
            w = np.asarray(w)
            assert w.shape == (n,)
            assert w[lane].tobytes() == np.asarray(f, dtype=w.dtype).tobytes(), (lane, w[lane], f)


def test_admit_lanes():
    tight = math.sqrt(0.64) * (1.0 + 2.0 ** -42)   # admitted only through the slack
    lanes = [
        # spent_sq, comp, mu
        (0.0, 0.0, 0.6),           # ordinary admission
        (0.0, 0.0, 0.0),           # zero spend, fresh ledger
        (0.36, 1e-17, 0.0),        # zero spend leaves a compensated ledger alone
        (0.36, 0.0, 0.8),          # analytically tight, admitted
        (0.36, 0.0, tight),        # inside the comparison slack
        (0.36, 0.0, 0.9),          # over budget, refused
        (1.0, 0.0, 0.0),           # exhausted, zero spend admitted
        (1.0, 0.0, 1e-7),          # exhausted, positive spend refused
        (1.0 + 2.0 ** -52, 0.0, 0.0),   # past the budget by rounding
        (0.5, -1e-17, 2.0),        # far over budget
    ]
    spent, comp, mu = (np.array(col) for col in zip(*lanes))
    assert_lanes_match(admit, spent, comp, 1.0, mu)
    admitted, total, _ = admit(spent, comp, 1.0, mu)
    assert admitted.tolist() == [True, True, True, True, True, False, True, False, True, False]
    assert total[2] == 0.36 and total[3] == 1.0


def test_stream_step_lanes():
    debris = math.sqrt(1e-13)
    lanes = [
        # q, q_comp, s, m, v
        (0.0, 0.0, 0.0, 0.6, 1.3),             # first step
        (0.36, 0.0, 0.5, 0.0, -0.7),           # zero spend before exhaustion
        (0.36, 0.0, 0.4, 0.8, 0.2),            # reaches Q = 1 exactly
        (0.36, 0.0, 0.4, math.sqrt(0.64 + 5e-13), 0.2),   # overshoot inside the band
        (1.0, 0.0, 0.3, 0.0, 0.9),             # exhausted, zero spend
        (1.0, 0.0, 0.3, debris, -1.1),         # exhausted, clamp-band debris
        (1.0 + 4e-13, 1e-29, -0.2, debris, 0.4),   # exhausted past 1 by the band
        (0.999999, 1e-22, 2.5, 5e-4, 0.6),     # deep near exhaustion
        (0.5, 0.0, -1.0, 0.5, 0.0),            # zero seed
    ]
    q, q_comp, s, m, v = (np.array(col) for col in zip(*lanes))
    assert m[5] * m[5] <= CLAMP_BAND
    assert_lanes_match(stream_step, q, q_comp, s, m, v)
    u, q_new, _, s_new = stream_step(q, q_comp, s, m, v)
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
    with pytest.raises(BudgetOverflowError):
        stream_step(q, 0.0, 0.0, m, 1.0)
    qs = np.array([0.0, q, 0.36])
    ms = np.array([0.6, m, 0.8])
    with pytest.raises(BudgetOverflowError):
        stream_step(qs, np.zeros(3), np.zeros(3), ms, np.ones(3))


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
