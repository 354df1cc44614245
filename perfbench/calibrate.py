"""Reference kernels that track the machine's speed next to each timed call.

On a shared machine the speed available to one process drifts by 10-20%
over tens of seconds, far more than the run-to-run noise of the calls
themselves.  The benchmark therefore times three fixed kernels right after
every timed call and reports the call's time scaled by the machine's speed
relative to a reference machine, weighting the kernels by the workload's
``speed_mix`` (see ``workloads.WORKLOADS``).  Set-up time is scaled by the
``python`` kernel alone.  The kernels never touch gdpsim:

  python  interpreted float arithmetic through a small function
  small   NumPy operations on short vectors (call overhead dominates)
  large   NumPy normal generation, sorting and row de-duplication
"""

from __future__ import annotations

import math
from time import perf_counter

# Median kernel times on a 2-core Intel Xeon VM (Python 3.11.7, NumPy 2.4.6,
# one BLAS thread).
REFERENCE_S = {"python": 0.019, "small": 0.012, "large": 0.05}


def _step(total, comp, x):
    y = x - comp
    t = total + y
    return t, (t - total) - y


def _python(np):
    total = comp = 0.0
    for i in range(60_000):
        total, comp = _step(total, comp, math.sqrt(i + 0.5))


def _small(np):
    v = np.random.Generator(np.random.PCG64(1)).standard_normal(24)
    for j in range(4_000):
        float(v[: j % 24] @ v[: j % 24]) + np.empty(j % 24 + 1).size


def _large(np):
    g = np.random.Generator(np.random.PCG64(2))
    for _ in range(3):
        a = g.standard_normal((2000, 160))
        np.unique((a[:, :10] > 0.5).astype(np.uint8), axis=0, return_counts=True)
        np.sort(a.ravel())


KERNELS = {"python": _python, "small": _small, "large": _large}


def kernel_times(np):
    times = {}
    for name, fn in KERNELS.items():
        t0 = perf_counter()
        fn(np)
        times[name] = perf_counter() - t0
    return times


def speed(times, mix):
    """The machine's speed relative to the reference machine, weighting each
    kernel's speed by ``mix``."""
    return sum(w * REFERENCE_S[k] / times[k] for k, w in mix.items()) / sum(mix.values())
