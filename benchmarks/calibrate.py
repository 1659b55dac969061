"""Machine speed, measured with a fixed kernel beside the workload.

On a shared host the speed of a vCPU drifts by up to 2x over tens of
seconds while nothing in the process changes: a fixed busy loop sampled
once a second on the 2-vCPU machine the reference figures come from ran
at 0.5 to 1.0 of its best rate, with 20-second means from 0.60 to 0.77.
Op times follow the drift.  The benchmark therefore times this kernel,
which does no odflow work, next to the ops, and scales op times by
``REFERENCE_MS / kernel time``.  Scaled times read as milliseconds at the
speed at which the kernel takes ``REFERENCE_MS``; a change to odflow moves
them, a change in the host's speed mostly does not.  Set-up time is not
scaled: a kernel sample right after a fresh import did not follow it.

The kernel mixes interpreter work (dict updates, small loops) with small
dense LAPACK solves and numpy array operations, as odflow's solvers do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Median kernel time in ms on that machine (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1) over 40 seconds of its usual drift.
REFERENCE_MS = 1.2

_RNG = np.random.default_rng(0)
_M = _RNG.random((12, 12)) + 12.0 * np.eye(12)
_B = _RNG.random(12)


def _kernel():
    table: dict = {}
    for i in range(600):
        key = (i % 13, i % 7)
        table[key] = table.get(key, 0.0) + float(i)
    x = _B
    for _ in range(30):
        lu = lu_factor(_M)
        x = lu_solve(lu, x)
        x = np.maximum(_M.T @ x, 0.0) / (1.0 + float(x.sum()))
    return table, x


def kernel_ms(repeats: int = 3) -> float:
    """Median time of ``repeats`` kernel runs, in ms."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _kernel()
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(samples)
