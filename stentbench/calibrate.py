"""Host-speed calibration for the benchmark's end-to-end times.

The host's speed swings under the load of other tenants: identical rounds
of one workload took from 2.2 s to 4.0 s on a shared 2-core machine, in
phases that last minutes, so raw medians of two sets of runs can differ
by far more than any bound worth gating on.  ``kernel_seconds`` times a
fixed kernel made of what one explicit step is made of (interpreter
dispatch and calls on 101-element numpy arrays).  It uses no stentsim
code, so no change to the program moves it.  The benchmark reports
``wall_s`` and ``setup_s`` as measured times scaled by REFERENCE_S over
the kernel's time measured around them: seconds on a host where the
kernel takes REFERENCE_S.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = 0.120  # near the kernel's time on a lightly loaded 2.1 GHz host
ITERATIONS = 30000


def kernel_seconds() -> float:
    d = np.full(101, 4.0 / 6.0)
    o = np.full(100, 1.0 / 6.0)
    x = np.linspace(0.0, 1.0, 101)
    y = np.empty(101)
    acc = 0.0
    t0 = perf_counter()
    for _ in range(ITERATIONS):
        # an averaging tridiagonal matvec: row sums are 1, values stay in [0, 1]
        np.multiply(d, x, out=y)
        y[:-1] += o * x[1:]
        y[1:] += o * x[:-1]
        acc += float(np.dot(y, x))
        x, y = y, x
    return perf_counter() - t0


def scaled(seconds: float, kernel: float) -> float:
    """A time measured while the kernel took ``kernel`` seconds, in
    reference-host seconds."""
    return seconds * REFERENCE_S / kernel
