"""Reference kernel that tracks the speed of the machine during a run.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes.  The benchmark times this kernel before every timed step
and scales the step's wall time by ``REFERENCE_NS / local kernel time``, so
timings read as milliseconds at one fixed reference speed.  The kernel
touches no crackedbeam code: a Python loop over small numpy calls, the mix of
interpreter overhead and tiny LAPACK calls that the package's hot paths have.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel duration that defines the reference speed.
REFERENCE_NS = 2_000_000

_MATRIX = np.arange(36.0).reshape(6, 6) + 10.0 * np.eye(6)


def _kernel() -> float:
    acc = 0.0
    for i in range(150):
        scaled = _MATRIX * (1.0 + 1e-3 * i)
        rows = np.max(np.abs(scaled), axis=1)
        acc += float(np.linalg.det(scaled / rows[:, None]))
        acc += math.sin(0.1 * i) * math.cosh(1e-3 * i)
    return acc


def sample_ns() -> int:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - t0


def rescale(durations_ns: list[int], refs_ns: list[int]) -> list[float]:
    """Durations at reference speed.

    ``refs_ns[k]`` was sampled just before ``durations_ns[k]``, and one more
    sample follows the last duration.  Each duration is scaled by the median
    of the four samples nearest to it.
    """
    return [
        d * REFERENCE_NS / statistics.median(refs_ns[max(0, k - 1) : k + 3])
        for k, d in enumerate(durations_ns)
    ]
