"""Machine-speed probes, so that timings do not follow a shared host's load.

On a host whose cores are shared with other machines, the same Python code
runs up to 1.7 times slower for tens of seconds at a time, in CPU time as
well as wall time, while another tenant is busy.  That drift is far wider
than any bound a benchmark could keep.  So the benchmark times a fixed probe
kernel right before and after each timed interval, and scales the interval
by how much slower than its reference time the probe ran around it:

    scaled = elapsed * REFERENCE_S[kind] / mean(probe before, probe after)

A scaled time is the time the interval would have taken on a machine where
the probe takes its reference time, as on an unloaded 2-vCPU Xeon VM under
Python 3.11.  The probes are benchmark code, so a change to the engine moves
scaled times exactly as it moves wall times.

Contention slows interpreter-bound code and long-integer arithmetic by
different factors, so there are two kernels and each workload uses the one
whose instruction mix matches its operations: ``small`` (many small
``Fraction`` operations, as in the LPs of ``realize``) and ``big``
(``Fraction`` powers and sums with numbers of thousands of digits, as in
``verify``'s evaluation of high-degree monomials).  Scaling by the
mismatched kernel was measured to leave the drift in, or to add to it.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REPEATS = 2


def _small() -> Fraction:
    total = Fraction(0)
    for k in range(400):
        total += Fraction(k % 7 - 3, k % 5 + 2) * Fraction(k % 3 + 2, k % 4 + 3)
    return total


def _big() -> Fraction:
    x, y = Fraction(7, 5), Fraction(11, 13)
    total = Fraction(0)
    for e in range(200, 240):
        total += x**e * y ** (3 * e // 2)
    return total


KERNELS = {"small": _small, "big": _big}
# seconds each kernel takes on the reference machine; only scale factors
REFERENCE_S = {"small": 0.0015, "big": 0.0013}


def probe(kind: str) -> float:
    """Seconds the kernel takes now: best of a few, so one interrupt does not count."""
    kernel = KERNELS[kind]
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(kind: str, before: float, after: float) -> float:
    """Factor that turns a wall time bracketed by these two probes into a scaled time."""
    return REFERENCE_S[kind] / ((before + after) / 2.0)
