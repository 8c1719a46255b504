"""Fixed reference work that gauges how fast the machine runs right now.

On a shared host the speed available to exact ``Fraction`` arithmetic drifts
with co-tenant load: whole stretches of seconds to tens of minutes run up to
twice as slow.  The benchmark times this fixed piece of standard-library work
(``Fraction`` construction and addition, tuple keys, dict updates: the mix the
package spends its time on) beside every operation, and reports each
operation's time scaled to a pinned reference speed:

    scaled = op_time / gauge_time * REF_SECONDS

where ``gauge_time`` is the mean of the gauge runs just before and just after
the operation.  ``REF_SECONDS`` is what the gauge took on a quiet 2-vCPU
Intel Xeon VM under Python 3.11.7, so a scaled time reads as the operation's
wall time on that machine.  The gauge does not touch ``codonbranch``: a
change to the package moves scaled times exactly as it moves wall times.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

ROUNDS = 5000
REF_SECONDS = 0.042
EXPECTED = Fraction(15625, 6)


def reference_work(rounds: int = ROUNDS) -> Fraction:
    acc = {}
    for i in range(rounds):
        w = (Fraction(i % 7, 2), Fraction(-(i % 5), 3), i % 3)
        acc[w] = acc.get(w, 0) + Fraction(1, 1 + i % 4)
    return sum(acc.values())


def gauge() -> float:
    """Wall time of one run of the reference work, in seconds.  The cyclic
    garbage collector is off meanwhile, so that the size of the heap the
    package has built does not change the gauge."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = reference_work()
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"reference work gave {result}, expected {EXPECTED}")
    return dt


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference speed, given the gauge times just
    before and just after it was measured."""
    return seconds / ((before + after) / 2) * REF_SECONDS
