"""Reference-scaled timing.

Wall-clock seconds on a shared virtual machine drift by tens of per cent
between windows of a few seconds, so no operation is reported in raw
seconds.  Each operation is timed right after a fixed reference kernel,
and the next operation's reference run closes it; the operation's time is
divided by the mean of those two reference times and multiplied by the
kernel's nominal duration ``REF_NOMINAL_S``.  The result reads as "seconds
on a host where the reference kernel takes exactly REF_NOMINAL_S".

The kernel uses only the standard library -- exact ``Fraction`` arithmetic
and tuple-keyed dict churn, the two things qcframe spends its time on --
and calls no qcframe code, so a change to qcframe cannot move it.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction
from typing import Callable, List

REF_NOMINAL_S = 0.06
REF_ROUNDS = 7000


def reference_kernel() -> int:
    """A fixed stdlib workload; returns a checksum so nothing is skipped."""
    table = {}
    for i in range(REF_ROUNDS):
        key = (i % 53, i % 7)
        f = Fraction(i % 19 - 9, i % 11 + 1)
        g = Fraction(i % 7 + 1, i % 3 + 2)
        cur = table.get(key)
        table[key] = f * g if cur is None else cur + f * g
        if i % 97 == 0:
            table.pop(((i // 97) % 53, i % 7), None)
    return len(table) + sum(v.denominator for v in table.values())


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Segment:
    """A sequence of operations, each timed right after a reference run.

    ``run`` returns the operation's output; ``close`` takes the final
    reference run and returns the reference-scaled time of every
    operation, in order.  ``raw`` and ``refs`` keep the raw seconds of
    the operations and of the reference runs around them.
    """

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.refs: List[float] = []

    def run(self, fn: Callable[[], object]):
        gc.collect()
        self.refs.append(time_reference())
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.raw.append(time.perf_counter() - t0)

    def close(self) -> List[float]:
        gc.collect()
        self.refs.append(time_reference())
        r = self.refs
        return [op / ((r[i] + r[i + 1]) / 2) * REF_NOMINAL_S for i, op in enumerate(self.raw)]
