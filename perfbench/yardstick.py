"""An in-run measure of the host's speed, for steady end-to-end times.

On the shared 2-vCPU reference host the same pure-Python work runs up to a
third faster or slower from one second to the next, and slow and fast
phases can last a minute, so runs of the same code minutes apart differ by
more than any bound a gate could use.  The benchmark therefore times a
fixed pure-Python loop -- the yardstick, which shares no code with the
program -- before the first measured pass and after every pass, and uses
the yardstick as a control variate: each pass's times are multiplied by
``(REFERENCE_S / y) ** ELASTICITY``, where ``y`` is the mean of the two
yardstick times around the pass.  The gated times are thus adjusted to a
host on which the yardstick takes ``REFERENCE_S``.  The raw wall-clock
figures are printed beside them.

The program's passes slow down less than the yardstick when the host
slows: over six seeds of 20 s on each workload, the slope of log pass time
on log yardstick time was 0.2-0.4 between passes and 0.3-0.7 between runs.
``ELASTICITY`` is fixed at 0.5 in that range; with it the six-seed spread of
throughput fell from 0.10-0.16 of the median (wall clock) to about 0.04 on
all three workloads, while full scaling (1.0) over-corrected to 0.07-0.14.

Garbage collection is off while the yardstick runs, so a collection of the
program's garbage never lands in the yardstick, and the yardstick's own
objects are freed by reference counting.
"""

from __future__ import annotations

import gc
import time

#: The yardstick's time on the reference host: 2 GHz vCPU, CPython 3, quiet.
REFERENCE_S = 0.004
#: Loop iterations of one yardstick measurement (about 4 ms on that host).
ITERATIONS = 4000
#: How far a pass's times follow the yardstick (see above).
ELASTICITY = 0.5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _loop() -> int:
    """Fixed work of the kind the program does: objects, dicts, bytes, calls."""
    table = {}
    chunks = []
    for i in range(ITERATIONS):
        item = _Item(i & 255, i)
        table[item.key] = item
        chunks.append(b"%d:%d" % (item.key, item.value))
        if len(chunks) > 64:
            b"".join(chunks).split(b":")
            chunks.clear()
    return len(table)


def measure() -> float:
    """Seconds one yardstick loop takes now, with garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Brackets measured work with yardstick readings.

    Create it just before the first measured piece of work; after each piece,
    :meth:`factor` measures again and returns the factor that adjusts that
    piece's wall seconds to the reference host.
    """

    def __init__(self) -> None:
        self._last = measure()

    def factor(self) -> float:
        now = measure()
        around = (self._last + now) / 2
        self._last = now
        return (REFERENCE_S / around) ** ELASTICITY
