"""How fast the host runs Python right now, from a frozen reference loop.

On a machine whose CPUs are shared with other tenants, the same leg can take
twice as long for minutes at a time, and process CPU time grows with it, so
no timer separates the program from the host.  :func:`probe` times a fixed
loop of the same kind of work the engine does (small dicts, tuples, string
keys, list stores) right before and after each leg and set-up.  Timings are
then reported at the reference speed: multiplied (throughput) or divided
(durations) by ``probe time / REFERENCE_S``.  The loop is part of the
benchmark and never changes with the program, so a slower program still
reads slower.
"""

from __future__ import annotations

import gc
import time

#: probe time that defines the reference speed.  It only sets the scale:
#: about what the probe takes on a lightly loaded 2-vCPU virtual machine.
REFERENCE_S = 0.080
#: iterations of the reference loop.
ITERATIONS = 120_000


def _reference_loop(n: int) -> int:
    # a ring of 1024 rows: allocation churn like a stream, but a footprint
    # small enough to leave the benchmark's peak RSS alone
    rows: list = [None] * 1024
    counts: dict = {}
    for i in range(n):
        key = "k%d" % (i % 97)
        counts[key] = counts.get(key, 0) + 1
        rows[i & 1023] = {"a": i, "b": (i, i * 0.5, key)}
    return len(counts)


def probe() -> float:
    """Seconds the reference loop takes now, with the cyclic collector off
    so the program's heap does not leak into the measure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_loop(ITERATIONS)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowdown(before: float, after: float) -> float:
    """Host slowdown against the reference speed, from probes around a timing.

    The faster probe is taken: work that outlives the timing (worker daemons
    tearing a session down) can only slow the probe after it.
    """
    return min(before, after) / REFERENCE_S
