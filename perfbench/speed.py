"""A reference kernel that tracks how fast the shared machine runs Python.

On a shared 2-core machine, the same operations on the same inputs took
10-30 % longer in one run than in another, and the speed also drifts within
a run.  A fixed interpreter-bound kernel slows down with them: over repeated
runs of one seed, operation time divided by kernel time varied 4 times less
than operation time alone.

So the runner runs `probe()` between operations, outside the timed region,
and before and after each set-up.  `to_reference` scales a wall time by
REF_KERNEL_S over the mean of the two probes that bracket it.  Such a
reference second is a wall-clock second on a machine where the kernel takes
REF_KERNEL_S.  The kernel is part of the
benchmark, not of the program: a change to cantorfull cannot make it faster.
Collection is paused while it runs, so a larger program heap does not slow it.
"""

import gc
from time import perf_counter

REF_KERNEL_S = 0.010  # about the median kernel time on the 2-core machine used for tuning
PERIOD_S = 0.1  # operation time between probes

_TABLE = {(i, j): i * j for i in range(16) for j in range(16)}
_WORDS = [tuple((i >> k) & 1 for k in range(6)) for i in range(64)]


def kernel():
    """Dict lookups, tuple slicing, set membership and calls, like the
    branch-table and antichain work of the package."""
    seen = set()
    total = 0
    for rep in range(128):
        for w in _WORDS:
            key = (w[0] + 2 * w[1] + rep) & 15, (w[2] + 2 * w[3]) & 15
            total += _TABLE.get(key, 0)
            prefix = w[: (rep & 3) + 1]
            if prefix in seen:
                total += len(prefix)
            else:
                seen.add(prefix)
            total += max(w) - min(w)
    return total


def probe():
    """Seconds one kernel run takes, with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds, before, after):
    """Wall seconds bracketed by two probes, in reference seconds."""
    return seconds * 2 * REF_KERNEL_S / (before + after)
