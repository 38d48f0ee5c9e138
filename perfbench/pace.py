"""Host pace: a fixed reference loop timed between the benchmark's jobs.

On a shared machine the same code runs tens of percent faster or slower
from one minute to the next, and this drift moves every job alike.  The
benchmark therefore times a fixed pure-Python reference loop, independent
of the package, before the first job and between jobs, and divides each
stretch of job time by the pace measured at its two ends.  On a 2-vCPU
shared host this cut the coefficient of variation of 6 s blocks of
mrrw_params calls from 15 % to 8 %; a numpy loop tracked them less well
(13 %).
The gated times are reported in reference seconds: seconds on a host that
runs the reference loop in REF_S.  A slower package still reads slower;
a slower host does not.  The measured seconds are reported beside them.
Set-up time, a median of short imports, is scaled by the median pace of
the loops timed between the imports instead.
"""

from __future__ import annotations

import statistics
import time

# the reference loop's time on the host the bounds were set on (2 vCPUs)
REF_S = 0.025
REPEATS = 3


def _loop() -> None:
    s = 0
    for j in range(300_000):
        s += j * j


def ref_loop() -> float:
    """Median time of REPEATS runs of the reference loop, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_seconds(segments: list[float], paces: list[float]) -> float:
    """Job time in reference seconds.

    segments[i] is the job time measured between paces[i] and paces[i + 1];
    each is scaled by REF_S over the mean of the two paces around it.
    """
    return sum(seg * 2.0 * REF_S / (paces[i] + paces[i + 1]) for i, seg in enumerate(segments))
