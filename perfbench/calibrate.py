"""Machine-speed calibration for a shared, frequency-varying host.

On a 2-core machine shared with other work the same Python code runs
up to a fifth slower from one second to the next, and CPU time drifts
with wall time, so raw timings of one commit spread more between runs
than the changes they should detect.  The worker therefore interleaves
speed samples with the operations it times, and each timing is
rescaled by the speed the samples saw around it: value × reference /
sample time.  Every timed end-to-end metric is reported at the speed
where a sample takes its reference time; the raw figures go to the
run's results file.

In-process workloads use ``kernel``: fixed pure-Python work shaped like
the library's hot loops (tuple arithmetic through ``zip``, set lookups,
a BFS frontier).  Cold CLI runs are mostly interpreter start-up, whose
speed follows process-creation and file-system load more than bytecode
speed, so they use a bare ``python -c pass`` start instead.

This file is part of the benchmark's definition: changing the samples
or the reference times changes every timed metric.
"""

import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.0007        # the kernel's time on an uncontended core of the reference host
REFERENCE_START_S = 0.04    # a bare interpreter start on the same host
PERIOD_S = 0.01       # at most this much operation time between two kernel samples
NEIGHBOURS = 3        # kernel samples on each side that rescale one operation

_COLS = ((1, 2, 0, 3), (2, 0, 1, 1), (0, 1, 3, 2), (3, 1, 0, 1))


def kernel(steps=150) -> int:
    seen = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    for step in range(steps):
        t = frontier[step]
        for c in _COLS:
            t2 = tuple(a + b for a, b in zip(t, c))
            if t2 not in seen and all(v < 60 for v in t2):
                seen.add(t2)
                frontier.append(t2)
    return len(seen)


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def start_sample() -> float:
    """Seconds a bare interpreter takes to start and exit now."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


def rescale(latencies, samples, reference=REFERENCE_S):
    """Latencies at reference speed.

    ``samples`` are (op index, kernel seconds) pairs in op order, the
    first taken before op 0 and the last after the final op; op i is
    rescaled by the mean of the NEIGHBOURS samples on either side of it.
    """
    positions = [i for i, _ in samples]
    times = [t for _, t in samples]
    out = []
    j = 0
    for i, lat in enumerate(latencies):
        while j + 1 < len(positions) and positions[j + 1] <= i:
            j += 1
        window = times[max(0, j - NEIGHBOURS + 1):j + NEIGHBOURS + 1]
        out.append(lat * reference * len(window) / sum(window))
    return out
