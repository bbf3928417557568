"""The machine's speed, measured beside the program, to steady the timings.

On a shared host the speed of a core wanders by a fifth or more over
seconds to minutes, whatever runs on it.  A fixed pure-Python loop (the
reference loop, which touches nothing of algentropy and allocates no
container objects) is timed in short bursts between operations; every
time the benchmark reports is scaled by how fast that loop ran nearby
compared with its nominal speed, so it reads as the time the operation
would take on the machine at that speed:

    reported seconds = measured seconds * NOMINAL_BURST_S / local burst seconds

The scale only removes what the program and the loop share.  A change
in the program moves the reported times as it moves the measured ones.
"""

import statistics
from time import perf_counter

REF_STEPS = 10_000
# seconds one burst of REF_STEPS takes on the 2-core development machine
# (median of 200 bursts); only the ratio to it matters
NOMINAL_BURST_S = 0.0029
# a burst after every BURST_EVERY seconds of work (about 6% of the run)
BURST_EVERY = 0.05
# each stretch of work is scaled by the median of the bursts around it
NEIGHBOURS = 3


def burst():
    """Seconds one run of the reference loop takes."""
    x = 12345
    start = perf_counter()
    for _ in range(REF_STEPS):
        x = (x * 1103515245 + 12345) % 2147483648
    return perf_counter() - start


def scales(bursts):
    """Scale of each stretch of work between consecutive bursts: stretch
    ``i`` lies between ``bursts[i]`` and ``bursts[i + 1]`` and gets the
    median of up to ``2 * NEIGHBOURS`` bursts on either side of it."""
    out = []
    for i in range(len(bursts) - 1):
        near = bursts[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
        out.append(NOMINAL_BURST_S / statistics.median(near))
    return out
