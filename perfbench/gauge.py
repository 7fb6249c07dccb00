"""A fixed reference computation that gauges how fast the host runs Python
at the moment.

On a shared host the same pure-Python op can take up to twice as long for
seconds to minutes at a time while other tenants load the machine.  The
benchmark times ``sample()`` between its ops and divides each op's time by
the host speed around it, ``speed = sample() / NOMINAL_S``, so that the
timings it reports read as seconds on an idle host, whatever the load.

The reference does the same kind of work as wordrep (bitmask graphs,
tuples, sorting, small dicts and generator expressions) but shares no code
with it: a change to wordrep leaves it exactly as it was.  Timed back to
back with census_non_word_representable(6) for five minutes, medians over
25 s windows of the census time moved by up to 55% with host load, and
those of its ratio to this reference by 5%.  The reference reacts to load
somewhat more strongly than wordrep does, so under heavy load corrected
times read up to about 10% low (15% for set-up, which is partly kernel
work).
"""

from __future__ import annotations

import gc
import random
from itertools import permutations
from time import perf_counter

# Seconds one sample() takes on an idle core of a 2-vCPU Intel Xeon VM
# under CPython 3.11; timings divided by the speed read as seconds there.
NOMINAL_S = 0.05


def _graphs(count: int, n: int) -> list[list[int]]:
    rng = random.Random(20190101)  # fixed: the reference never changes
    graphs = []
    for _ in range(count):
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        graphs.append(adj)
    return graphs


GRAPHS = _graphs(12, 6)


def _canonical(adj: list[int]) -> tuple:
    """Smallest sorted edge list over all relabellings, by brute force."""
    n = len(adj)
    best = None
    for p in permutations(range(n)):
        code = tuple(sorted(
            (min(p[i], p[j]), max(p[i], p[j]))
            for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1
        ))
        if best is None or code < best:
            best = code
    return best


def work() -> int:
    """The reference computation: isomorphism classes of GRAPHS."""
    classes: dict = {}
    for adj in GRAPHS:
        code = _canonical(adj)
        classes[code] = classes.get(code, 0) + 1
    return len(classes)


def sample() -> float:
    """Seconds one run of the reference computation takes now.

    The garbage collector is off meanwhile (the reference makes no
    cycles), so that the time does not grow with the caller's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
