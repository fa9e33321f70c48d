"""Host-speed probe: a fixed piece of pure-Python work, timed next to the items.

The benchmark runs on a shared host whose speed drifts.  On the 2-vCPU
Xeon VM the baseline was taken on, a fixed loop ran at 179 to 281
iterations per 5 s within four minutes, and the wall-clock
``ring_queries`` throughput of ten 30 s runs spread by 16-22%.  That is
wider than any bound a regression check could use.  So every time metric is
reported in *host-normalized* time: each wall-clock latency is scaled by
``PROBE_REF_S / p``, where ``p`` is the probe's time measured just before
that item.  A normalized second is a second on a host where the probe
takes ``PROBE_REF_S``, which is about this VM at its fastest.

The probe contains no equigraph code, so no change to the program can
move it.  It does the kind of work the program's exact core does:
``Fraction`` arithmetic, string formatting and dict traffic.  On the same
runs, normalizing cut the spread of throughput to 3.5-4.2% and of the
median latency to 2.3-7.4%.  The wall-clock values stay in each run's
``details``.
"""

from __future__ import annotations

import time
from fractions import Fraction

PROBE_REF_S = 1.5e-3
PROBE_REPEATS = 3


def probe_once() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(1, 400):
        x = Fraction(i, i + 1) + Fraction(i + 2, 2 * i + 3)
        table[i % 37] = (x.numerator % 1000, str(x))
    sorted(table.items())
    return time.perf_counter() - start


def host_probe(repeats: int = PROBE_REPEATS) -> float:
    """Best of ``repeats`` probes: interruptions only ever slow one down."""
    return min(probe_once() for _ in range(repeats))


def normalize(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s
