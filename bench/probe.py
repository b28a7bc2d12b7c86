"""Machine-speed probe: a fixed pure-Python loop, timed next to the measured work.

On a shared machine the speed of the whole box drifts by tens of percent
over minutes, far more than a run can average out. The probe slows down with
it, so each measured interval is divided by the probe time taken next to it
(just before it, or the mean of the probes just before and after it) and
reported in reference seconds: the time the interval would have taken on a
machine where the probe takes REFERENCE_S. The probe does not touch vlpkit,
so a change to the package moves the measured interval but not the probe.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.025
LOOP = 300_000


def _spin() -> float:
    start = perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return perf_counter() - start


def reference(runs: int = 3) -> float:
    """Median probe time of a short burst."""
    return statistics.median(_spin() for _ in range(runs))


def bracketed(probes: list[float]) -> list[float]:
    """Probe time for each interval between consecutive probes: the mean of the two."""
    return [(before + after) / 2 for before, after in zip(probes, probes[1:])]


def normalized(seconds: list[float], probes: list[float]) -> float:
    """Median of the intervals in reference seconds, each scaled by its own probe time."""
    return REFERENCE_S * statistics.median(s / p for s, p in zip(seconds, probes, strict=True))
