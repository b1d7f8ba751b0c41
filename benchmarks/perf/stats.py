"""Percentiles under the sample rule, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


#: A percentile is reported only with this many samples beyond it.
BEYOND = 10


def percentile(values: Sequence[float], q: float, strict: bool = True) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``, nearest-rank.

    ``strict`` (end-to-end metrics) refuses when fewer than
    :data:`BEYOND` samples lie beyond it, so a p95 needs 200 samples and
    a median 20.  ``inf`` entries (failed requests) count as samples
    beyond every limit.  Per-layer metrics pass ``strict=False`` and
    report their sample count instead; an empty sample gives 0.0, a
    layer the workload never called.
    """
    n = len(values)
    if strict and n * (1.0 - q) < BEYOND:
        need = math.ceil(BEYOND / (1.0 - q))
        raise TooFewSamples(f"p{q * 100:g} needs {need} samples, got {n}")
    if not n:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def mean(values: Sequence[float]) -> float:
    """Mean, or 0.0 for a layer that was never called."""
    return float(sum(values) / len(values)) if values else 0.0


def quartiles(values: Sequence[float]):
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def cpu_ticks() -> List[int]:
    """Host-wide CPU time counters from ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_pct(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else 0.0


def peak_rss_mb(pid) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")
