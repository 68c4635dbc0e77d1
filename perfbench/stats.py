"""Summary statistics and memory readings shared by the benchmark."""

from __future__ import annotations

import math
import resource
from typing import Dict, Sequence

# percentiles tried for the reported tail, highest first
_TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return float(data[rank - 1])


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no samples")
    data = sorted(values)
    mid = len(data) // 2
    if len(data) % 2:
        return float(data[mid])
    return (data[mid - 1] + data[mid]) / 2.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile above the median has ten
    samples beyond it, so the tail is reported as the maximum and marked
    with ``p = 100``.
    """
    n = len(values)
    out = {"n": n, "p50": median(values)}
    for p in _TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= 10:
            out["p"] = p
            out["value"] = percentile(values, p)
            return out
    out["p"] = 100.0
    out["value"] = float(max(values))
    return out


def reset_peak_rss() -> None:
    """Restart this process's peak resident set from its current size.

    Linux resets VmHWM on code 5 to ``/proc/self/clear_refs``; where that
    is unavailable the peak keeps counting from process start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """This process's peak resident set (VmHWM) in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak resident set among this process's reaped children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
