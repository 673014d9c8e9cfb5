"""Order statistics for benchmark reports (stdlib only)."""
from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail, highest first.
_TAILS = (99.9, 99.0, 90.0)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as statistics.quantiles(n=4) gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, p: float) -> float:
    """p-th percentile with linear interpolation between closest ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p!r} outside [0, 100]")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(count: int) -> float | None:
    """Highest tail percentile with at least ten samples beyond it, if any."""
    for p in _TAILS:
        if round(count * (100.0 - p) / 100.0, 9) >= 10.0:
            return p
    return None


def summary(values) -> dict:
    """Median, quartiles, sample count and the tail percentile when defined."""
    values = list(values)
    q1, q3 = quartiles(values)
    out = {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        out[f"p{tail:g}"] = percentile(values, tail)
    return out


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))
