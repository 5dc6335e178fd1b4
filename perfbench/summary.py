"""Order statistics for benchmark samples.

Medians and quartiles follow Python's `statistics` module (quartiles use
`statistics.quantiles(values, n=4)`, the exclusive method). Tail
percentiles use nearest rank, so "samples beyond" is an exact count.
"""

from __future__ import annotations

import statistics

# Candidate tail percentiles in tenths of a percent, highest first.
_TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def _rank(n: int, tenths: int) -> int:
    """1-based nearest rank of the percentile `tenths / 10` among n samples."""
    return max(1, -(-tenths * n // 1000))


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), round(percentile * 10)) - 1]


def samples_beyond(n: int, percentile: float) -> int:
    """How many of n samples rank strictly above the nearest-rank percentile."""
    return n - _rank(n, round(percentile * 10))


def tail(values) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that has at
    least MIN_BEYOND samples beyond it; the median rank when none has."""
    for tenths in _TAIL_LADDER:
        if samples_beyond(len(values), tenths / 10) >= MIN_BEYOND:
            return tenths / 10, nearest_rank(values, tenths / 10)
    return 50.0, nearest_rank(values, 50.0)


def quartiles(values) -> tuple[float, float]:
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
