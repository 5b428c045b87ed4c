"""Time-window aggregation: the hourly/daily buckets behind every figure.

The paper reports blocks *per hour* (Figure 1), transactions *per day*
(Figure 2), rebroadcasts *per day* (Figure 4), and daily top-N pool shares
(Figure 5).  This module provides one windowing abstraction shared by all
of them, so bucket-boundary behaviour is consistent (and tested once).

Windows are half-open ``[start, start + width)`` aligned to the epoch, so
every timestamped observation falls in exactly one bucket.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Dict, Iterable, List, Tuple, TypeVar

__all__ = [
    "HOUR",
    "DAY",
    "window_index",
    "window_start",
    "bucket_by_window",
    "count_per_window",
    "mean_per_window",
    "sum_per_window",
    "fill_missing_windows",
    "ordered_sum",
]

HOUR = 3_600
DAY = 86_400

T = TypeVar("T")


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right double-precision sum, identical on every interpreter.

    The builtin ``sum`` of floats is compensated (Neumaier) since CPython
    3.12, so sums of non-integral or above-2**53 values would change
    bytes across interpreters.  Every float sum on the analysis path goes
    through here instead.
    """
    return reduce(operator.add, values, 0.0)


def window_index(timestamp: float, width: int) -> int:
    """Which window a timestamp falls into (floor division by width)."""
    if width <= 0:
        raise ValueError("window width must be positive")
    return int(timestamp // width)


def window_start(index: int, width: int) -> int:
    return index * width


def bucket_by_window(
    items: Iterable[T],
    timestamp_of: Callable[[T], float],
    width: int,
) -> Dict[int, List[T]]:
    """Group items into windows by their timestamps."""
    buckets: Dict[int, List[T]] = {}
    for item in items:
        buckets.setdefault(window_index(timestamp_of(item), width), []).append(
            item
        )
    return buckets


def count_per_window(
    timestamps: Iterable[float], width: int
) -> Dict[int, int]:
    """Histogram of event counts per window (e.g. blocks per hour)."""
    counts: Dict[int, int] = {}
    for timestamp in timestamps:
        index = window_index(timestamp, width)
        counts[index] = counts.get(index, 0) + 1
    return counts


def sum_per_window(
    items: Iterable[T],
    timestamp_of: Callable[[T], float],
    value_of: Callable[[T], float],
    width: int,
) -> Dict[int, float]:
    sums: Dict[int, float] = {}
    for item in items:
        index = window_index(timestamp_of(item), width)
        sums[index] = sums.get(index, 0.0) + value_of(item)
    return sums


def mean_per_window(
    items: Iterable[T],
    timestamp_of: Callable[[T], float],
    value_of: Callable[[T], float],
    width: int,
) -> Dict[int, float]:
    """Per-window arithmetic mean (e.g. average difficulty per hour)."""
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for item in items:
        index = window_index(timestamp_of(item), width)
        sums[index] = sums.get(index, 0.0) + value_of(item)
        counts[index] = counts.get(index, 0) + 1
    return {index: sums[index] / counts[index] for index in sums}


def fill_missing_windows(
    series: Dict[int, float],
    start_index: int,
    end_index: int,
    fill: float = 0.0,
) -> List[Tuple[int, float]]:
    """Densify a sparse window series over ``[start_index, end_index]``.

    Figure 1's most important feature — ETC's blocks-per-hour falling to
    ~zero — only appears if empty windows are *materialized* rather than
    skipped; this helper makes that explicit everywhere.
    """
    if end_index < start_index:
        raise ValueError("end before start")
    return [
        (index, series.get(index, fill))
        for index in range(start_index, end_index + 1)
    ]
