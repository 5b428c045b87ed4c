"""A small time-series type shared by all the analyses.

Each figure in the paper is one or more (time, value) series; this module
gives them a common representation with the few operations the analyses
need: windowed resampling, alignment, Pearson correlation (Figure 3's
"strong correlation" claim), and ratio series (the 2.5:1 → 5:1 transaction
ratio claim).  Deliberately minimal — not a pandas replacement.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..data.windows import ordered_sum

__all__ = ["TimeSeries", "pearson", "align"]


class TimeSeries:
    """An ordered sequence of (timestamp, value) pairs."""

    def __init__(
        self,
        timestamps: Sequence[float],
        values: Sequence[float],
        name: str = "",
    ) -> None:
        if len(timestamps) != len(values):
            raise ValueError("timestamps and values must align")
        pairs = sorted(zip(timestamps, values))
        self.timestamps: List[float] = [t for t, _ in pairs]
        self.values: List[float] = [v for _, v in pairs]
        self.name = name

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[float, float]], name: str = ""
    ) -> "TimeSeries":
        pairs = list(pairs)
        return cls([t for t, _ in pairs], [v for _, v in pairs], name)

    @classmethod
    def from_window_dict(
        cls, windows: Dict[int, float], width: int, name: str = ""
    ) -> "TimeSeries":
        """Build from a window-index dict (see :mod:`repro.data.windows`);
        timestamps are window starts."""
        indices = sorted(windows)
        return cls(
            [index * width for index in indices],
            [windows[index] for index in indices],
            name,
        )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.timestamps, self.values))

    def is_empty(self) -> bool:
        return not self.values

    # -- arithmetic -----------------------------------------------------------

    def map(self, fn: Callable[[float], float], name: str = "") -> "TimeSeries":
        return TimeSeries(
            self.timestamps, [fn(v) for v in self.values], name or self.name
        )

    def ratio_to(self, other: "TimeSeries", name: str = "") -> "TimeSeries":
        """Pointwise self/other on the shared timestamps.

        A zero denominator yields NaN — a *gap*, not a value.  The old
        behaviour returned ``inf`` (and ``0/0`` became ``inf`` too),
        which silently poisoned every downstream mean: one zero-volume
        window turned a whole resampled figure series infinite.  NaN
        gaps are skipped by :meth:`resample_mean` and :meth:`mean`.
        """
        mine, theirs = align(self, other)
        values = [
            a / b if b else float("nan")
            for a, b in zip(mine.values, theirs.values)
        ]
        return TimeSeries(mine.timestamps, values, name)

    # -- resampling ----------------------------------------------------------

    def resample_mean(self, width: int) -> "TimeSeries":
        """Mean value per window of ``width`` seconds.

        NaN values mark gaps and are excluded from their window's mean;
        a window containing only NaN is dropped entirely (no timestamp),
        so a resampled series never manufactures values out of gaps.
        """
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for timestamp, value in self:
            if math.isnan(value):
                continue
            index = int(timestamp // width)
            sums[index] = sums.get(index, 0.0) + value
            counts[index] = counts.get(index, 0) + 1
        indices = sorted(sums)
        return TimeSeries(
            [index * width for index in indices],
            [sums[index] / counts[index] for index in indices],
            self.name,
        )

    def clip_time(self, start: float, end: float) -> "TimeSeries":
        pairs = [(t, v) for t, v in self if start <= t < end]
        return TimeSeries.from_pairs(pairs, self.name)

    # -- summaries -------------------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean over the finite values (NaN gaps skipped)."""
        finite = [v for v in self.values if not math.isnan(v)]
        if not finite:
            raise ValueError("series has no non-NaN values to average")
        return ordered_sum(finite) / len(finite)

    def max(self) -> float:
        return max(self.values)

    def min(self) -> float:
        return min(self.values)

    def argmax(self) -> float:
        """Timestamp of the maximum value."""
        best = max(range(len(self.values)), key=lambda i: self.values[i])
        return self.timestamps[best]


def align(a: TimeSeries, b: TimeSeries) -> Tuple[TimeSeries, TimeSeries]:
    """Restrict both series to their common timestamps."""
    common = sorted(set(a.timestamps) & set(b.timestamps))
    index_a = dict(zip(a.timestamps, a.values))
    index_b = dict(zip(b.timestamps, b.values))
    return (
        TimeSeries(common, [index_a[t] for t in common], a.name),
        TimeSeries(common, [index_b[t] for t in common], b.name),
    )


def pearson(a: TimeSeries, b: TimeSeries) -> float:
    """Pearson correlation over the shared timestamps.

    This is the statistic behind the paper's Figure 3 reading: "there is a
    very strong correlation between the expected number of hashes per USD
    in ETH and ETC; in fact, the curves are almost identical."
    """
    mine, theirs = align(a, b)
    n = len(mine)
    if n < 2:
        raise ValueError("need at least two shared points")
    mean_a = mine.mean()
    mean_b = theirs.mean()
    cov = ordered_sum(
        (x - mean_a) * (y - mean_b) for x, y in zip(mine.values, theirs.values)
    )
    var_a = ordered_sum((x - mean_a) ** 2 for x in mine.values)
    var_b = ordered_sum((y - mean_b) ** 2 for y in theirs.values)
    if var_a == 0 or var_b == 0:
        raise ValueError("constant series have undefined correlation")
    return cov / math.sqrt(var_a * var_b)
