"""Chain metrics: the series plotted in Figures 1 and 2.

One function per series.  Each takes an analysis database — the
columnar :class:`~repro.data.columnar.ColumnarChainDatabase` on the
product path, or the record-level :class:`~repro.data.store.ChainDatabase`
that tests keep as the oracle — plus a chain name and an optional
``start_ts`` filter, reads one aggregated query, and returns a
:class:`~repro.core.timeseries.TimeSeries` ready for the report layer.
No per-record iteration happens on this side of the query boundary.
"""

from __future__ import annotations

from typing import Optional

from ..data.windows import DAY, HOUR
from .timeseries import TimeSeries

__all__ = [
    "blocks_per_hour",
    "daily_mean_difficulty",
    "hourly_mean_block_delta",
    "transactions_per_day",
    "contract_fraction_per_day",
]


def blocks_per_hour(db, chain: str, start_ts: Optional[float] = None) -> TimeSeries:
    """Figure 1 (top): hourly block counts.

    Empty hours are *not* filled here; the report layer densifies over the
    plot range so that ETC's near-zero day renders as near-zero.
    """
    return TimeSeries.from_window_dict(
        {k: float(v) for k, v in db.blocks_per_hour(chain, start_ts).items()},
        HOUR,
        name=f"{chain} blocks/hour",
    )


def daily_mean_difficulty(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figures 1-3: daily mean block difficulty."""
    return TimeSeries.from_window_dict(
        db.daily_mean_difficulty(chain, start_ts),
        DAY,
        name=f"{chain} difficulty",
    )


def hourly_mean_block_delta(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 1 (bottom): hourly mean seconds between consecutive blocks."""
    return TimeSeries.from_window_dict(
        db.hourly_mean_block_delta(chain, start_ts),
        HOUR,
        name=f"{chain} block delta",
    )


def transactions_per_day(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 2 (middle): daily transaction counts from per-block counts."""
    return TimeSeries.from_window_dict(
        {
            k: float(v)
            for k, v in db.block_transactions_per_day(chain, start_ts).items()
        },
        DAY,
        name=f"{chain} tx/day",
    )


def contract_fraction_per_day(
    db, chain: str, start_ts: Optional[float] = None
) -> TimeSeries:
    """Figure 2 (bottom): daily contract-call fraction from per-block counts."""
    return TimeSeries.from_window_dict(
        db.block_contract_fraction_per_day(chain, start_ts),
        DAY,
        name=f"{chain} contract fraction",
    )
