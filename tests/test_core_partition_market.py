"""Partition metrics and market-efficiency analysis."""

import pytest

from repro.core.market_analysis import (
    find_dip,
    hashes_per_usd_series,
    market_efficiency_report,
    relative_gap_series,
)
from repro.core.partition import (
    find_trace_fork_point,
    hashpower_loss_fraction,
    peak_block_delta,
    stabilization_time,
)
from repro.core.timeseries import TimeSeries
from repro.data.columnar import ColumnarChainDatabase
from repro.data.windows import DAY, HOUR
from repro.market.exchange import ExchangeRateSeries
from repro.sim.blockprod import ChainTrace


def stalled_trace(fork_ts=100_000, pre_blocks=100, stall=3000, post_blocks=2000):
    """A trace that mines at 14 s, stalls at the fork, then recovers."""
    trace = ChainTrace("ETC")
    ts = fork_ts - pre_blocks * 14
    for i in range(pre_blocks):
        trace.append(i, ts, 14_000_000, "m")
        ts += 14
    # Stall: 20 blocks at `stall`-second gaps.
    for i in range(20):
        ts += stall
        trace.append(pre_blocks + i, ts, 14_000_000, "m")
    # Recovery at target rate.
    for i in range(post_blocks):
        ts += 14
        trace.append(pre_blocks + 20 + i, ts, 1_000_000, "m")
    return trace


def stalled_db(**kwargs):
    """:func:`stalled_trace` adopted by the columnar analysis database."""
    db = ColumnarChainDatabase()
    db.adopt_trace(stalled_trace(**kwargs))
    return db


class TestForkPoint:
    def test_forked_traces_report_divergence(self):
        parent = ChainTrace("pre")
        for i in range(5):
            parent.append(i, i * 14, 1000, "m")
        eth = ChainTrace.forked_from(parent, "ETH")
        etc = ChainTrace.forked_from(parent, "ETC")
        eth.append(5, 80, 1000, "eth-pool")
        etc.append(5, 95, 1000, "etc-pool")
        assert find_trace_fork_point(eth, etc) == 4

    def test_identical_traces(self):
        parent = ChainTrace("a")
        for i in range(3):
            parent.append(i, i * 14, 1000, "m")
        clone = ChainTrace.forked_from(parent, "b")
        assert find_trace_fork_point(parent, clone) == 2


class TestHashpowerLoss:
    def test_ninety_percent_drop_detected(self):
        fork_ts = 100_000
        trace = ChainTrace("ETC")
        # Before: 14 s blocks; after: 140 s blocks at equal difficulty
        # → one tenth of the hashpower remains.
        ts = fork_ts - 3 * HOUR
        index = 0
        while ts < fork_ts:
            trace.append(index, ts, 14_000_000, "m")
            ts += 14
            index += 1
        while ts < fork_ts + 3 * HOUR:
            trace.append(index, ts, 14_000_000, "m")
            ts += 140
            index += 1
        loss = hashpower_loss_fraction(trace, fork_ts, window=2 * HOUR)
        assert loss == pytest.approx(0.9, abs=0.03)


class TestStabilization:
    def test_recovery_detected(self):
        report = stabilization_time(stalled_db(stall=3000), "ETC", 100_000)
        assert report.stabilization_seconds is not None
        # 20 stalled blocks × 3000 s ≈ 0.7 days of stall.
        assert 0.5 <= report.stabilization_days <= 1.2
        assert report.peak_delta_seconds == 3000
        assert report.difficulty_at_recovery < report.difficulty_at_fork

    def test_peak_block_delta_window(self):
        trace = stalled_trace(stall=2222)
        assert peak_block_delta(trace, 100_000, 100_000 + DAY) == 2222

    def test_no_recovery_within_horizon(self):
        db = stalled_db(stall=5000, post_blocks=0)
        report = stabilization_time(db, "ETC", 100_000, horizon_days=1)
        assert report.stabilization_seconds is None


class TestMarketAnalysis:
    def build_series(self, gap=0.0):
        fork_ts = 0
        days = 60
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [10.0] * days)
        rates.set_series("ETC", [1.0] * days)
        eth_difficulty = TimeSeries(
            [d * DAY for d in range(days)],
            [50e12 + d * 1e11 for d in range(days)],
        )
        etc_difficulty = TimeSeries(
            [d * DAY for d in range(days)],
            [(50e12 + d * 1e11) * (1 + gap) / 10 for d in range(days)],
        )
        eth = hashes_per_usd_series(eth_difficulty, rates, "ETH", fork_ts)
        etc = hashes_per_usd_series(etc_difficulty, rates, "ETC", fork_ts)
        return eth, etc, fork_ts

    def test_formula(self):
        rates = ExchangeRateSeries()
        rates.set_series("ETH", [14.0])
        series = hashes_per_usd_series(
            TimeSeries([0], [7e13]), rates, "ETH", 0
        )
        assert series.values[0] == pytest.approx(1e12)

    def test_identical_economics_gives_unit_correlation(self):
        eth, etc, fork_ts = self.build_series(gap=0.0)
        report = market_efficiency_report(eth, etc, fork_ts, skip_days=0)
        assert report.correlation == pytest.approx(1.0)
        assert report.median_relative_gap == pytest.approx(0.0, abs=1e-9)
        assert report.curves_nearly_identical

    def test_persistent_gap_measured(self):
        eth, etc, fork_ts = self.build_series(gap=0.5)
        gaps = relative_gap_series(eth, etc)
        assert gaps.values[0] == pytest.approx(0.4, abs=0.02)

    def test_find_dip(self):
        timestamps = [d * DAY for d in range(100)]
        values = [100.0] * 50 + [60.0] * 10 + [100.0] * 40
        series = TimeSeries(timestamps, values)
        dip = find_dip(series, 45 * DAY, 70 * DAY)
        assert dip is not None
        when, depth = dip
        assert 50 * DAY <= when < 60 * DAY
        assert depth == pytest.approx(0.4, abs=0.01)

    def test_no_dip_returns_none(self):
        timestamps = [d * DAY for d in range(100)]
        series = TimeSeries(timestamps, [100.0] * 100)
        assert find_dip(series, 45 * DAY, 70 * DAY) is None
