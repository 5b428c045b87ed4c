"""The chain metrics over a hand-built record database."""

import pytest

from repro.core.metrics import (
    blocks_per_hour,
    contract_fraction_per_day,
    daily_mean_difficulty,
    hourly_mean_block_delta,
    transactions_per_day,
)
from repro.data.records import BlockRecord
from repro.data.store import ChainDatabase


@pytest.fixture
def db():
    database = ChainDatabase()
    blocks = []
    ts = 0
    for number in range(1, 8):
        ts += 600  # ten-minute spacing: 6 blocks/hour
        blocks.append(
            BlockRecord(
                chain="ETH", number=number, timestamp=ts,
                difficulty=1000 * number, miner="p", tx_count=2,
                contract_tx_count=1,
            )
        )
    database.insert_blocks(blocks)
    return database


class TestDbMetrics:
    def test_blocks_per_hour(self, db):
        series = blocks_per_hour(db, "ETH")
        assert series.values[0] == 5.0  # blocks at 600..3000
        assert series.values[1] == 2.0

    def test_block_delta_series(self, db):
        series = hourly_mean_block_delta(db, "ETH")
        assert set(series.values) == {600.0}
        assert len(series) == 2  # deltas land in hours 0 and 1

    def test_start_ts_filter(self, db):
        assert blocks_per_hour(db, "ETH", start_ts=3600).values == [2.0]

    def test_daily_mean_difficulty(self, db):
        series = daily_mean_difficulty(db, "ETH")
        assert series.values[0] == pytest.approx(4000.0)  # mean of 1k..7k

    def test_transactions_per_day(self, db):
        series = transactions_per_day(db, "ETH")
        assert series.values == [14.0]  # 7 blocks x 2 txs, all on day 0

    def test_contract_fraction_per_day(self, db):
        series = contract_fraction_per_day(db, "ETH")
        assert series.values == [0.5]  # 1 contract tx of 2 per block

    def test_empty_chain_yields_empty_series(self, db):
        assert blocks_per_hour(db, "missing").is_empty()
        assert transactions_per_day(db, "missing").is_empty()
