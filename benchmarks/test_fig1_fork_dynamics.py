"""Experiment fig1 — Figure 1: blocks/hour, difficulty, inter-block delta
in the month following the hard fork.

Paper's reading (Section 3.2):
* ETC block production "falls close to 0 for almost a day";
* "it took almost two days before the difficulty calculation was able to
  fully adjust"; the mean delta "spiked to over 1,200 seconds";
* over the following two weeks ETH's difficulty decline mirrors ETC's
  rise (miners switching back).
"""

from conftest import publish

from repro.core.partition import stabilization_time
from repro.core.report import figure_1
from repro.data.windows import DAY, HOUR


def test_figure_1(benchmark, fork_result, output_dir):
    figure = benchmark.pedantic(
        figure_1, args=(fork_result,), rounds=1, iterations=1
    )
    publish(output_dir, "figure1", figure, sample_days=2)

    fork_ts = fork_result.fork_timestamp

    # ETH is unaffected: its hourly rate never leaves the target band.
    eth_rate = figure.series["ETH blocks/hr"].clip_time(
        fork_ts, fork_ts + 30 * DAY
    )
    assert eth_rate.min() > 180

    # ETC collapses to a handful of blocks per hour...
    etc_rate = figure.series["ETC blocks/hr"]
    first_day = etc_rate.clip_time(fork_ts, fork_ts + DAY)
    assert first_day.min() < 15

    # ...recovers to the target rate in about two days...
    report = stabilization_time(
        fork_result.to_database(columnar=True), "ETC", fork_ts
    )
    print(
        f"\nETC stabilization: {report.stabilization_days:.2f} days "
        f"(paper: ~2); peak delta {report.peak_delta_seconds:.0f}s "
        f"(paper: >1200s)"
    )
    assert 1.0 <= report.stabilization_days <= 3.5
    assert report.peak_delta_seconds > 1_200

    # ...and the difficulty see-saw appears over the next two weeks.
    eth_difficulty = figure.series["ETH difficulty"]
    etc_difficulty = figure.series["ETC difficulty"]

    def near(series, timestamp):
        best = min(series.timestamps, key=lambda t: abs(t - timestamp))
        return series.values[series.timestamps.index(best)]

    assert near(eth_difficulty, fork_ts + 14 * DAY) < near(
        eth_difficulty, fork_ts + 1 * DAY
    )
    assert near(etc_difficulty, fork_ts + 14 * DAY) > 2 * near(
        etc_difficulty, fork_ts + 3 * DAY
    )
