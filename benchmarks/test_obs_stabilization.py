"""Experiments obs2/obs3/obs4 — the stabilization and long-term claims,
plus the consolidated observation scoreboard.

* Observation 2: ETC took ~two days to resume the target block rate; an
  influx of miners returned over the subsequent two weeks.
* Observation 3: the fork persists; ETH's mining power grows
  tremendously while ETC's holds roughly constant.
* Observation 4: mining payoff (hashes/USD) is near-identical across the
  two networks.
"""

from repro.core.observations import (
    evaluate_all,
    observation_2,
    observation_3,
    observation_4,
)
from repro.core.partition import hashpower_loss_fraction, stabilization_time


def test_stabilization_and_long_term(
    benchmark, fork_result, echo_data, partition_result, output_dir
):
    detector, _, _ = echo_data

    report = benchmark.pedantic(
        stabilization_time,
        args=(
            fork_result.to_database(columnar=True),
            "ETC",
            fork_result.fork_timestamp,
        ),
        rounds=1,
        iterations=1,
    )
    loss = hashpower_loss_fraction(
        fork_result.etc_trace, fork_result.fork_timestamp
    )
    print(f"\nETC hashpower lost at the fork: {loss:.1%} (paper: ~90%+ of "
          f"the combined network stayed on ETH)")
    print(f"stabilization: {report.stabilization_days:.2f} days "
          f"(paper: ~2 days)")
    print(f"peak inter-block delta: {report.peak_delta_seconds:.0f}s "
          f"(paper: spiked over 1,200s)")
    assert loss > 0.9
    assert 1.0 <= report.stabilization_days <= 3.5
    assert report.peak_delta_seconds > 1_200

    observations = evaluate_all(fork_result, partition_result, detector)
    scoreboard = "\n".join(obs.render() for obs in observations)
    (output_dir / "observations.txt").write_text(scoreboard + "\n")
    print()
    print("=== Observation scoreboard ===")
    print(scoreboard)
    for observation in observations:
        assert observation.holds, (
            f"observation {observation.number} not reproduced: "
            f"{observation.details}"
        )


def test_individual_observation_details(benchmark, fork_result):
    obs2 = benchmark.pedantic(
        observation_2, args=(fork_result,), rounds=1, iterations=1
    )
    obs3 = observation_3(fork_result)
    obs4 = observation_4(fork_result)
    print()
    for observation in (obs2, obs3, obs4):
        print(observation.render())
    assert obs2.holds and obs3.holds and obs4.holds
    # Observation 3's specific numbers: ETH grows multiples, the final
    # difficulty ratio is order-ten.
    assert obs3.details["eth_difficulty_growth"] > 2.0
    assert obs3.details["difficulty_ratio_at_end"] > 5
