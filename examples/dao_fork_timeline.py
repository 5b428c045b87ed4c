#!/usr/bin/env python3
"""The DAO fork timeline, end to end, with real contract execution.

Replays the whole 2016 story at contract level — DAO deployment, investor
deposits, the reentrancy drain, the hard fork with its irregular state
change, the partition, and a replay attack — then runs the month-scale
fork simulation and prints Figure 1 (blocks/hour, difficulty, inter-block
delta around the fork).

Run: ``python examples/dao_fork_timeline.py``
"""

from repro.chain.types import from_wei
from repro.core import figure_1, stabilization_time
from repro.scenarios import DaoScenario, DaoScenarioConfig
from repro.sim import ForkSimConfig, ForkSimulation


def act_one_the_contract_story() -> None:
    print("=" * 72)
    print("ACT 1 — the DAO, the drain, and the irregular state change")
    print("=" * 72)
    result = DaoScenario(DaoScenarioConfig(fork_block=16)).run()

    print(f"DAO contract:      {result.dao_address.hex_prefixed}")
    print(f"attacker contract: {result.attacker_contract.hex_prefixed}")
    print(f"drained by reentrancy: {from_wei(result.drained):.0f} ether "
          f"(stake was {from_wei(DaoScenarioConfig().attacker_stake):.0f})")

    fork_point = result.eth_chain.common_ancestor(result.etc_chain)
    print(f"\nchains diverge after block {fork_point.number}")
    for name, chain in (("ETH", result.eth_chain), ("ETC", result.etc_chain)):
        attacker = from_wei(result.attacker_balance(chain))
        refund = from_wei(result.refund_balance(chain))
        print(f"  {name}: attacker holds {attacker:.0f} ether, "
              f"refund contract holds {refund:.0f} ether")
    print("  -> ETH moved the loot at the fork block; ETC kept 'code is law'")

    bob = result.keys["bob"].address
    eth_bob = from_wei(result.eth_chain.head_state().balance_of(bob))
    etc_bob = from_wei(result.etc_chain.head_state().balance_of(bob))
    print(f"\nreplayed payment: bob holds {eth_bob:.0f} ether on ETH and "
          f"{etc_bob:.0f} on ETC (one signature, two executions)")


def act_two_the_network_dynamics() -> None:
    print()
    print("=" * 72)
    print("ACT 2 — the month after the fork (Figure 1)")
    print("=" * 72)
    print("running the two-chain simulation (45 days)...")
    result = ForkSimulation(
        ForkSimConfig(days=45, prefork_days=7)
    ).run()

    figure = figure_1(result)
    print()
    print(figure.render(sample_days=3))

    report = stabilization_time(
        result.to_database(columnar=True), "ETC", result.fork_timestamp
    )
    print()
    print(f"ETC lost ~99% of its hashpower at the fork instant.")
    print(f"peak inter-block delta: {report.peak_delta_seconds:.0f}s "
          f"(paper: 'spiked to over 1,200 seconds')")
    print(f"time to resume target rate: {report.stabilization_days:.1f} days "
          f"(paper: 'almost two days')")
    print(f"difficulty at fork {report.difficulty_at_fork / 1e13:.2f}e13 -> "
          f"at recovery {report.difficulty_at_recovery / 1e13:.3f}e13")


if __name__ == "__main__":
    act_one_the_contract_story()
    act_two_the_network_dynamics()
