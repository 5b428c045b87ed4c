"""The message-level partition scenario — Observation 1.

Reconstructs the node-level view of the fork: a population of full nodes
runs the pre-fork protocol; ahead of the activation height most operators
upgrade (the fork was scheduled, so software shipped in advance); at the
fork block the chains diverge, handshake fork-checks and invalid-block
disconnects tear the mesh apart, and the minority side's *reachable
network* collapses — "a sudden loss of roughly 90% of the nodes in its
network immediately after the fork".

Measurement mirrors the authors' vantage point: a crawler starting from a
known ETC node counts how many peers it can reach by following peer links
(:func:`reachable_nodes`).  The scenario also records mean peer counts per
side, showing the slower *recovery* as fork-blind Kademlia discovery keeps
suggesting peers and compatible ones stick ("an influx of nodes re-joined
ETC over the subsequent two weeks" — at this scenario's compressed scale,
over the following simulated hours).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover
    from ..obs import Observability

from ..chain.chainstore import Blockchain
from ..chain.config import ETC_CONFIG, ETH_CONFIG
from ..chain.difficulty import equilibrium_difficulty
from ..chain.genesis import build_genesis
from ..data.windows import ordered_sum
from ..faults.injector import FaultInjector
from ..faults.report import (
    RobustnessReport,
    RobustnessSample,
    build_robustness_report,
)
from ..faults.schedule import FaultSchedule
from ..net.latency import GeographicLatency, LognormalLatency
from ..net.network import Network
from ..net.node import FullNode, ResiliencePolicy
from ..net.simulator import Simulator
from ..net.topology import BuiltTopology, TopologySpec, build_topology

__all__ = [
    "PartitionScenarioConfig",
    "ChaosPartitionConfig",
    "TopologyPartitionConfig",
    "PartitionSnapshot",
    "PartitionResult",
    "PartitionScenario",
    "reachable_nodes",
]


def reachable_nodes(network: Network, seed_name: str) -> Set[str]:
    """Crawl the mesh: every node reachable from ``seed_name`` by
    following live peer links (what a network crawler would count)."""
    seen: Set[str] = set()
    frontier = [seed_name]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        node = network.nodes.get(name)
        if node is None or not node.online:
            continue
        seen.add(name)
        frontier.extend(node.peers)
    return seen


@dataclass
class PartitionScenarioConfig:
    """A compressed fork: ~minutes of simulated time per paper-day."""

    num_nodes: int = 60
    num_miners: int = 18
    #: Fraction of nodes (and miners) that upgrade to the pro-fork client.
    upgrade_fraction: float = 0.9
    fork_block: int = 40
    #: Per-miner hashrate; total sets the pre-fork equilibrium difficulty.
    miner_hashrate: float = 2e6
    target_degree: int = 8
    seed: int = 20160720
    #: Simulated seconds past the fork block to keep running.
    post_fork_horizon: float = 4 * 3600.0
    census_interval: float = 600.0
    redial_interval: float = 60.0


@dataclass
class ChaosPartitionConfig(PartitionScenarioConfig):
    """The partition scenario under scheduled faults.

    ``faults`` is a :meth:`~repro.faults.schedule.FaultSchedule.to_dict`
    payload and ``resilience`` a
    :meth:`~repro.net.node.ResiliencePolicy.to_dict` payload — dicts
    rather than objects so ``asdict(config)`` stays JSON-round-trippable
    and the harness's content-addressed cache keys it unchanged.

    With ``resilience=None`` the population runs the legacy protocol
    under fire (the control arm); with a policy, dial backoff, liveness
    pings, scoring, and gossip healing are enabled (the treatment arm).
    """

    faults: Optional[Dict[str, Any]] = None
    resilience: Optional[Dict[str, Any]] = None
    #: Recovery threshold as a fraction of the pre-disruption baseline.
    recovery_fraction: float = 0.9
    liveness_interval: float = 45.0
    heal_interval: float = 120.0
    #: Safety valve forwarded to ``run_until`` — a chaos run that
    #: degenerates into a redial storm fails loudly instead of spinning.
    max_events: Optional[int] = None

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule.from_dict(self.faults or {})

    def resilience_policy(self) -> Optional[ResiliencePolicy]:
        if self.resilience is None:
            return None
        return ResiliencePolicy.from_dict(self.resilience)


@dataclass
class TopologyPartitionConfig(PartitionScenarioConfig):
    """The partition scenario on an explicit, seeded topology.

    ``topology`` is a :meth:`~repro.net.topology.TopologySpec.to_dict`
    payload — a dict rather than an object so ``asdict(config)`` stays
    JSON-round-trippable and the harness cache keys it unchanged (the
    same convention as :class:`ChaosPartitionConfig`).  Like chaos, the
    topology axis is strictly additive: a plain
    :class:`PartitionScenarioConfig` never touches this code path, so
    baseline trajectories replay byte-identically.

    With ``topology=None`` the scenario falls back to the legacy random
    mesh.  ``latency`` selects the transport model: ``"lognormal"`` (the
    paper baseline) or ``"geo"`` — a *strict*
    :class:`~repro.net.latency.GeographicLatency`, so a typo'd or
    unmapped region fails loudly instead of being priced at the default.
    """

    topology: Optional[Dict[str, Any]] = None
    latency: str = "lognormal"
    #: Random non-neighbor names seeded into each routing table (the
    #: discovery horizon that redial loops draw from).
    extra_routing: int = 16

    def topology_spec(self) -> Optional[TopologySpec]:
        if self.topology is None:
            return None
        return TopologySpec.from_dict(self.topology)


@dataclass(frozen=True)
class PartitionSnapshot:
    """One census row."""

    time: float
    eth_height: int
    etc_height: int
    #: Crawl sizes from each side's seed node.
    eth_reachable: int
    etc_reachable: int
    #: Mean live peer count per side.
    eth_mean_peers: float
    etc_mean_peers: float


@dataclass
class PartitionResult:
    config: PartitionScenarioConfig
    snapshots: List[PartitionSnapshot]
    fork_time: Optional[float]
    handshake_refusals: int
    incompatible_disconnects: int
    #: Populated only by chaos runs (:class:`ChaosPartitionConfig`).
    robustness: Optional[RobustnessReport] = None

    def minimum_etc_reachable(self) -> int:
        post = [s for s in self.snapshots if self.fork_time and s.time >= self.fork_time]
        if not post:
            return 0
        return min(s.etc_reachable for s in post)

    def node_loss_fraction(self) -> float:
        """Observation 1: reachable-network shrinkage for the ETC side.

        Baseline is the pre-fork reachable mesh (everyone); the post-fork
        floor is the smallest ETC crawl.
        """
        pre = [s for s in self.snapshots if not self.fork_time or s.time < self.fork_time]
        baseline = max((s.etc_reachable for s in pre), default=0)
        if baseline == 0:
            return 0.0
        return 1.0 - self.minimum_etc_reachable() / baseline

    def stabilization_time(self, fraction: float = 0.9) -> Optional[float]:
        """Seconds from the fork until the ETC crawl recovers.

        "Recovered" means the first census at/after the post-fork
        minimum whose reachable count is at least ``fraction`` of the
        post-fork plateau (the best crawl the side ever achieves after
        the fork).  ``None`` when the fork never happened, no post-fork
        census exists, or the mesh never climbs back to the threshold —
        the paper's conclusion *fails* on that topology.
        """
        if self.fork_time is None:
            return None
        post = [s for s in self.snapshots if s.time >= self.fork_time]
        if not post:
            return None
        plateau = max(s.etc_reachable for s in post)
        if plateau <= 0:
            return None
        floor_index = min(
            range(len(post)), key=lambda i: (post[i].etc_reachable, i)
        )
        target = fraction * plateau
        for snapshot in post[floor_index:]:
            if snapshot.etc_reachable >= target:
                return snapshot.time - self.fork_time
        return None


class PartitionScenario:
    """Build, run, and measure the partition event.

    Pass ``obs`` (a :class:`repro.obs.Observability`) to instrument the
    run: the simulator, transport, nodes, and injector all share the one
    bundle, and the scenario phases are wrapped in wall-time spans.  The
    trajectory is identical with or without it.
    """

    def __init__(
        self,
        config: Optional[PartitionScenarioConfig] = None,
        obs: Optional["Observability"] = None,
        simulator_factory: Optional[Callable[..., Simulator]] = None,
    ) -> None:
        self.config = config or PartitionScenarioConfig()
        self.obs = obs
        #: Constructor seam for the event engine — the benchmark harness
        #: wraps it to read the engine's event count after a run.
        self.simulator_factory = simulator_factory or Simulator

    def _span(self, label: str):
        if self.obs is None:
            return nullcontext()
        return self.obs.span(label)

    def run(self) -> PartitionResult:
        config = self.config
        # Chaos is strictly additive: a plain PartitionScenarioConfig
        # takes the exact pre-fault code path (no injector, no loops, no
        # policy), so baseline trajectories replay byte-identically.
        chaos = isinstance(config, ChaosPartitionConfig)
        policy = config.resilience_policy() if chaos else None
        # Topology is additive the same way chaos is: plain configs never
        # enter this branch, so their trajectories are untouched.
        topo = config if isinstance(config, TopologyPartitionConfig) else None
        built: Optional[BuiltTopology] = None
        if topo is not None:
            if topo.latency not in ("lognormal", "geo"):
                raise ValueError(
                    f"unknown latency model {topo.latency!r}; "
                    "expected 'lognormal' or 'geo'"
                )
            spec = topo.topology_spec()
            if spec is not None:
                if spec.num_nodes != config.num_nodes:
                    raise ValueError(
                        f"topology num_nodes ({spec.num_nodes}) != "
                        f"scenario num_nodes ({config.num_nodes})"
                    )
                built = build_topology(
                    spec,
                    names=[f"n{i:03d}" for i in range(config.num_nodes)],
                )
        rng = random.Random(config.seed)

        total_hashrate = config.num_miners * config.miner_hashrate
        genesis, _ = build_genesis(
            alloc={}, difficulty=equilibrium_difficulty(total_hashrate)
        )

        # Everyone starts on the legacy client: no DAO fork support.  The
        # configs use the scenario's compressed fork height.
        etc_config = replace(
            ETC_CONFIG,
            dao_fork_block=config.fork_block,
            gas_reprice_block=None,
            replay_protection_block=None,
            bomb_delay=10**9,
        )
        eth_config = replace(
            ETH_CONFIG,
            dao_fork_block=config.fork_block,
            gas_reprice_block=None,
            replay_protection_block=None,
            bomb_delay=10**9,
        )

        sim = self.simulator_factory(obs=self.obs)
        if topo is not None and topo.latency == "geo":
            # Strict: an unmapped region pair raises instead of being
            # silently priced at the default delay.
            latency_model = GeographicLatency(strict=True)
        else:
            latency_model = LognormalLatency(median=0.12)
        network = Network(sim, latency=latency_model, seed=config.seed)

        upgraders: List[str] = []
        holdouts: List[str] = []
        for index in range(config.num_nodes):
            is_miner = index < config.num_miners
            node = FullNode(
                name=f"n{index:03d}",
                chain=Blockchain(etc_config, genesis, execute_transactions=False),
                mining_hashrate=config.miner_hashrate if is_miner else 0.0,
                region=rng.choice(["na", "eu", "as"]),
                rng_seed=config.seed * 1000 + index,
                resilience=policy,
            )
            network.add_node(node)
            if rng.random() < config.upgrade_fraction:
                upgraders.append(node.name)
            else:
                holdouts.append(node.name)
        if not holdouts:
            holdouts.append(upgraders.pop())
        if not upgraders:
            upgraders.append(holdouts.pop())

        with self._span("scenario.bootstrap"):
            if built is not None:
                network.bootstrap_from_topology(
                    built, extra_routing=topo.extra_routing
                )
            else:
                network.bootstrap_mesh(target_degree=config.target_degree)
        network.schedule_redial_loop(config.redial_interval)

        if built is not None and self.obs is not None and self.obs.metrics is not None:
            stats = built.degree_stats()
            metrics = self.obs.metrics
            metrics.counter("topology.builds").inc()
            metrics.gauge("topology.nodes").set(stats["nodes"])
            metrics.gauge("topology.edges").set(stats["edges"])
            metrics.gauge("topology.degree_mean").set(stats["degree_mean"])
            metrics.gauge("topology.degree_max").set(stats["degree_max"])
            metrics.gauge("topology.degree_gini").set(stats["degree_gini"])

        injector: Optional[FaultInjector] = None
        if chaos:
            injector = FaultInjector(
                network, config.fault_schedule(), seed=config.seed
            )
            injector.arm()
            network.track_block_propagation = True
            if policy is not None:
                network.schedule_liveness_loop(config.liveness_interval)
                network.schedule_gossip_heal_loop(config.heal_interval)

        sim.run_until(120)  # let handshakes settle
        network.start_all_miners()

        # Upgrades roll out while the chain approaches the fork height —
        # operators installed the forking client days ahead; compressed
        # here to a window before activation.
        expected_fork_time = sim.now + config.fork_block * 14.0
        for position, name in enumerate(upgraders):
            when = sim.now + (position / max(1, len(upgraders))) * (
                0.6 * config.fork_block * 14.0
            )
            sim.schedule_at(
                when, network.nodes[name].upgrade, eth_config
            )

        snapshots: List[PartitionSnapshot] = []
        robustness_samples: List[RobustnessSample] = []
        fork_time_holder: List[float] = []

        eth_seed = upgraders[0]
        etc_seed = holdouts[0]

        def census() -> None:
            eth_nodes = [
                network.nodes[n]
                for n in network.nodes
                if network.nodes[n].config.dao_fork_support
            ]
            etc_nodes = [
                network.nodes[n]
                for n in network.nodes
                if not network.nodes[n].config.dao_fork_support
            ]
            eth_height = max((n.chain.height for n in eth_nodes), default=0)
            etc_height = max((n.chain.height for n in etc_nodes), default=0)
            if not fork_time_holder and max(eth_height, etc_height) >= config.fork_block:
                fork_time_holder.append(sim.now)
            eth_reachable = len(reachable_nodes(network, eth_seed))
            etc_reachable = len(reachable_nodes(network, etc_seed))
            etc_mean_peers = _mean(len(n.peers) for n in etc_nodes)
            snapshots.append(
                PartitionSnapshot(
                    time=sim.now,
                    eth_height=eth_height,
                    etc_height=etc_height,
                    eth_reachable=eth_reachable,
                    etc_reachable=etc_reachable,
                    eth_mean_peers=_mean(len(n.peers) for n in eth_nodes),
                    etc_mean_peers=etc_mean_peers,
                )
            )
            if chaos:
                robustness_samples.append(
                    RobustnessSample(
                        time=sim.now,
                        watched_reachable=etc_reachable,
                        other_reachable=eth_reachable,
                        online_nodes=sum(
                            1 for n in network.nodes.values() if n.online
                        ),
                        watched_mean_peers=etc_mean_peers,
                    )
                )

        end_time = expected_fork_time + config.post_fork_horizon
        tick = sim.now
        while tick <= end_time:
            sim.schedule_at(tick, census)
            tick += config.census_interval
        with self._span("scenario.run"):
            sim.run_until(
                end_time,
                max_events=config.max_events if chaos else None,
            )

        refusals = sum(
            node.stats["handshakes_refused"] for node in network.nodes.values()
        )
        incompatible = sum(
            node.stats["disconnects_incompatible"]
            for node in network.nodes.values()
        )
        fork_time = fork_time_holder[0] if fork_time_holder else None

        robustness: Optional[RobustnessReport] = None
        if injector is not None:
            total_mined = sum(
                network.nodes[n].stats["blocks_mined"]
                for n in sorted(network.nodes)
            )
            # Each side's canonical chain counts every mined block that
            # survived; the rest (uncles, abandoned branches) are the
            # orphans the report's orphan_rate charges to the faults.
            eth_best = max(
                (
                    n.chain.height
                    for n in network.nodes.values()
                    if n.config.dao_fork_support
                ),
                default=0,
            )
            etc_best = max(
                (
                    n.chain.height
                    for n in network.nodes.values()
                    if not n.config.dao_fork_support
                ),
                default=0,
            )
            robustness = build_robustness_report(
                seed=config.seed,
                schedule=injector.schedule,
                samples=robustness_samples,
                network=network,
                recovery_fraction=config.recovery_fraction,
                fork_time=fork_time if fork_time is not None else expected_fork_time,
                watched="etc",
                fault_log=injector.log,
                total_blocks_mined=total_mined,
                canonical_blocks=eth_best + etc_best,
            )

        return PartitionResult(
            config=config,
            snapshots=snapshots,
            fork_time=fork_time,
            handshake_refusals=refusals,
            incompatible_disconnects=incompatible,
            robustness=robustness,
        )


def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return ordered_sum(values) / len(values)
