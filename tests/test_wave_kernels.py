"""Golden-trajectory tests: delivery-wave kernels, dispatch table, SoA stats.

The wave kernels (:meth:`Network._send_wave_plain` /
:meth:`Network._send_wave_general`) must consume RNG draws in exactly
the per-send order and enqueue byte-identical deliveries; the exact-type
dispatch table must pick the handler the ``isinstance`` ladder picks;
the block-sync pre-checks must reproduce ``import_block``'s verdicts;
and :class:`NodeStats` must read like the dict it replaced.

Each differential test runs two live arms — the plain fast path, and the
obs-enabled product path (every send walks the full transport ladder and
every block pays the full import chain) — and pins
the result to the golden digest in :mod:`repro.perf.golden`, recorded
from the seed-state reference event loop.
"""

from dataclasses import replace

import pytest

from repro.chain.chainstore import Blockchain
from repro.chain.config import ETH_CONFIG
from repro.chain.genesis import build_genesis
from repro.net import messages as messages_module
from repro.net.latency import (
    ConstantLatency,
    GeographicLatency,
    LognormalLatency,
)
from repro.net.messages import Blocks, GetBlocks, NewBlock, NewBlockHashes
from repro.net.network import Network
from repro.net.node import _DISPATCH, FullNode
from repro.net.simulator import Simulator
from repro.obs import Observability
from repro.perf.bench import run_bench
from repro.perf.golden import TRAJECTORIES, value_digest
from repro.perf.soa import NodeStats

CFG = replace(ETH_CONFIG, dao_fork_block=10**9, bomb_delay=10**9)


def make_genesis():
    genesis, _ = build_genesis({}, difficulty=200_000)
    return genesis


def make_sim(observed):
    """The plain engine, or the obs-enabled one — which routes the
    network onto the full send ladder and the nodes onto the full block
    import chain."""
    return Simulator(obs=Observability.enabled()) if observed else Simulator()


def build_net(latency, observed=False, seed=7, num_nodes=12, offline=(3,)):
    genesis = make_genesis()
    sim = make_sim(observed)
    net = Network(sim, latency=latency, seed=seed)
    regions = ("eu", "us", "asia")
    for i in range(num_nodes):
        node = FullNode(
            f"n{i}",
            Blockchain(CFG, genesis, execute_transactions=False),
            region=regions[i % len(regions)],
            rng_seed=100 + i,
        )
        net.add_node(node)
        if i in offline:
            node.online = False
    return sim, net, genesis


def recipient(handle):
    """Traced runs deliver through the network's trampoline, whose first
    argument is the recipient node."""
    owner = handle.callback.__self__
    return owner.name if isinstance(owner, FullNode) else handle.args[0].name


def queue_snapshot(sim):
    return sorted((t, s, recipient(h)) for t, s, h in sim._queue)


def transport_counters(net):
    return (
        net.messages_sent,
        net.messages_lost,
        net.messages_undeliverable,
        net.messages_blocked,
    )


LATENCIES = [
    LognormalLatency(median=0.12, sigma=0.6),
    GeographicLatency(),
    ConstantLatency(0.05),
]


def latency_key(latency):
    return type(latency).__name__


def wave_run(latency, observed=False):
    sim, net, _ = build_net(latency, observed)
    message = NewBlockHashes(sender_id="n0", hashes=())
    net.send_wave("n0", [f"n{i}" for i in range(1, 12)], message)
    return (
        queue_snapshot(sim),
        net.sim_rng.getstate(),
        transport_counters(net),
    )


def single_send_run(latency, observed=False):
    sim, net, _ = build_net(latency, observed)
    message = GetBlocks(sender_id="n0", hashes=())
    for dest in ("n1", "n2", "n3", "n4"):
        net.send("n0", dest, message)
    return (
        queue_snapshot(sim),
        net.sim_rng.getstate(),
        transport_counters(net),
    )


def general_wave_run(latency, observed=False):
    genesis = make_genesis()
    sim = make_sim(observed)
    net = Network(sim, latency=latency, seed=11, loss_rate=0.2)
    net.track_block_propagation = True
    for i in range(10):
        node = FullNode(
            f"n{i}",
            Blockchain(CFG, genesis, execute_transactions=False),
            region=("eu", "us")[i % 2],
            rng_seed=200 + i,
        )
        net.add_node(node)
    net.nodes["n5"].online = False
    message = NewBlock(sender_id="n0", block=genesis, total_difficulty=1)
    net.send_wave("n0", [f"n{i}" for i in range(1, 10)], message)
    return (
        queue_snapshot(sim),
        net.sim_rng.getstate(),
        transport_counters(net),
        dict(net._block_first_sent),
        list(net._block_delivery_delays),
    )


def mine_some_blocks(n=4):
    """A short single-miner run; returns the mined canonical blocks."""
    genesis = make_genesis()
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.05), seed=3)
    miner = FullNode(
        "miner",
        Blockchain(CFG, genesis, execute_transactions=False),
        mining_hashrate=5e4,
        rng_seed=1,
    )
    net.add_node(miner)
    miner.start_mining()
    while miner.chain.height < n:
        sim.run_until(sim.now + 60.0)
    chain = [
        miner.chain.block_by_number(i) for i in range(1, n + 1)
    ]
    return genesis, chain


def sync_pair(genesis, observed):
    sim = make_sim(observed)
    net = Network(sim, latency=ConstantLatency(0.05), seed=5)
    node = FullNode(
        "sync",
        Blockchain(CFG, genesis, execute_transactions=False),
        rng_seed=9,
    )
    peer = FullNode(
        "peer",
        Blockchain(CFG, genesis, execute_transactions=False),
        rng_seed=10,
    )
    net.add_node(node)
    net.add_node(peer)
    return sim, node


def announced_blocks_run(genesis, blocks, observed=False):
    sim, node = sync_pair(genesis, observed)
    feed = [
        NewBlock(sender_id="peer", block=blocks[2],
                 total_difficulty=0),  # orphan: parents missing
        NewBlock(sender_id="peer", block=blocks[0],
                 total_difficulty=0),  # imports
        NewBlock(sender_id="peer", block=blocks[0],
                 total_difficulty=0),  # seen -> dropped
        NewBlock(sender_id="peer", block=genesis,
                 total_difficulty=0),  # known
    ]
    for message in feed:
        node.receive(message)
    return (
        sorted(node.seen_blocks._seen),
        sorted(node.chain.block_index),
        dict(node._requested_parents),
        node.chain.head.block_hash,
        queue_snapshot(sim),
        node.stats.as_dict(),
    )


def served_batch_run(genesis, blocks, observed=False):
    sim, node = sync_pair(genesis, observed)
    # Mixed batch: known genesis, an importable run, an orphan (its
    # parent deliberately withheld), and a duplicate.
    node.receive(
        Blocks(
            sender_id="peer",
            blocks=(genesis, blocks[0], blocks[1], blocks[3], blocks[1]),
        )
    )
    return (
        sorted(node.seen_blocks._seen),
        sorted(node.chain.block_index),
        dict(node._requested_parents),
        queue_snapshot(sim),
    )


def mining_run(observed=False):
    genesis = make_genesis()
    sim = make_sim(observed)
    net = Network(sim, latency=ConstantLatency(0.05), seed=21)
    nodes = []
    for i in range(6):
        node = FullNode(
            f"n{i}",
            Blockchain(CFG, genesis, execute_transactions=False),
            mining_hashrate=5e4 if i < 2 else 0.0,
            rng_seed=300 + i,
        )
        net.add_node(node)
        nodes.append(node)
    net.bootstrap_mesh(target_degree=4)
    for node in nodes[:2]:
        node.start_mining()
    sim.run_until(900.0)
    return (
        [node.chain.head.block_hash for node in nodes],
        [node.stats.as_dict() for node in nodes],
        [sorted(node.peers) for node in nodes],
        sim.events_processed,
        net.sim_rng.getstate(),
        transport_counters(net),
    )


def assert_golden(run, key, *args):
    fast = run(*args)
    assert fast == run(*args, observed=True)
    assert value_digest(fast) == TRAJECTORIES[key]
    return fast


class TestPlainWaveKernel:
    @pytest.mark.parametrize("latency", LATENCIES)
    def test_wave_matches_per_send_loop(self, latency):
        assert_golden(
            wave_run, f"wave/plain/{latency_key(latency)}", latency
        )

    @pytest.mark.parametrize("latency", LATENCIES)
    def test_single_send_matches_golden(self, latency):
        assert_golden(
            single_send_run, f"send/plain/{latency_key(latency)}", latency
        )


class TestGeneralWaveKernel:
    @pytest.mark.parametrize("latency", LATENCIES[:2])
    def test_loss_and_tracking_match_per_send_loop(self, latency):
        assert_golden(
            general_wave_run, f"wave/general/{latency_key(latency)}", latency
        )


class TestBlockSyncPrechecks:
    def test_known_and_orphan_shortcuts_match_full_import(self):
        genesis, blocks = mine_some_blocks(4)
        assert_golden(
            announced_blocks_run, "blocksync/announced", genesis, blocks
        )

    def test_served_batch_matches_full_import(self):
        genesis, blocks = mine_some_blocks(4)
        fast = assert_golden(
            served_batch_run, "blocksync/served_batch", genesis, blocks
        )
        # The orphan follow-up actually happened (one GetBlocks queued).
        assert fast[2]


class TestDispatchEquivalence:
    def test_full_mining_run_identical_under_reference_swaps(self):
        # The golden digest was recorded with the seed-state receive
        # ladder, routing-table observe and block-sync handlers swapped
        # in; the live second arm is the obs-enabled product path.
        assert_golden(mining_run, "dispatch/mining_run")

    def test_dispatch_table_matches_ladder(self):
        message_types = [
            cls
            for cls in vars(messages_module).values()
            if isinstance(cls, type)
            and issubclass(cls, messages_module.Message)
            and cls is not messages_module.Message
        ]
        for message_type in message_types:
            calls = []

            class Recorder:
                def __getattr__(self, name, calls=calls):
                    return lambda message: calls.append(name)

            message = message_type.__new__(message_type)
            FullNode._dispatch_ladder(Recorder(), message)
            handler = _DISPATCH.get(message_type)
            if handler is None:
                # Ping/Pong: consumed by the resilience preamble, and
                # ignored by the ladder, never dispatched.
                assert calls == [], message_type
            else:
                assert calls == [handler.__name__], message_type
                assert getattr(FullNode, calls[0]) is handler


class TestNodeStats:
    def test_mapping_protocol(self):
        stats = NodeStats()
        assert stats["blocks_imported"] == 0
        stats.blocks_imported += 2
        assert stats["blocks_imported"] == 2
        assert stats.get("blocks_mined") == 0
        assert stats.get("nonsense", -1) == -1
        assert "txs_admitted" in stats
        assert "nonsense" not in stats
        assert len(stats) == len(stats.keys()) == 10
        assert dict(stats.items())["blocks_imported"] == 2
        assert stats.as_dict()["blocks_imported"] == 2
        assert dict(stats) == stats.as_dict()
        with pytest.raises(KeyError):
            stats["nonsense"]
        with pytest.raises(KeyError):
            stats["nonsense"] = 3
        stats["peers_banned"] = 4
        assert stats.peers_banned == 4

    def test_equality_with_dict_and_self(self):
        a, b = NodeStats(), NodeStats()
        assert a == b
        a.dials_started += 1
        assert a != b
        assert a == a.as_dict()
        assert a != {"dials_started": 1}


class TestBenchProfileFlag:
    def test_profile_writes_reports(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "_REPORTS", {"eventloop": ("eventloop_chain",)}
        )
        paths, all_match = run_bench(
            smoke=True,
            repeats=1,
            only=["eventloop"],
            out_dir=str(tmp_path),
            report_dir=str(tmp_path),
            profile=True,
        )
        assert all_match
        profile = tmp_path / "profile_eventloop_chain.txt"
        assert profile in paths and profile.exists()
        text = profile.read_text()
        assert "cumulative" in text and "run_until" in text
