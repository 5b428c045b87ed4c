"""Golden-trajectory tests for the performance kernels.

Every fast path in this repo rides on one invariant: the optimized code
is *trajectory-identical* to the seed-state implementation it replaced —
same RNG draw order, same outputs, bit for bit.  The seed trajectories
are frozen in :mod:`repro.perf.golden` (recorded from the seed-state
reference arms), and these tests hold each kernel against them:

* ``BlockProducer.advance_batch`` / ``run_until`` — golden trajectories,
  plus a live check that batch boundaries never move the trajectory
* ``PoolLandscape.make_sampler`` — golden winner sequences
* ``ChainConfig.fast_difficulty`` vs ``compute_difficulty`` (live)
* the ``Simulator`` hot loop vs the observed loop (live) and its golden
* the partition scenario vs its golden and the obs-enabled product path
* whole fork-sim digests, in-process and across fork/spawn workers
"""

import random

import pytest

from repro.chain.config import ETC_CONFIG, ETH_CONFIG, PRE_FORK_CONFIG
from repro.harness import NullProgress, WorkerPool, simulate_spec
from repro.net.simulator import Simulator
from repro.obs import Observability
from repro.perf.golden import TRAJECTORIES, value_digest
from repro.sim.blockprod import BlockProducer, ChainTrace
from repro.sim.engine import ForkSimConfig, run_fork_sim
from repro.sim.population import (
    etc_pool_landscape,
    eth_pool_landscape,
    prefork_pool_landscape,
)
from repro.sim.workload import eth_workload

LANDSCAPES = {
    "eth": eth_pool_landscape,
    "etc": etc_pool_landscape,
    "prefork": prefork_pool_landscape,
}


def make_producer(seed: int = 42) -> BlockProducer:
    return BlockProducer(
        ETH_CONFIG,
        ChainTrace("ETH"),
        start_number=1_920_000,
        start_timestamp=1_469_020_840,
        start_difficulty=62_413_376_722_602,
        seed=seed,
    )


def trace_columns(trace: ChainTrace):
    return (
        list(trace.numbers),
        list(trace.timestamps),
        list(trace.difficulties),
        list(trace.miner_ids),
        list(trace.tx_counts),
        list(trace.contract_tx_counts),
        list(trace.miner_labels),
    )


def producer_state(producer: BlockProducer):
    """Everything a trajectory leaves behind, down to the RNG state —
    the strongest claim: both arms consumed the exact same draws."""
    return (
        trace_columns(producer.trace),
        (producer.number, producer.timestamp, producer.clock,
         producer.difficulty),
        producer.rng.getstate(),
    )


def eth_tx_sampler(with_tx: bool):
    if not with_tx:
        return None
    workload = eth_workload()
    total = workload.daily_count(0, random.Random(7))
    return workload.per_block_sampler(0, total)


def mine(producer, n, hashrate, miner_sampler, tx_sampler=None, per_call=None):
    """Mine ``n`` blocks in ``advance_batch`` calls of ``per_call``
    blocks (one call when None)."""
    per_call = per_call or n
    produced = 0
    while produced < n:
        produced += producer.advance_batch(
            min(per_call, n - produced), hashrate, miner_sampler, tx_sampler
        )
    return producer


def mine_eth(with_tx: bool, per_call=None) -> BlockProducer:
    return mine(
        make_producer(),
        4_000,
        4.5e12,
        eth_pool_landscape().make_sampler(0.0),
        eth_tx_sampler(with_tx),
        per_call,
    )


def mine_landscape(name: str, day: float) -> BlockProducer:
    return mine(
        make_producer(seed=int(day) + 1),
        500,
        2.0e12,
        LANDSCAPES[name]().make_sampler(day),
    )


def coin_sampler(rng):
    return "pool-a" if rng.random() < 0.5 else "pool-b"


def run_until_hour():
    producer = make_producer()
    end = producer.timestamp + 3_600
    blocks = producer.run_until(
        end, 4.5e12, eth_pool_landscape().make_sampler(0.0)
    )
    return blocks, producer_state(producer)


def sampler_draws(name: str, day: float, n: int = 20_000):
    rng = random.Random(99)
    sampler = LANDSCAPES[name]().make_sampler(day)
    winners = [sampler(rng) for _ in range(n)]
    return winners, rng.getstate()


def forksim_config(seed: int, with_transactions: bool) -> ForkSimConfig:
    return ForkSimConfig(
        days=4,
        prefork_days=2,
        seed=seed,
        with_transactions=with_transactions,
    )


#: The fork sim the worker-determinism tests ship across processes.
WORKER_CONFIG = ForkSimConfig(
    days=3, prefork_days=1, seed=11, with_transactions=False
)


def hot_loop_workload(sim):
    fired = []
    handles = {}

    def tick(label, period):
        fired.append((label, sim.now))
        if sim.now < 200.0:
            handles[label] = sim.schedule(period, tick, label, period)
        # Cancellation exercises the drain path: every third firing
        # of timer 0 cancels timer 2's pending event.
        if label == 0 and len(fired) % 3 == 0 and 2 in handles:
            handles[2].cancel()
            handles[2] = sim.schedule(5.0, tick, 2, 2.3)

    for label, period in enumerate((1.0, 1.7, 2.3)):
        handles[label] = sim.schedule(period, tick, label, period)
    processed = sim.run_until(250.0)
    return fired, processed, sim.now, sim.events_processed


def partition_run(obs=None):
    from repro.scenarios.partition_event import (
        PartitionScenario,
        PartitionScenarioConfig,
    )

    config = PartitionScenarioConfig(
        num_nodes=14, num_miners=4, post_fork_horizon=600.0, seed=5
    )
    result = PartitionScenario(config, obs=obs).run()
    return (
        [
            (s.time, s.eth_height, s.etc_height, s.eth_reachable,
             s.etc_reachable, s.eth_mean_peers, s.etc_mean_peers)
            for s in result.snapshots
        ],
        result.fork_time,
        result.handshake_refusals,
        result.incompatible_disconnects,
    )


class TestBatchKernel:
    @pytest.mark.parametrize("with_tx", [False, True])
    def test_batch_matches_golden_trajectory(self, with_tx):
        batched = mine_eth(with_tx)
        stepped = mine_eth(with_tx, per_call=1)
        assert len(batched.trace) == 4_000
        assert producer_state(batched) == producer_state(stepped)
        assert value_digest(producer_state(batched)) == TRAJECTORIES[
            f"advance_batch/eth/tx={int(with_tx)}"
        ]

    def test_batch_matches_across_landscapes_and_days(self):
        for name in LANDSCAPES:
            for day in (0.0, 30.0, 100.0):
                producer = mine_landscape(name, day)
                assert value_digest(producer_state(producer)) == (
                    TRAJECTORIES[f"advance_batch/{name}/day={int(day)}"]
                ), (name, day)

    def test_batch_stops_at_end_timestamp(self):
        blocks, state = run_until_hour()
        assert blocks > 0
        assert value_digest((blocks, state)) == TRAJECTORIES[
            "run_until/eth/3600s"
        ]

    def test_batch_rejects_bad_hashrate_and_empty_batches(self):
        producer = make_producer()
        with pytest.raises(ValueError):
            producer.advance_batch(
                10, 0.0, eth_pool_landscape().make_sampler(0.0)
            )
        assert producer.advance_batch(
            0, 1e12, eth_pool_landscape().make_sampler(0.0)
        ) == 0
        assert len(producer.trace) == 0

    def test_plain_callable_sampler_still_works(self):
        # A miner sampler without categorical_parts (user-supplied
        # callable) must route through the generic loop unchanged.
        batched = mine(make_producer(), 300, 1e12, coin_sampler)
        stepped = mine(make_producer(), 300, 1e12, coin_sampler, per_call=1)
        assert producer_state(batched) == producer_state(stepped)
        assert value_digest(producer_state(batched)) == TRAJECTORIES[
            "advance_batch/callable"
        ]


class TestSamplerParity:
    @pytest.mark.parametrize("day", [0.0, 1.0, 45.0, 120.0])
    def test_fast_and_reference_samplers_agree(self, day):
        # The reference winner sequences (and the RNG state they leave)
        # are the golden ones the seed-state sampler produced.
        for name in ("eth", "etc"):
            assert value_digest(sampler_draws(name, day)) == TRAJECTORIES[
                f"sampler/{name}/day={int(day)}"
            ], name

    def test_sampler_exposes_categorical_parts(self):
        sampler = eth_pool_landscape().make_sampler(0.0)
        cumulative, labels, pooled_mass, solo_count, solo_labels, last = (
            sampler.categorical_parts
        )
        assert len(cumulative) == len(labels) == last + 1
        assert 0 < pooled_mass < 1
        assert solo_count == len(solo_labels)


class TestDifficultyParity:
    @pytest.mark.parametrize(
        "config", [ETH_CONFIG, ETC_CONFIG, PRE_FORK_CONFIG]
    )
    def test_fast_rule_matches_reference_on_random_headers(self, config):
        fast = config.fast_difficulty
        rng = random.Random(1234)
        for _ in range(5_000):
            parent_difficulty = rng.randrange(131_072, 10**15)
            parent_timestamp = rng.randrange(1_400_000_000, 1_600_000_000)
            timestamp = parent_timestamp + rng.randrange(1, 2_000)
            number = rng.randrange(1, 6_000_000)
            assert fast(
                parent_difficulty, parent_timestamp, timestamp, number
            ) == config.compute_difficulty(
                parent_difficulty, parent_timestamp, timestamp, number
            )

    def test_fast_rule_matches_on_floor_and_bomb_edges(self):
        for config in (ETH_CONFIG, ETC_CONFIG):
            fast = config.fast_difficulty
            for number in (1, 199_999, 200_000, 200_001, 2_000_000,
                           4_000_000, 5_000_000):
                for dt in (1, 9, 10, 11, 999, 1_000, 10_000):
                    for parent in (131_072, 131_073, 10**9, 10**14):
                        assert fast(
                            parent, 1_469_000_000, 1_469_000_000 + dt, number
                        ) == config.compute_difficulty(
                            parent, 1_469_000_000, 1_469_000_000 + dt, number
                        )


class TestForkSimDigests:
    @pytest.mark.parametrize("seed", [1, 7, 2016_07_20])
    @pytest.mark.parametrize("with_transactions", [False, True])
    def test_fast_and_reference_digests_identical(
        self, seed, with_transactions
    ):
        # The golden digest is the seed-state reference arm's.
        result = run_fork_sim(forksim_config(seed, with_transactions))
        assert result.digest() == TRAJECTORIES[
            f"forksim/seed={seed}/tx={int(with_transactions)}"
        ]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_digest_matches_golden_across_workers(self, start_method):
        pool = WorkerPool(
            workers=2,
            cache_dir=None,
            timeout=300.0,
            retries=0,
            progress=NullProgress(),
            start_method=start_method,
        )
        if pool.workers == 1:
            pytest.skip("multiprocessing unavailable on this host")
        spec = simulate_spec(WORKER_CONFIG)
        results = pool.run([spec, spec])
        assert all(r.record.status == "ok" for r in results)
        for result in results:
            assert result.value.digest() == TRAJECTORIES[
                "forksim/days=3/seed=11/tx=0"
            ]


class TestSimulatorHotLoop:
    def test_hot_loop_matches_reference_and_observed(self):
        plain = hot_loop_workload(Simulator())
        observed = hot_loop_workload(
            Simulator(obs=Observability.enabled())
        )
        assert plain == observed
        assert value_digest(plain) == TRAJECTORIES["simulator/hot_loop"]

    def test_max_events_exceeded_keeps_entry_queued(self):
        from repro.net.simulator import SimulationError

        def build():
            sim = Simulator()

            def tick():
                sim.schedule(1.0, tick)

            sim.schedule(1.0, tick)
            return sim

        fast, observed = build(), build()
        with pytest.raises(SimulationError):
            fast.run_until(100.0, max_events=10)
        with pytest.raises(SimulationError):
            observed._run_until_observed(100.0, max_events=10)
        assert fast.events_processed == observed.events_processed == 10
        assert fast.pending == observed.pending == 1
        assert fast.now == observed.now


class TestNetworkFastPath:
    def test_partition_scenario_matches_golden_and_observed(self):
        # Live arm: the obs-enabled product path (observed event loop,
        # full send ladder, full block-import chain).  Golden: the
        # seed-state reference event loop's trajectory.
        fast = partition_run()
        observed = partition_run(obs=Observability.enabled())
        assert fast == observed
        assert value_digest(fast) == TRAJECTORIES["partition/14-nodes/seed=5"]


class TestBenchHarness:
    def test_smoke_bench_writes_valid_reports(self, tmp_path):
        from repro.perf.bench import run_bench, validate_report
        import json

        paths, all_ok = run_bench(
            smoke=True,
            repeats=1,
            only=["forksim"],
            out_dir=str(tmp_path),
            report_dir=str(tmp_path / "reports"),
            echo=lambda line: None,
        )
        assert all_ok is True
        json_paths = [p for p in paths if p.suffix == ".json"]
        assert len(json_paths) == 1
        payload = json.loads(json_paths[0].read_text())
        assert validate_report(payload) == []
        rows = {row["case"]: row for row in payload["cases"]}
        assert set(rows) == {
            "forksim_difficulty", "forksim_workload", "forksim_analysis",
        }
        for row in rows.values():
            assert row["digests_match"] is True
            assert row["fast"]["digest"] == row["golden"]
            assert row["fast"]["peak_bytes"] >= 0
        # Only the analysis case keeps a second arm: the record-backend
        # oracle, with its columnar-vs-record memory floor.
        assert {c for c, row in rows.items() if "reference" in row} == {
            "forksim_analysis"
        }
        analysis = rows["forksim_analysis"]
        assert analysis["reference"]["digest"] == analysis["golden"]
        assert analysis["memory_ok"] is True
        assert analysis["memory_min_ratio"] > 1.0
        assert analysis["memory_ratio"] >= analysis["memory_min_ratio"]
        assert (tmp_path / "reports" / "bench_forksim.txt").exists()

    def test_validate_report_flags_problems(self):
        from repro.perf.bench import validate_report

        assert validate_report({}) != []
        assert any(
            "schema" in problem for problem in validate_report({"cases": []})
        )

    def test_unknown_report_selection_raises(self):
        from repro.perf.bench import run_bench

        with pytest.raises(ValueError):
            run_bench(only=["nope"])
