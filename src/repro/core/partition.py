"""Partition detection and post-fork stabilization analysis.

Quantifies the paper's Observations 1 and 2:

1. "ETC experienced a sudden loss of roughly 90% of the nodes in its
   network immediately after the fork" — :func:`node_loss_fraction` over
   P2P censuses, and :func:`hashpower_loss_fraction` over chain data.
2. "It took two days for ETC to resume producing blocks at the target
   rate" — :func:`stabilization_time`; "the average time delta per block
   spiked to over 1,200 seconds" — :func:`peak_block_delta`.

Plus the structural primitive: :func:`find_fork_point` locates where two
chains diverge, from data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..chain.chainstore import Blockchain
from ..data.windows import HOUR
from ..net.network import NetworkCensus
from ..sim.blockprod import ChainTrace

__all__ = [
    "find_fork_point",
    "find_trace_fork_point",
    "node_loss_fraction",
    "hashpower_loss_fraction",
    "stabilization_time",
    "peak_block_delta",
    "StabilizationReport",
]


def find_fork_point(chain_a: Blockchain, chain_b: Blockchain) -> Optional[int]:
    """Height of the last block canonical on both chains (None if even the
    genesis differs)."""
    ancestor = chain_a.common_ancestor(chain_b)
    return ancestor.number if ancestor is not None else None


def find_trace_fork_point(trace_a: ChainTrace, trace_b: ChainTrace) -> Optional[int]:
    """Fork height from columnar traces.

    Traces carry no hashes, so divergence is detected where the
    (timestamp, miner) sequences stop agreeing — the data-level shadow of
    the hash comparison, and exact for traces built by
    :meth:`ChainTrace.forked_from`.
    """
    limit = min(len(trace_a), len(trace_b))
    for index in range(limit):
        if (
            trace_a.timestamps[index] != trace_b.timestamps[index]
            or trace_a.miner_ids[index] != trace_b.miner_ids[index]
            or trace_a.numbers[index] != trace_b.numbers[index]
        ):
            return trace_a.numbers[index] - 1 if index > 0 else None
    if limit == 0:
        return None
    return trace_a.numbers[limit - 1]


def node_loss_fraction(
    before: NetworkCensus, after: NetworkCensus, network_name: str
) -> float:
    """Fraction of a network's nodes lost between two censuses.

    ``before`` is typically taken just under the fork height (everyone
    still in one group — compare against the total) and ``after`` shortly
    past it.
    """
    baseline = before.count(network_name)
    if baseline == 0:
        # Pre-fork, the group may not exist yet: everyone is "pre-fork".
        baseline = sum(len(names) for names in before.members.values())
    if baseline == 0:
        raise ValueError("empty baseline census")
    remaining = after.count(network_name)
    return 1.0 - remaining / baseline


def hashpower_loss_fraction(
    trace: ChainTrace,
    fork_timestamp: int,
    window: int = 6 * HOUR,
) -> float:
    """Hashpower lost at the fork, inferred from block production.

    Compares the block rate in the ``window`` before the fork with the
    *effective hashrate* just after (block rate × difficulty, which is
    hashrate by the Poisson identity, so the unchanged difficulty right
    after the fork doesn't bias the estimate).
    """
    before = trace.slice_by_time(fork_timestamp - window, fork_timestamp)
    after = trace.slice_by_time(fork_timestamp, fork_timestamp + window)
    if len(before) == 0:
        raise ValueError("no pre-fork blocks in window")
    hashrate_before = (
        sum(trace.difficulties[i] for i in before) / window
    )
    hashrate_after = (
        sum(trace.difficulties[i] for i in after) / window
    )
    return 1.0 - hashrate_after / hashrate_before


@dataclass(frozen=True)
class StabilizationReport:
    """How the difficulty mechanism digested the partition."""

    #: Seconds from the fork until block production sustainably returned
    #: to the target rate (None = never within the data).
    stabilization_seconds: Optional[float]
    #: Largest inter-block gap observed during recovery.
    peak_delta_seconds: float
    #: Difficulty at the fork and at the recovery point.
    difficulty_at_fork: int
    difficulty_at_recovery: Optional[int]

    @property
    def stabilization_days(self) -> Optional[float]:
        if self.stabilization_seconds is None:
            return None
        return self.stabilization_seconds / 86_400


def stabilization_time(
    db,
    chain: str,
    fork_timestamp: int,
    target_block_time: float = 14.0,
    rate_tolerance: float = 0.5,
    sustain_hours: int = 6,
    horizon_days: int = 14,
) -> StabilizationReport:
    """Observation 2's statistic, computed the way the paper eyeballs it.

    Finds the first hour after the fork where ``chain``'s hourly block
    count reaches ``(1 - rate_tolerance)`` of the target rate and *stays*
    there for ``sustain_hours`` consecutive hours.  Reads two
    ``blocks_between`` windows of ``db``; they are small, so the boxed
    records are cheap even on the columnar backend.
    """
    target_per_hour = HOUR / target_block_time
    threshold = target_per_hour * (1.0 - rate_tolerance)

    records = db.blocks_between(
        chain, fork_timestamp, fork_timestamp + horizon_days * 24 * HOUR
    )
    if not records:
        raise ValueError("no post-fork blocks to analyze")

    hourly: dict = {}
    peak_delta = 0.0
    previous_ts = None
    difficulty_at_fork = records[0].difficulty
    for record in records:
        timestamp = record.timestamp
        hour = (timestamp - fork_timestamp) // HOUR
        hourly[hour] = hourly.get(hour, 0) + 1
        if previous_ts is not None:
            peak_delta = max(peak_delta, timestamp - previous_ts)
        previous_ts = timestamp

    last_hour = max(hourly)
    run = 0
    recovery_hour: Optional[int] = None
    for hour in range(0, int(last_hour) + 1):
        if hourly.get(hour, 0) >= threshold:
            run += 1
            if run >= sustain_hours:
                recovery_hour = hour - sustain_hours + 1
                break
        else:
            run = 0

    difficulty_at_recovery = None
    stabilization_seconds = None
    if recovery_hour is not None:
        stabilization_seconds = recovery_hour * HOUR
        recovery_ts = fork_timestamp + stabilization_seconds
        recovered = db.blocks_between(chain, recovery_ts, recovery_ts + HOUR)
        if recovered:
            difficulty_at_recovery = recovered[0].difficulty

    return StabilizationReport(
        stabilization_seconds=stabilization_seconds,
        peak_delta_seconds=peak_delta,
        difficulty_at_fork=difficulty_at_fork,
        difficulty_at_recovery=difficulty_at_recovery,
    )


def peak_block_delta(
    trace: ChainTrace, start_ts: int, end_ts: int
) -> float:
    """Largest inter-block gap in a window (the 1,200+ second spike)."""
    indices = trace.slice_by_time(start_ts, end_ts)
    peak = 0.0
    previous = None
    for i in indices:
        timestamp = trace.timestamps[i]
        if previous is not None:
            peak = max(peak, timestamp - previous)
        previous = timestamp
    return peak
