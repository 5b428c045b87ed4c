"""Pool landscapes: who wins blocks, per chain per day (Figure 5's input).

The paper's Figure 5 observations, restated as model requirements:

1. ETH's top-pool block shares are constant over time and equal to the
   pre-fork shares (the big pools "immediately and pervasively chose to
   migrate to ETH") — so the ETH landscape is a *fixed* weight vector with
   small daily churn.
2. ETC's pools start much smaller ("for several months after the fork, the
   top mining pools in ETC mined a considerably smaller fraction") and
   *slowly coalesce* — a fragmented weight vector relaxing toward a
   concentrated one over ~6 months.
3. "Pools are highly dynamic (pools come and go regularly)", so the
   analysis must pick top pools per day; the model includes pool identity
   turnover in the small-pool tail to honour that.

Weights are block-winning probabilities (hashrate shares); a residual
"solo" mass is spread over many individual miner identities so it can
never masquerade as a top pool.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "PoolSpec",
    "PoolLandscape",
    "eth_pool_landscape",
    "etc_pool_landscape",
    "prefork_pool_landscape",
]


@dataclass(frozen=True)
class PoolSpec:
    name: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("pool weight must be non-negative")


class PoolLandscape:
    """A time-varying categorical distribution over miner labels.

    ``start`` and ``target`` are weight vectors (they may be identical for
    a static landscape); the landscape interpolates between them with an
    exponential relaxation of time-scale ``coalesce_days``.  Daily
    lognormal churn perturbs each pool's weight; the small-pool tail
    rotates identity every ``turnover_days``.
    """

    def __init__(
        self,
        start: Sequence[PoolSpec],
        target: Sequence[PoolSpec],
        solo_fraction: float = 0.15,
        solo_identities: int = 2000,
        coalesce_days: float = 1.0,
        churn_sigma: float = 0.06,
        turnover_days: float = 45.0,
        tail_threshold: float = 0.04,
        seed: int = 0,
    ) -> None:
        start_names = [spec.name for spec in start]
        target_names = [spec.name for spec in target]
        if start_names != target_names:
            raise ValueError("start/target must list the same pools in order")
        if not 0 <= solo_fraction < 1:
            raise ValueError("solo fraction must be in [0, 1)")
        self.pool_names = start_names
        self.start_weights = [spec.weight for spec in start]
        self.target_weights = [spec.weight for spec in target]
        self.solo_fraction = solo_fraction
        self.solo_identities = solo_identities
        self.coalesce_days = coalesce_days
        self.churn_sigma = churn_sigma
        self.turnover_days = turnover_days
        self.tail_threshold = tail_threshold
        self.seed = seed
        self._solo_label_cache: Optional[List[str]] = None

    def _solo_labels(self) -> List[str]:
        """Interned solo-miner labels, built once per landscape.

        The per-block sampler used to format ``f"solo-{i:05d}"`` on every
        solo win — measurable string traffic at millions of blocks.  The
        label for a given index is unchanged; only the formatting moved
        out of the hot loop.
        """
        if self._solo_label_cache is None:
            self._solo_label_cache = [
                f"solo-{i:05d}" for i in range(self.solo_identities)
            ]
        return self._solo_label_cache

    def _mixture(self, day: float) -> List[float]:
        m = 1.0 - math.exp(-max(day, 0.0) / self.coalesce_days)
        return [
            (1 - m) * s + m * t
            for s, t in zip(self.start_weights, self.target_weights)
        ]

    def weights_on_day(self, day: float) -> Dict[str, float]:
        """Pool label -> winning probability for ``day`` (plus churn).

        Deterministic per (landscape seed, day) so every consumer sees one
        consistent landscape.  Small pools below ``tail_threshold`` carry a
        generation suffix that rotates every ``turnover_days`` — the same
        hashpower re-appearing under a new pool brand.
        """
        rng = random.Random(f"{self.seed}:{int(day)}")
        raw = self._mixture(day)
        churned = [
            weight * rng.lognormvariate(0.0, self.churn_sigma) for weight in raw
        ]
        total = sum(churned)
        scale = (1.0 - self.solo_fraction) / total if total > 0 else 0.0
        weights: Dict[str, float] = {}
        generation = int(day // self.turnover_days)
        for name, base_weight, weight in zip(
            self.pool_names, raw, churned
        ):
            label = name
            if base_weight < self.tail_threshold:
                label = f"{name}-g{generation}"
            weights[label] = weight * scale
        return weights

    def make_sampler(
        self, day: float
    ) -> Callable[[random.Random], str]:
        """Per-block winner sampler for the :class:`BlockProducer`."""
        weights = self.weights_on_day(day)
        labels = list(weights)
        cumulative: List[float] = []
        running = 0.0
        for label in labels:
            running += weights[label]
            cumulative.append(running)
        pooled_mass = running
        solo_count = self.solo_identities
        solo_labels = self._solo_labels()
        last = len(labels) - 1
        _bisect_right = bisect_right

        def sampler(rng: random.Random) -> str:
            # One rng.random() per block, exactly as before; the clamp,
            # bisect lookup, and solo label are all hoisted/bound so the
            # per-call cost is two C calls and an index.
            point = rng.random()
            if point >= pooled_mass:
                return solo_labels[rng.randrange(solo_count)]
            index = _bisect_right(cumulative, point)
            return labels[index if index < last else last]

        # Expose the closure's parameters so the batch kernel
        # (:meth:`repro.sim.blockprod.BlockProducer.advance_batch`) can
        # inline the categorical draw without an indirect call per block.
        # The inlined arithmetic mirrors the body above expression for
        # expression; the golden-trajectory tests pin both paths to the
        # seed winner sequences.
        sampler.categorical_parts = (
            cumulative,
            labels,
            pooled_mass,
            solo_count,
            solo_labels,
            last,
        )
        return sampler


#: Pre-fork pool shares, calibrated to mid-2016 Ethereum: a handful of
#: pools (dwarfpool, f2pool, ethpool/ethermine, ...) controlled ~75-80% of
#: blocks with the largest near 25-30%.
_PREFORK_POOLS = [
    PoolSpec("dwarfpool", 0.26),
    PoolSpec("f2pool", 0.21),
    PoolSpec("ethermine", 0.14),
    PoolSpec("ethfans", 0.08),
    PoolSpec("miningpoolhub", 0.06),
    PoolSpec("nanopool", 0.035),
    PoolSpec("coinotron", 0.025),
    PoolSpec("talkether", 0.015),
    PoolSpec("alpereum", 0.010),
]

#: Fragmented post-fork ETC: fourteen comparable outfits, none dominant —
#: the day-one top-5 hold ~45% of blocks versus ETH's ~76%.
_ETC_START_POOLS = [
    PoolSpec("epool", 0.16),
    PoolSpec("etc-f2pool", 0.12),
    PoolSpec("91pool", 0.10),
    PoolSpec("etcpool-org", 0.09),
    PoolSpec("minergate", 0.08),
    PoolSpec("etc-nanopool", 0.05),
    PoolSpec("clona", 0.05),
    PoolSpec("etc-suprnova", 0.05),
    PoolSpec("epool-eu", 0.05),
    PoolSpec("etc-dwarf", 0.05),
    PoolSpec("private-1", 0.05),
    PoolSpec("private-2", 0.05),
    PoolSpec("private-3", 0.05),
    PoolSpec("private-4", 0.05),
]

#: The distribution ETC *converged to*: the same relative ratios as the
#: ETH (and pre-fork) pools, with the long tail squeezed out.
_ETC_TARGET_POOLS = [
    PoolSpec("epool", 0.26),
    PoolSpec("etc-f2pool", 0.21),
    PoolSpec("91pool", 0.14),
    PoolSpec("etcpool-org", 0.08),
    PoolSpec("minergate", 0.06),
    PoolSpec("etc-nanopool", 0.012),
    PoolSpec("clona", 0.011),
    PoolSpec("etc-suprnova", 0.010),
    PoolSpec("epool-eu", 0.009),
    PoolSpec("etc-dwarf", 0.009),
    PoolSpec("private-1", 0.009),
    PoolSpec("private-2", 0.008),
    PoolSpec("private-3", 0.008),
    PoolSpec("private-4", 0.008),
]


def prefork_pool_landscape(seed: int = 7) -> PoolLandscape:
    """The single pre-fork network's (static) pool distribution."""
    return PoolLandscape(
        start=_PREFORK_POOLS,
        target=_PREFORK_POOLS,
        solo_fraction=0.155,
        seed=seed,
    )


def eth_pool_landscape(seed: int = 7) -> PoolLandscape:
    """ETH after the fork: the pre-fork pools, unchanged (Observation:
    same addresses, same ratios as before the fork)."""
    return PoolLandscape(
        start=_PREFORK_POOLS,
        target=_PREFORK_POOLS,
        solo_fraction=0.155,
        seed=seed,  # same seed as pre-fork: identical pool identities
    )


def etc_pool_landscape(seed: int = 9) -> PoolLandscape:
    """ETC after the fork: fragmented, coalescing over ~6 months."""
    return PoolLandscape(
        start=_ETC_START_POOLS,
        target=_ETC_TARGET_POOLS,
        solo_fraction=0.18,
        coalesce_days=75.0,
        churn_sigma=0.10,
        seed=seed,
    )
