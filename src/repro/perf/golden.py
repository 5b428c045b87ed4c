"""Frozen golden digests of the seed trajectories.

Every fast path in this repository — the batched block kernel, the
inlined pool sampler, the event-loop hot loop, the plain-transport send
path, the delivery-wave kernels and the block-sync pre-checks — rests on
one invariant: it reproduces the seed-state trajectory byte for byte
(same RNG draws in the same order, same outputs).  Every check of that
invariant runs fixed inputs, so it amounts to "same bytes as the seed
trajectory"; the digests below are those bytes, recorded from the
seed-state implementations, so no copy of the seed code is needed to
check them.

:data:`BENCH`
    Per ``python -m repro bench`` case, the result digest in smoke and
    in full mode at the default seed (full mode equals the ``fast.digest``
    of the committed ``BENCH_<name>.json``).

:data:`TRAJECTORIES`
    The outputs of the fixed-input differential tests in
    ``tests/test_perf_kernels.py`` and ``tests/test_wave_kernels.py``,
    fingerprinted with :func:`value_digest` (fork-sim entries hold
    ``ForkSimResult.digest()`` directly).

A digest mismatch means a change moved the trajectory.  If the move is
intended (a model change, not a speedup), re-record the affected entries
and say why in ``CHANGES.md``; a speedup never changes them.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

__all__ = ["BENCH", "TRAJECTORIES", "value_digest"]


def value_digest(value: Any) -> str:
    """SHA-256 of ``repr(value)``: the fingerprint of one test output.

    The outputs are built from ints, floats, strings, bytes, tuples,
    lists and dicts, whose reprs are stable across the supported
    interpreters (floats print as their shortest round-tripping form).
    """
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


BENCH: Dict[str, Dict[str, str]] = {
    "smoke": {
        "forksim_difficulty":
            "7eaaa4be92116ff2532b14e159fc458063e928a223ef5d9430b9ee274b5dd66a",
        "forksim_workload":
            "a973306159e2cab829d1954d0b892223137d9e2738e2362fd9328f92248101b2",
        "forksim_analysis":
            "e58a49a4b1f5fb0db0598ec4ce3abdbaa62825f7a300f2ca01d3c13fef97e8d3",
        "eventloop_chain":
            "d480774d6bc1e8a0556dddea2ed064528ecbf2dffbe4b1cff83e61e82b7331d5",
        "partition":
            "2db5b4e7449aa46c008feb09a63a84abc286499acc830c0a03097ed684c46708",
        "chaos_partition":
            "13f79693c63b33d3400f5e4354600744658c26b27d4a597016e119d223753a57",
    },
    "full": {
        "forksim_difficulty":
            "5f70939ffa0f46839af83c5ab66d161e6d131f9bc613b62121b4b07baa84087f",
        "forksim_workload":
            "8bb43f45da269f80e2e7910f451e60d0f91c58a86a149c54f7e0b394a2f886f1",
        "forksim_analysis":
            "d24dd238e668c01db0bcd313271bdc1ef6c198c4457f686dd088bf1468603552",
        "eventloop_chain":
            "f07ac92e2699451d0c746f029e48f56eef8ba705bc4190f6012fe0dd1bbfe2e3",
        "partition":
            "32bda3a6b1b2193f84543cc9e3819b6a4e603c93ff3a7c2c7bad876a19637930",
        "chaos_partition":
            "60a6237893ffea7ac922c6e7a81a57f69cebed43687c7baea8e82bc7ccc11d81",
    },
}

TRAJECTORIES: Dict[str, str] = {
    "advance_batch/eth/tx=0":
        "b38f7964c1c75dcde7a32cec6c6a114d1bf519653073bd2370b7535a5ca5a2af",
    "advance_batch/eth/tx=1":
        "3e67ab15b3487577330e1cf3f1a2fcb2d7ee174040edc3a29c6e4848436dc65a",
    "advance_batch/eth/day=0":
        "1782a2a9f445b0a977939d34b81feef9d42332cb212ba3e231b7daf5440dbaab",
    "advance_batch/eth/day=30":
        "b077aa46a13e0b34587c60e3e9fb5bf7363ee8a48fc5cad9c0cad952235e4342",
    "advance_batch/eth/day=100":
        "fa5b06cc189bbf94934ba4148fee609e56a9d370fc4a5d8bd1ba56a5dac86f00",
    "advance_batch/etc/day=0":
        "bf49a41adb225dd0406de6e7ff9bf9a099cd2f5a13767b65cdfe9e70329dbd50",
    "advance_batch/etc/day=30":
        "b3b75ff2b798136a0ccfb047ff2dfd70110d8d670c949e74b74410bc32bd56ee",
    "advance_batch/etc/day=100":
        "0e8583213efe9d65e4e149ad6b00e0f30d7da9f68f8d9fc7da485c166e982d64",
    "advance_batch/prefork/day=0":
        "1782a2a9f445b0a977939d34b81feef9d42332cb212ba3e231b7daf5440dbaab",
    "advance_batch/prefork/day=30":
        "b077aa46a13e0b34587c60e3e9fb5bf7363ee8a48fc5cad9c0cad952235e4342",
    "advance_batch/prefork/day=100":
        "fa5b06cc189bbf94934ba4148fee609e56a9d370fc4a5d8bd1ba56a5dac86f00",
    "run_until/eth/3600s":
        "7b5f7578bf17d05b881af797307caaac297d1f9ab98a3f3ffa1e6503dff8038d",
    "advance_batch/callable":
        "01a957fd56841f3dae9b9ba7c29b421b8e106314439477357fe524b5381af464",
    "sampler/eth/day=0":
        "a620caf529a61b8bd83e421b5d1e1725d28d50919e03f1147ea8ee37486a329b",
    "sampler/eth/day=1":
        "da17debf25bdf2de5b7acf2034013068443eda177c69e893b46eafbce168573b",
    "sampler/eth/day=45":
        "b627b2c357fb9ca1f67cc20628b6081822a48d7e618130def88d0dd55e3c3125",
    "sampler/eth/day=120":
        "83d28c4deb15f4875c21fe492af98398c02ddb567d7009406f8183dbb0f3f205",
    "sampler/etc/day=0":
        "a81765f1550df814d5053960327bf2f58348c64b2ed2148b1eb3698025aa6a93",
    "sampler/etc/day=1":
        "aefd67d91cb7945ca1cc54f566840d58e16d375dd78d9e7399fe7f9c48d9f1a4",
    "sampler/etc/day=45":
        "dc66b9dc26337e1a01cce1b38753f99e6a052b4f81235780e2b96d97c081d971",
    "sampler/etc/day=120":
        "943386ea52f335015c5b29d59580ac8c8c1efefcfc4c68fb101d8f5fdc4c965e",
    "forksim/seed=1/tx=0":
        "e389329a1da8d7b63e42cf1aec50dfa5772f0596b9aabb38e836493433ec6dce",
    "forksim/seed=1/tx=1":
        "38b6af0bf89e62b74ee836365bbcb1d238c42e31ab42f596de1542ed5dc581b3",
    "forksim/seed=7/tx=0":
        "c0e99982ffb154f52436562d7235eb614ccdfa267c5c9180d1177f3a73425d79",
    "forksim/seed=7/tx=1":
        "cbbe48fe58c8cb85aca2b2bb76d00a8d8c19c5360618e3b9335e506cf2408ad7",
    "forksim/seed=20160720/tx=0":
        "5cac66daa6bce0c903cc5baa486873f004a3f5ce6554a79227e581eac100d191",
    "forksim/seed=20160720/tx=1":
        "4cc7e057899afd298f8fcba1f2f90657fe84f65b6349da57ac4ece8b560136cd",
    "forksim/days=3/seed=11/tx=0":
        "059a457b3c9ccac89d5f603f751475921bd0a785e0272dae145f277fdace94cb",
    "simulator/hot_loop":
        "771cab8ec52d67829ca3767271f91944442cecc8212eb67d732e91e74a3d8f18",
    "partition/14-nodes/seed=5":
        "fbd971c98344b2e1ea0553172231a7ec81fa9e316b6e0b66a454c57c99ea3da9",
    "wave/plain/LognormalLatency":
        "5a81d259a25286e1d632561bdbaa98ef1c45c00eaacd2884ca74263c19491212",
    "send/plain/LognormalLatency":
        "721d4692cd263334bdb55c2d41251229fa579fd7b3a7d084a55a5fb53319c81b",
    "wave/plain/GeographicLatency":
        "e3f55fc4083d39be0c8f603490a3b226fe24d661e7ebc878f83c69d34d9c8314",
    "send/plain/GeographicLatency":
        "ba4b0351c725aacc8b501d483ed6d8969f33586dad999db26b150b21b553d729",
    "wave/plain/ConstantLatency":
        "01e1da7b939b0c7166f1150fd33c37849c5aa18a58f660dc01075ca4dafde9a4",
    "send/plain/ConstantLatency":
        "9d4f20347dc60c63e2e6adaf5fca3b495c725eb67b2051faa8ae6eb0352aa620",
    "wave/general/LognormalLatency":
        "e0fa008852bffafaf2c831f7fd4a5c4fff93fcd23b08c90ed3d3b521d59676ba",
    "wave/general/GeographicLatency":
        "ce9f869b7e46eb571bd8b529b1ae272e152e9964a84ef161c8cf21d2b1438090",
    "blocksync/announced":
        "a9da044c3570b51c1f4dc5a90e2abe4502391a5efec2e138800ad131be7c9a6b",
    "blocksync/served_batch":
        "a69f7b06b9efd3b06a4ff3db4eeca968a788864e1c007d7b1415d5c13b6ecfc9",
    "dispatch/mining_run":
        "9b703ecb63a72e22fab466c4e60a8daf65f1f60754fd26d71017aefaaafa51a7",
}
