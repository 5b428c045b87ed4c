"""Performance kernels and their regression gate.

The fast paths live where the hot loops are — the batched block
kernel in :meth:`repro.sim.blockprod.BlockProducer.advance_batch`, the
inlined difficulty rules in :func:`repro.chain.difficulty.make_fast_rule`,
the tightened event loop in :meth:`repro.net.simulator.Simulator.run_until`,
and the plain-transport fast path plus delivery-wave kernels in
:class:`repro.net.network.Network`.  This package holds what keeps them
honest:

:mod:`repro.perf.golden`
    Frozen digests of the seed trajectories.  Every bench case and every
    fixed-input differential test must reproduce them byte for byte.

:mod:`repro.perf.bench`
    The benchmark harness behind ``python -m repro bench``: canonical
    ``BENCH_<name>.json`` regression reports with wall times, throughput
    and result digests, failing on a golden-digest mismatch or a rate
    regression against the committed baseline.

:mod:`repro.perf.soa`
    Struct-of-arrays accounting structs used by the hot paths (per-node
    telemetry counters in slot storage instead of per-node dicts).
"""

from .bench import (
    BENCH_SCHEMA,
    add_bench_arguments,
    bench_from_args,
    main,
    run_bench,
    validate_report,
)
from .soa import NodeStats

__all__ = [
    "BENCH_SCHEMA",
    "NodeStats",
    "add_bench_arguments",
    "bench_from_args",
    "main",
    "run_bench",
    "validate_report",
]
