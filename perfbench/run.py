"""Product-path benchmark: ``run-all`` cold and warm, and a mixed ``serve`` loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload runall-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; its spans are written to
``perfbench/.out/spans-<workload>-seed<seed>.json``.  Metric names and
units come from ``BENCHMARK.json``.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, WorkloadReport, peak_rss_mib  # noqa: E402

#: Traced-pass rows that together account for the traced pass wall time.
SELF_TIME_ROWS = (
    "sim.self_s", "eventloop.self_s", "echoes.self_s", "analysis.self_s",
    "cache.self_s", "harness.artifacts_s", "harness.self_s", "serve.self_s",
    "trace.unattributed_s",
)


def end_to_end(report: WorkloadReport) -> Dict[str, float]:
    plain = report.plain()
    return {
        "setup_s": report.setup_s,
        "pass_s": statistics.median(p.wall_s for p in plain),
        "op_ms": 1e3 * statistics.median(op for p in plain for op in p.op_s),
        "peak_rss_mib": peak_rss_mib(),
    }


def per_layer(report: WorkloadReport, names: List[str]) -> Dict[str, float]:
    """Medians over the traced passes; layers a workload skips read 0."""
    traced = report.traced()
    values = {
        name: statistics.median(p.layers.get(name, 0.0) for p in traced)
        for name in names
    }
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in report.plain())
    )
    return values


def describe(workload: str, report: WorkloadReport,
             layers: Dict[str, float]) -> None:
    """The human-readable lines printed before the result line."""
    tally = report.tally
    plain = report.plain()
    print(f"workload {workload}: {len(plain)} untraced + "
          f"{len(report.traced())} traced pass(es), "
          f"setup {report.setup_s:.4f} s")
    print("  pass walls (s, t = traced): " + " ".join(
        f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in report.passes))
    if workload.startswith("runall"):
        runall = statistics.median(p.wall_s for p in plain)
        print(f"  runall_s         {runall:.4f} s")
    else:
        # Each serve pass sends partition, simulate, then four replays.
        for label, picks, scale, unit in (
            ("partition_job_s", lambda p: p.requests[:1], 1.0, "s"),
            ("simulate_job_s", lambda p: p.requests[1:2], 1.0, "s"),
            ("replay_ms", lambda p: p.requests[2:], 1e3, "ms"),
        ):
            latencies = [r["latency_s"] for p in plain for r in picks(p)
                         if r["latency_s"] is not None]
            if latencies:
                print(f"  {label:<16} "
                      f"{scale * statistics.median(latencies):.4f} {unit}")
    print(f"  error_rate       {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, digest in sorted(report.digests.items()):
        print(f"  digest {name}: {digest}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    if layers:
        wall = statistics.median(p.wall_s for p in report.traced())
        print(f"  traced pass {wall:.4f} s; self time by layer:")
        for name in SELF_TIME_ROWS + ("trace.overhead_s",):
            print(f"    {name:<22} {layers[name]:9.4f} s")


def pin_to_one_cpu() -> None:
    """Run every thread of the benchmark on one CPU.

    The product runs Python threads under one GIL, so one CPU loses it
    no parallelism; pinned, serve's client and server threads hand off
    on one CPU instead of waking each other across CPUs, whose latency
    on a shared virtual machine varies from minute to minute.  Child
    processes inherit the pin.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        report = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = per_layer(report, [metric["name"] for metric in wanted])
        out_dir = HERE / ".out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([
                {"traced_wall_s": p.wall_s, "spans": p.spans}
                for p in report.traced()
            ])
        )
    else:
        values = end_to_end(report)
    describe(args.workload, report, values if args.trace else {})

    tally = report.tally
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
