"""Per-layer spans recorded around the product's public entry points.

A traced pass swaps a timing wrapper in at each name the harness looks
up at call time (``repro.harness.jobs.run_fork_sim``, ``figure_1..5``,
``evaluate_all``; ``PartitionScenario.run``, ``ReplayWorkload.generate``,
``EchoDetector.observe_records``, ``ResultCache.lookup``/``store``,
``RunManifest.write``; the pool's ``execute_job`` and run-all's artifact
writer) and puts every original back on exit.  Nothing under ``src/``
changes; with tracing off the product runs untouched.

Each span records name, layer, start, end, parent and thread.  Spans
stay in memory (:attr:`SpanRecorder.spans`) and the runner writes them
out when the benchmark ends.

Layers are named after the repo's modules: ``sim``, ``eventloop``,
``echoes``, ``analysis``, ``cache``, ``harness``, ``serve``.  ``job``
spans wrap one top-level job dispatch; their self time is work inside a
job but outside every layer call (runner glue), reported as the
unattributed remainder.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

import repro.harness.jobs as jobs_module
import repro.harness.pool as pool_module
import repro.harness.runall as runall_module
from repro.core.echoes import EchoDetector
from repro.harness.cache import ResultCache
from repro.harness.manifest import RunManifest
from repro.obs import MetricsRegistry, Observability
from repro.scenarios.partition_event import PartitionScenario
from repro.scenarios.replay_attack import ReplayWorkload


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    layer: str
    name: str
    thread: str
    start: float
    end: float = 0.0
    #: Summed duration of direct children (same thread), for self time.
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class SpanRecorder:
    """Thread-safe span and counter sink for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Partition configs that ran without an obs registry; their
        #: message counts are taken afterwards (see ``count_messages``).
        self.unmetered: List[Any] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, layer: str, name: str) -> Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            record = Span(
                sid=len(self.spans),
                parent=parent.sid if parent is not None else None,
                layer=layer,
                name=name,
                thread=threading.current_thread().name,
                start=time.perf_counter(),
            )
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += record.duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self) -> List[Dict[str, Any]]:
        return [
            {key: value for key, value in asdict(span).items()
             if key != "child_s"}
            for span in self.spans
        ]


def _wrap(recorder: SpanRecorder, layer: str, name: str,
          after: Optional[Callable[[tuple, Any], None]] = None):
    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with recorder.span(layer, name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch the traced entry points for the duration of the block."""
    patches = []

    def patch(owner, attr, make) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def sim_done(args, result) -> None:
        recorder.count("sim.blocks", len(result.eth_trace) + len(result.etc_trace))

    def generated(args, result) -> None:
        recorder.count("echoes.txs", len(result[0]))

    def looked_up(args, result) -> None:
        cache, key = args[0], args[1]
        recorder.count("cache.lookups")
        if result[0]:
            recorder.count("cache.hits")
            recorder.count("cache.bytes_read", cache.path_for(key).stat().st_size)

    def make_store(original):
        @functools.wraps(original)
        def store(self, key, value):
            before = self.stats.bytes_written
            with recorder.span("cache", "ResultCache.store"):
                original(self, key, value)
            recorder.count("cache.bytes_written", self.stats.bytes_written - before)
        return store

    def make_scenario_run(original):
        @functools.wraps(original)
        def run(self):
            # The simulator_factory seam hands back the engine, whose
            # events_processed is the event-loop work count.
            simulators = []
            factory = self.simulator_factory

            def capture(*args, **kwargs):
                simulator = factory(*args, **kwargs)
                simulators.append(simulator)
                return simulator

            self.simulator_factory = capture
            try:
                with recorder.span("eventloop", "PartitionScenario.run"):
                    result = original(self)
            finally:
                self.simulator_factory = factory
            recorder.count(
                "eventloop.events", sum(s.events_processed for s in simulators)
            )
            metrics = self.obs.metrics if self.obs is not None else None
            if metrics is not None:
                recorder.count(
                    "eventloop.messages",
                    metrics.counter("net.messages.sent").value,
                )
            else:
                recorder.unmetered.append(self.config)
            return result
        return run

    def make_execute(original):
        @functools.wraps(original)
        def execute_job(spec, *args, **kwargs):
            with recorder.span("job", spec.kind):
                return original(spec, *args, **kwargs)
        return execute_job

    patch(jobs_module, "run_fork_sim",
          _wrap(recorder, "sim", "run_fork_sim", sim_done))
    for number in range(1, 6):
        patch(jobs_module, f"figure_{number}",
              _wrap(recorder, "analysis", f"figure{number}"))
    patch(jobs_module, "evaluate_all",
          _wrap(recorder, "analysis", "observations"))
    patch(PartitionScenario, "run", make_scenario_run)
    patch(ReplayWorkload, "generate",
          _wrap(recorder, "echoes", "generate", generated))
    patch(EchoDetector, "observe_records",
          _wrap(recorder, "echoes", "detect"))
    patch(ResultCache, "lookup",
          _wrap(recorder, "cache", "ResultCache.lookup", looked_up))
    patch(ResultCache, "store", make_store)
    patch(runall_module, "_write_value_artifacts",
          _wrap(recorder, "harness", "artifacts"))
    patch(RunManifest, "write", _wrap(recorder, "harness", "artifacts"))
    patch(pool_module, "execute_job", make_execute)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def count_messages(recorder: SpanRecorder) -> None:
    """Message counts for partitions that ran without an obs registry.

    ``run_all`` executes jobs without a metrics registry, and attaching
    one to the timed run would slow the event loop it measures.  The
    trajectory is identical with or without obs, so each such config is
    re-run once, outside every timed span, with a metrics-only registry.
    """
    for config in recorder.unmetered:
        registry = MetricsRegistry()
        PartitionScenario(config, obs=Observability(metrics=registry)).run()
        recorder.count(
            "eventloop.messages", registry.counter("net.messages.sent").value
        )
    recorder.unmetered.clear()


def _sum(spans, **match) -> float:
    return sum(
        span.duration for span in spans
        if all(getattr(span, key) == value for key, value in match.items())
    )


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer figures for one traced pass (see perfbench/layers.json)."""
    spans = recorder.spans
    counts = recorder.counts
    by_id = {span.sid: span for span in spans}

    def busy(layer: str) -> float:
        # Outermost spans of the layer only, so nesting never doubles.
        return sum(
            span.duration for span in spans
            if span.layer == layer and (
                span.parent is None or by_id[span.parent].layer != layer
            )
        )

    def self_time(layer: str) -> float:
        return sum(span.self_s for span in spans if span.layer == layer)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    roots = [span for span in spans
             if span.layer == "harness" and span.name == "run_all"]
    metrics: Dict[str, float] = {
        "sim.busy_s": busy("sim"),
        "sim.blocks": counts["sim.blocks"],
        "sim.blocks_per_s": rate(counts["sim.blocks"], busy("sim")),
        "eventloop.busy_s": busy("eventloop"),
        "eventloop.events": counts["eventloop.events"],
        "eventloop.messages": counts["eventloop.messages"],
        "eventloop.events_per_s": rate(
            counts["eventloop.events"], busy("eventloop")
        ),
        "echoes.generate_s": _sum(spans, layer="echoes", name="generate"),
        "echoes.detect_s": _sum(spans, layer="echoes", name="detect"),
        "echoes.txs": counts["echoes.txs"],
        "analysis.busy_s": busy("analysis"),
        "analysis.observations_s": _sum(
            spans, layer="analysis", name="observations"
        ),
        "cache.load_s": _sum(spans, layer="cache", name="ResultCache.lookup"),
        "cache.store_s": _sum(spans, layer="cache", name="ResultCache.store"),
        "cache.bytes_read": counts["cache.bytes_read"],
        "cache.bytes_written": counts["cache.bytes_written"],
        "cache.hit_ratio": (
            counts["cache.hits"] / counts["cache.lookups"]
            if counts["cache.lookups"] else 0.0
        ),
        "harness.artifacts_s": _sum(spans, layer="harness", name="artifacts"),
        "harness.self_s": sum(span.self_s for span in roots),
        "trace.unattributed_s": self_time("job"),
    }
    for number in range(1, 6):
        metrics[f"analysis.figure{number}_s"] = _sum(
            spans, layer="analysis", name=f"figure{number}"
        )
    for layer in ("sim", "eventloop", "echoes", "analysis", "cache"):
        metrics[f"{layer}.self_s"] = self_time(layer)
    return metrics
