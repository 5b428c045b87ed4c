"""The three product-path workloads and their output checks.

Every workload is a closed loop: each caller waits for its answer before
sending the next call.  Sizes are scaled so one benchmark run fits its
time budget on a 2-core host (see ``perfbench/layers.json``):

* ``runall-cold`` — one ``run_all(days=DAYS, jobs=1)`` per pass
  into a fresh, empty cache and output directory.  Every layer but serve
  does work.
* ``runall-warm`` — the same call against a cache that set-up filled (in
  a separate interpreter, so this process's memory peak is the warm
  path's own).  Every job is a cache hit.
* ``serve-mixed`` — a ``BackgroundServer`` (``workers=1``) with a fresh
  cache and result store per pass, driven by one HTTP client through a
  fixed sequence: a fresh ``partition`` job, a fresh ``simulate`` job,
  then ``REPLAYS_PER_KIND`` replays of each.

Inputs come from the workload seed only.  Both runall workloads derive
the same ``run_all`` seed from it, so their artifacts must be
byte-identical; like ``run-all --seed``, the seed drives the fork
simulation and the partition scenario keeps its default seed.  Every
untraced serve pass takes a new (partition, simulate) seed pair, because
partition cost is heavy-tailed over seeds and a run's median must not
hang on one draw; after the timed passes, pair 0 runs again on a fresh
server and must reproduce its digests.  A traced run gives each traced
pass the inputs of the untraced pass before it, so the two compare.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness.runall import run_all
from repro.scenarios.partition_event import PartitionScenarioConfig
from repro.serve import BackgroundServer, ServeConfig
from repro.sim.engine import ForkSimConfig

from layerspans import SpanRecorder, count_messages, instrumented, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fork-simulation horizon of every run_all pass and simulate request,
#: and post-fork horizon of every partition scenario (the product
#: defaults are 60 days and four hours).  Short passes let a run take
#: its median over many of them: a cold run_all pass takes 1.1-2.5 s and
#: a serve pass 0.6-1.6 s on the reference host, whose speed changes in
#: phases.  A partition's cost also spreads less over seeds at a short
#: horizon (with the metrics registry serve attaches, the middle half of
#: twelve seeds spans 13-25% of the median at 600 s and 51% at 1800 s).
DAYS = 2
PARTITION_HORIZON_S = 600.0
#: Replays of each executed request per serve pass.
REPLAYS_PER_KIND = 16
#: Cache fills per runall-warm set-up; set-up time is their median.
WARM_FILLS = 3

#: Rows (excluding the header) and columns of each figure CSV at DAYS:
#: figure 1 has one row per hour from half a day before the fork,
#: figures 2 and 5 one per day plus the fork day, figure 3 one per day.
#: Figure 4's rows follow the days with echoes, which vary by seed, so
#: only its columns are fixed.
FIGURE_SHAPES = {
    1: (24 * DAYS + 12, 7),
    2: (DAYS + 1, 7),
    3: (DAYS, 3),
    4: (None, 6),
    5: (DAYS + 1, 7),
}
OBSERVATION_CLAIMS = 6


# --------------------------------------------------------------------------
# bookkeeping shared by the workloads


@dataclass
class PassResult:
    wall_s: float
    traced: bool
    #: Latency of each repeated operation in the pass: the run_all call,
    #: or a replay request from POST to its terminal SSE frame.
    op_s: List[float]
    digest: str
    layers: Dict[str, float] = field(default_factory=dict)
    requests: List[Dict[str, Any]] = field(default_factory=list)
    spans: List[Dict[str, Any]] = field(default_factory=list)


class Tally:
    """Operations attempted and failed, plus what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


@dataclass
class WorkloadReport:
    setup_s: float
    passes: List[PassResult]
    tally: Tally
    digests: Dict[str, str]

    def plain(self) -> List[PassResult]:
        return [p for p in self.passes if not p.traced]

    def traced(self) -> List[PassResult]:
        return [p for p in self.passes if p.traced]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_all_seed(seed: int) -> int:
    return random.Random(f"run-all:{seed}").randrange(1, 2**31)


def serve_seeds(seed: int, pair: int) -> Tuple[int, int]:
    """The (partition, simulate) seeds of one serve input pair."""
    rng = random.Random(f"serve:{seed}:{pair}")
    return rng.randrange(1, 2**31), rng.randrange(1, 2**31)


def import_seconds(repeats: int = 5) -> float:
    """Median wall time for a fresh interpreter to import the product."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.harness.runall, repro.serve"],
            env=env, cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def drive(budget_s: float, trace: bool,
          run_pass: Callable[[int, bool], PassResult]) -> List[PassResult]:
    """Run passes until the next one would overrun the budget.

    A traced run alternates untraced and traced passes (untraced first),
    so tracing overhead is measured inside one run.  Garbage left by the
    previous pass is collected before each pass, outside its timing.
    """
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        passes.append(run_pass(len(passes), traced))
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) > budget_s:
            return passes


def check_repeats(passes: List[PassResult], tally: Tally, what: str,
                  inputs_of: Callable[[int], int] = lambda index: 0,
                  expected: Optional[str] = None) -> None:
    """Passes on the same inputs must give the same digest; ``expected``
    pins the digest of inputs 0."""
    first: Dict[int, str] = {0: expected} if expected else {}
    for index, result in enumerate(passes):
        want = first.setdefault(inputs_of(index), result.digest)
        tally.check(
            result.digest == want,
            f"pass {index} {what} digest {result.digest[:16]} != {want[:16]}",
        )


# --------------------------------------------------------------------------
# run-all


def run_all_once(sim_seed: int, cache_dir: Path, output_dir: Path):
    """One product run-all call with the workload's inputs."""
    return run_all(
        days=DAYS,
        seed=sim_seed,
        jobs=1,
        cache_dir=cache_dir,
        output_dir=output_dir,
        partition_config=PartitionScenarioConfig(
            post_fork_horizon=PARTITION_HORIZON_S
        ),
    )


def artifact_digest(output_dir: Path) -> str:
    """SHA-256 over every figure and scoreboard file, name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(output_dir.iterdir()):
        if path.name.startswith(("figure", "observations")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_artifacts(output_dir: Path, tally: Tally) -> None:
    """Figure row/column counts and the scoreboard's claim count."""
    for number, (rows, columns) in FIGURE_SHAPES.items():
        lines = (output_dir / f"figure{number}.csv").read_text().splitlines()
        header = lines[0].split(",") if lines else []
        tally.check(
            len(header) == columns and rows in (None, len(lines) - 1),
            f"figure{number}.csv has {len(lines) - 1} rows x "
            f"{len(header)} columns, expected {rows} x {columns}",
        )
    scoreboard = (output_dir / "observations.txt").read_text().splitlines()
    claims = sum(1 for line in scoreboard if line.startswith("Observation "))
    tally.check(
        claims == OBSERVATION_CLAIMS,
        f"observations.txt has {claims} claims, expected {OBSERVATION_CLAIMS}",
    )


def run_all_pass(sim_seed: int, cache_dir: Path, output_dir: Path,
                 traced: bool, tally: Tally) -> PassResult:
    recorder = SpanRecorder()
    with instrumented(recorder) if traced else nullcontext():
        start = time.perf_counter()
        with recorder.span("harness", "run_all") if traced else nullcontext():
            manifest = run_all_once(sim_seed, cache_dir, output_dir)
        wall = time.perf_counter() - start
    if traced:
        count_messages(recorder)
    for job in manifest.jobs:
        tally.check(job.status == "ok", f"job {job.label}: {job.status} {job.error}")
    check_artifacts(output_dir, tally)
    return PassResult(
        wall_s=wall, traced=traced, op_s=[wall],
        digest=artifact_digest(output_dir),
        layers=layer_metrics(recorder) if traced else {},
        spans=recorder.dump(),
    )


def runall_cold(seed: int, budget_s: float, trace: bool,
                work: Path) -> WorkloadReport:
    sim_seed = run_all_seed(seed)
    tally = Tally()
    setup = import_seconds()

    def one(index: int, traced: bool) -> PassResult:
        root = work / f"pass-{index}"
        try:
            return run_all_pass(sim_seed, root / "cache", root / "out",
                                traced, tally)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    passes = drive(budget_s, trace, one)
    check_repeats(passes, tally, "artifact")
    return WorkloadReport(setup, passes, tally,
                          {"artifacts": passes[0].digest})


def runall_warm(seed: int, budget_s: float, trace: bool,
                work: Path) -> WorkloadReport:
    sim_seed = run_all_seed(seed)
    tally = Tally()
    # Fill a cache in a fresh interpreter: set-up time is what a user
    # waits for a warm cache, and this process's memory peak stays the
    # warm path's own.  Each fill starts empty; set-up time is their
    # median, and the passes read the last fill's cache.
    fills: List[float] = []
    digests: List[str] = []
    for fill in range(WARM_FILLS):
        cache_dir = work / f"cache-{fill}"
        cold_dir = work / f"cold-out-{fill}"
        if fill:
            shutil.rmtree(work / f"cache-{fill - 1}")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "fill.py"), str(seed),
             str(cache_dir), str(cold_dir)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
        )
        fills.append(time.perf_counter() - start)
        digests.append(artifact_digest(cold_dir))
    setup = statistics.median(fills)
    cold_digest = digests[0]
    for fill, digest in enumerate(digests[1:], start=1):
        tally.check(digest == cold_digest,
                    f"fill {fill} digest {digest[:16]} != {cold_digest[:16]}")

    def one(index: int, traced: bool) -> PassResult:
        out = work / f"pass-{index}"
        try:
            return run_all_pass(sim_seed, cache_dir, out, traced, tally)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    passes = drive(budget_s, trace, one)
    check_repeats(passes, tally, "warm vs cold", expected=cold_digest)
    return WorkloadReport(setup, passes, tally, {"artifacts": cold_digest})


# --------------------------------------------------------------------------
# serve


def _request(port: int, payload: Dict[str, Any]) -> Dict[str, Any]:
    """POST one job and follow its SSE stream to the terminal frame."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("POST", "/jobs", json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read() or b"null")
    finally:
        conn.close()
    result: Dict[str, Any] = {
        "kind": payload["kind"], "status": response.status,
        "accept_s": time.perf_counter() - start, "source": None,
        "started_s": None, "latency_s": None, "terminal": None,
        "digest": None,
    }
    if not 200 <= response.status < 300:
        return result
    result["source"] = body.get("source")
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/jobs/{body['job']}/events")
        event = None
        for raw in conn.getresponse():
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                if event == "started" and result["started_s"] is None:
                    result["started_s"] = time.perf_counter() - start
                if event in ("done", "failed"):
                    result["latency_s"] = time.perf_counter() - start
                    result["terminal"] = event
                    result["digest"] = json.loads(line[len("data: "):]).get("digest")
                    break
    finally:
        conn.close()
    return result


def serve_requests(partition_seed: int, sim_seed: int) -> List[Dict[str, Any]]:
    """The closed-loop request sequence of one serve pass.

    The first two requests execute; the rest replay them, so most
    requests exercise the registry's memory tier.
    """
    partition = {
        "kind": "partition",
        "params": {"config": asdict(PartitionScenarioConfig(
            seed=partition_seed, post_fork_horizon=PARTITION_HORIZON_S,
        ))},
    }
    simulate = {
        "kind": "simulate",
        "params": {"config": ForkSimConfig(
            days=DAYS, seed=sim_seed
        ).to_dict()},
    }
    return [partition, simulate] * (1 + REPLAYS_PER_KIND)


def serve_layers(requests: List[Dict[str, Any]],
                 recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer figures for one traced serve pass: the server-side spans
    plus the client's HTTP/SSE timestamps."""
    executed = [r for r in requests if r["source"] == "executed"]
    replays = requests[2:]

    def median_of(values, scale=1.0) -> float:
        values = [v for v in values if v is not None]
        return statistics.median(values) * scale if values else 0.0

    metrics = layer_metrics(recorder)
    job_s = sum(span.duration for span in recorder.spans
                if span.layer == "job" and span.parent is None)
    metrics.update({
        "serve.accept_ms": median_of([r["accept_s"] for r in requests], 1e3),
        "serve.queue_ms": median_of([r["started_s"] for r in executed], 1e3),
        "serve.exec_s": median_of([
            r["latency_s"] - r["started_s"] for r in executed
            if r["latency_s"] is not None and r["started_s"] is not None
        ]),
        "serve.replay_hit_ratio": (
            sum(1 for r in replays if r["source"] in ("memory", "store"))
            / len(replays)
        ),
        "serve.self_s": sum(r["latency_s"] or 0.0 for r in requests) - job_s,
        "serve.partition_job_s": median_of(
            [r["latency_s"] for r in executed if r["kind"] == "partition"]),
        "serve.simulate_job_s": median_of(
            [r["latency_s"] for r in executed if r["kind"] == "simulate"]),
        "serve.replay_ms": median_of([r["latency_s"] for r in replays], 1e3),
    })
    for tier in ("memory", "store", "inflight", "executed"):
        metrics[f"serve.tier_{tier}"] = sum(
            1 for r in requests if r["source"] == tier
        )
    return metrics


def serve_mixed(seed: int, budget_s: float, trace: bool,
                work: Path) -> WorkloadReport:
    tally = Tally()
    starts: List[float] = []

    def one(index: int, traced: bool, pair: int) -> PassResult:
        root = work / f"pass-{index}"
        root.mkdir()
        config = ServeConfig(
            port=0, cache_dir=str(root / "cache"),
            db_path=str(root / "serve.db"), workers=1,
        )
        recorder = SpanRecorder()
        begin = time.perf_counter()
        server = BackgroundServer(config).start()
        starts.append(time.perf_counter() - begin)
        try:
            with instrumented(recorder) if traced else nullcontext():
                start = time.perf_counter()
                requests = []
                for payload in serve_requests(*serve_seeds(seed, pair)):
                    with (recorder.span("serve", f"request {payload['kind']}")
                          if traced else nullcontext()):
                        requests.append(_request(server.port, payload))
                wall = time.perf_counter() - start
        finally:
            server.stop()
            shutil.rmtree(root, ignore_errors=True)
        for r in requests:
            tally.check(
                200 <= r["status"] < 300 and r["terminal"] == "done",
                f"{r['kind']} request: HTTP {r['status']}, {r['terminal']}",
            )
        originals = {r["kind"]: r["digest"] for r in requests[:2]}
        for r in requests[2:]:
            tally.check(
                r["digest"] == originals[r["kind"]],
                f"{r['kind']} replay digest {r['digest']} != "
                f"{originals[r['kind']]}",
            )
        return PassResult(
            wall_s=wall, traced=traced,
            op_s=[r["latency_s"] for r in requests[2:]
                  if r["latency_s"] is not None],
            digest=hashlib.sha256(
                json.dumps([r["digest"] for r in requests]).encode()
            ).hexdigest(),
            layers=serve_layers(requests, recorder) if traced else {},
            requests=requests,
            spans=recorder.dump(),
        )

    setup = import_seconds()
    pair_of = (lambda index: index // 2) if trace else (lambda index: index)
    passes = drive(budget_s, trace,
                   lambda index, traced: one(index, traced, pair_of(index)))
    check_repeats(passes, tally, "request", inputs_of=pair_of)
    repeat = one(len(passes), False, 0)
    tally.check(
        repeat.digest == passes[0].digest,
        f"pair 0 on a fresh server: digest {repeat.digest[:16]} != "
        f"{passes[0].digest[:16]}",
    )
    first = passes[0].requests
    return WorkloadReport(
        setup + statistics.median(starts), passes, tally,
        {"pair 0 partition": first[0]["digest"],
         "pair 0 simulate": first[1]["digest"]},
    )


WORKLOADS: Dict[str, Callable[..., WorkloadReport]] = {
    "runall-cold": runall_cold,
    "runall-warm": runall_warm,
    "serve-mixed": serve_mixed,
}
