"""Route table and handlers for the scenario service.

| Method | Path                  | Purpose                                  |
|--------|-----------------------|------------------------------------------|
| POST   | /jobs                 | submit a scenario (content-addressed)    |
| GET    | /jobs/{id}            | job status snapshot                      |
| GET    | /jobs/{id}/events     | SSE: history replay + live progress      |
| GET    | /results/{digest}     | canonical-JSON summary from the store    |
| GET    | /metrics              | server metrics + derived ratios          |
| GET    | /healthz              | liveness + drain state                   |

``POST /jobs`` takes ``{"kind": ..., "params": {...}, "label": ...?}``;
the (kind, params) pair is exactly a harness job, so digests agree with
``run-all`` byte-for-byte.  The response carries ``source`` — which tier
answered (``executed`` / ``inflight`` / ``memory`` / ``store``) — and
``deduped`` for the single-flight case; terminal answers are 200,
accepted-and-working answers are 202.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..harness.jobs import JobSpec, registered_kinds
from ..obs import MetricsRegistry
from .http import HttpError, Request, Response, sse_event
from .quotas import QuotaExceeded, tenant_for
from .registry import TERMINAL_EVENTS, JobRegistry, ServeJob

__all__ = ["ScenarioApp", "DEFAULT_ALLOWED_KINDS"]

#: Job kinds the service accepts by default — the public experiment
#: vocabulary.  The ``selftest-*`` kinds exist for the harness's own
#: tests and stay opt-in via ``ServeConfig.allowed_kinds``.
DEFAULT_ALLOWED_KINDS: Tuple[str, ...] = (
    "simulate",
    "partition",
    "chaos-partition",
    "topology-partition",
    "topology-infer",
    "echoes",
    "figure",
    "observations",
    "fork-lengths",
    "obs-probe",
)


class ScenarioApp:
    """Dispatches parsed requests against the registry and store."""

    def __init__(
        self,
        registry: JobRegistry,
        store=None,
        metrics: Optional[MetricsRegistry] = None,
        allowed_kinds: Optional[Sequence[str]] = None,
    ) -> None:
        self.registry = registry
        self.store = store
        self.metrics = metrics
        self.allowed_kinds = tuple(allowed_kinds or DEFAULT_ALLOWED_KINDS)
        self.draining = False

    # -- dispatch ----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        if self.metrics is not None:
            self.metrics.counter("serve.http.requests").inc()
        segments = [part for part in request.path.split("/") if part]
        try:
            return await self._route(request, segments)
        except QuotaExceeded as exc:
            return Response.error(429, str(exc))
        except HttpError as exc:
            if self.metrics is not None:
                self.metrics.counter("serve.http.errors").inc()
            return Response.error(exc.status, exc.message)

    async def _route(self, request: Request, segments) -> Response:
        if segments == ["jobs"]:
            if request.method != "POST":
                raise HttpError(405, "use POST /jobs")
            return self._post_job(request)
        if len(segments) == 2 and segments[0] == "jobs":
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._get_job(segments[1])
        if (len(segments) == 3 and segments[0] == "jobs"
                and segments[2] == "events"):
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._get_events(segments[1])
        if len(segments) == 2 and segments[0] == "results":
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._get_result(segments[1])
        if segments == ["metrics"]:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._get_metrics()
        if segments == ["healthz"]:
            if request.method != "GET":
                raise HttpError(405, "use GET")
            return self._get_healthz()
        raise HttpError(404, f"no route for {request.method} {request.path}")

    # -- handlers ----------------------------------------------------------

    def _post_job(self, request: Request) -> Response:
        if self.draining:
            raise HttpError(503, "server is draining; not accepting jobs")
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        kind = payload.get("kind")
        params = payload.get("params", {})
        label = payload.get("label")
        if not isinstance(kind, str) or not kind:
            raise HttpError(400, "missing job 'kind'")
        if kind not in self.allowed_kinds:
            raise HttpError(
                400,
                f"kind {kind!r} is not served here "
                f"(allowed: {', '.join(self.allowed_kinds)})",
            )
        if kind not in registered_kinds():
            raise HttpError(400, f"no runner registered for kind {kind!r}")
        if not isinstance(params, dict):
            raise HttpError(400, "'params' must be a JSON object")
        if label is not None and not isinstance(label, str):
            raise HttpError(400, "'label' must be a string")
        try:
            spec = JobSpec.make(kind, params, label=label)
        except (TypeError, ValueError) as exc:
            raise HttpError(400, f"unusable params: {exc}") from exc

        tenant = tenant_for(request.headers)
        job, source = self.registry.submit(spec, tenant)
        return Response.json(
            self._job_payload(job, source=source),
            status=200 if job.terminal else 202,
        )

    def _job_payload(self, job: ServeJob, source: Optional[str] = None) -> Dict[str, Any]:
        payload = job.snapshot()
        if source is not None:
            payload["source"] = source
            payload["deduped"] = source == "inflight"
        links = {
            "self": f"/jobs/{job.key}",
            "events": f"/jobs/{job.key}/events",
        }
        if job.digest:
            links["result"] = f"/results/{job.digest}"
        payload["links"] = links
        return payload

    def _get_job(self, key: str) -> Response:
        job = self.registry.lookup(key)
        if job is None:
            raise HttpError(404, f"unknown job {key!r}")
        return Response.json(self._job_payload(job))

    def _get_events(self, key: str) -> Response:
        job = self.registry.lookup(key)
        if job is None:
            raise HttpError(404, f"unknown job {key!r}")
        return Response.sse(self._event_stream(job))

    async def _event_stream(self, job: ServeJob):
        history, queue = job.subscribe()
        try:
            terminal_seen = False
            for event, data in history:
                yield sse_event(event, data)
                terminal_seen = terminal_seen or event in TERMINAL_EVENTS
            if terminal_seen:
                return
            while True:
                event, data = await queue.get()
                yield sse_event(event, data)
                if event in TERMINAL_EVENTS:
                    return
        finally:
            job.unsubscribe(queue)

    def _get_result(self, digest: str) -> Response:
        if self.store is not None:
            found = self.store.get_result(digest)
            if found is not None:
                return Response.json(found)
        # Fall back to in-memory terminal jobs (store-less servers).
        for job in self.registry.jobs.values():
            if job.digest == digest and job.state == "ok":
                return Response.json(
                    {"digest": digest, "kind": job.kind, "job": job.key}
                )
        raise HttpError(404, f"no result with digest {digest!r}")

    def _get_metrics(self) -> Response:
        metrics = self.metrics or MetricsRegistry()
        dump = metrics.dump()
        counters = dump["counters"]
        hits = counters.get("serve.cache.hits", 0)
        misses = counters.get("serve.cache.misses", 0)
        deduped = counters.get("serve.jobs.deduped", 0)
        submitted = counters.get("serve.jobs.submitted", 0)
        payload: Dict[str, Any] = {
            "metrics": dump,
            "derived": {
                "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "dedupe_ratio": deduped / (submitted + deduped)
                if submitted + deduped else 0.0,
                "deduped": deduped,
            },
        }
        if self.store is not None:
            payload["store"] = self.store.counts()
        return Response.json(payload)

    def _get_healthz(self) -> Response:
        return Response.json(
            {
                "ok": True,
                "draining": self.draining,
                "inflight": len(self.registry.inflight),
                "jobs_known": len(self.registry.jobs),
            }
        )
