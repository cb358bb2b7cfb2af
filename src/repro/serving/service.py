"""A stdlib HTTP scoring service over an artifact registry.

``ScoringService`` serves fitted detectors through a
``ThreadingHTTPServer`` JSON API.  ZeroED fits one detector per
dataset, and every service is an
:class:`~repro.serving.registry.ArtifactRegistry` of them: the scorer
a service is built with (live, or loaded by
:meth:`ScoringService.from_artifacts`) is pinned and inserted as the
*default tenant*, so a service over one artifact is a registry of one.

* ``POST /score`` — body ``{"rows": [{attr: value, ...}, ...]}``;
  responds with the per-row boolean error flags in schema order.  A
  ``fingerprint`` (schema fingerprint) or ``dataset`` payload field
  routes the rows to that tenant; without either the default answers.
* ``GET /healthz`` — liveness plus serving counters, registry
  residency, the fit-time degradation state and (when wired to a live
  pipeline) the circuit breaker's snapshot.
* ``GET /artifact`` — the default tenant's manifest summary (version,
  schema, engines, training provenance).

Hardening (PR 6): every error response is a structured JSON body
``{"error": <human message>, "code": <stable machine code>}`` — codes
are ``invalid_json``, ``bad_request``, ``payload_too_large``,
``not_found`` and ``internal`` — request bodies are capped at
``max_body_bytes`` (HTTP 413 beyond it, read in bounded chunks so an
oversized upload never materialises in memory), and socket reads carry
a ``read_timeout_s`` deadline so a stalled client cannot pin a handler
thread forever.

Resilience (PR 8):

* **load shedding** — admission to the micro-batch queue is bounded by
  ``max_queue_rows``; a request that would overflow it is *shed* with
  HTTP 503, code ``overloaded`` and a ``Retry-After`` header, instead
  of growing an unbounded backlog whose every waiter times out.  Shed
  requests never corrupt admitted ones (the queue is untouched).
* **deadlines** — each request carries a deadline (``deadline_s``
  constructor knob, per-request ``deadline_s`` field in the payload,
  whichever is sooner); a request still unscored when it expires gets
  HTTP 504, code ``deadline_exceeded``, and the worker discards
  expired entries instead of scoring rows nobody is waiting for.
* **graceful drain** — :meth:`ScoringService.drain` stops admitting
  (new /score requests get 503 ``draining``), waits for the queue and
  in-flight batch to finish, then stops; the CLI wires it to SIGTERM.
* **readiness vs liveness** — ``GET /readyz`` answers 200 only while
  the service admits work (503 while draining); ``GET /healthz`` stays
  liveness + counters (including shed / expired / reload counts).
* **hot reload** — ``POST /reload`` loads an artifact (payload
  ``artifact`` path, default: the default tenant's) and upserts it by
  schema fingerprint: the same fingerprint replaces that tenant, a new
  one adds a tenant.  Re-reading a path a tenant is known by must
  still yield that tenant's schema, else HTTP 400 ``schema mismatch``
  and the old scorer keeps serving, so no tenant's wire contract ever
  changes.  Swaps are atomic between batches: in-flight requests
  finish on the scorer they were admitted under.

Scale-out (PR 9):

* **multi-worker scoring** — ``workers=N`` (CLI ``serve --workers``)
  fans micro-batches to N :class:`~repro.serving.workers.WorkerPool`
  processes, each holding the frozen scorer; the front process keeps
  only admission/shed/deadline bookkeeping.  Masks are byte-identical
  to single-process scoring for every worker count (pinned in
  ``tests/test_serving_service.py``).  The batcher runs one scoring
  *lane* thread per worker so the pool actually scores N batches
  concurrently.
* **many tenants** — :meth:`ScoringService.from_artifacts` hosts
  several fitted datasets behind one port (the first is the default);
  ``budget_bytes`` bounds their resident decoded arrays (LRU; the
  pinned default is never evicted, an evicted tenant reloads on its
  next request); batches coalesce only same-tenant requests;
  ``GET /healthz`` reports residency and eviction counters.
* **artifact download** — ``GET /artifact/arrays`` streams the loaded
  artifact's ``arrays.npz`` in 64 KiB chunks (the ~46 MB file never
  materialises in handler memory); ``GET /artifact`` stays the small
  manifest summary.

Requests are **micro-batched**: handler threads enqueue their rows and
block; a scoring lane drains whatever has queued, scores it as *one*
table (one featurization pass, one detector sweep — the per-row cost
amortises exactly like the pipeline's columnar fast paths), and fans
the per-row flags back to the waiting handlers.  A batch waits for
company only on evidence that company is coming — its first request
queued while every lane was scoring, or the previous batch coalesced
more than one request — and then at most ``linger_s``, closing as soon
as it holds as many requests as the previous batch did.  A lone
request on an idle lane is scored at once; concurrent clients keep
coalescing.  Scoring is row-independent (every feature consults
frozen training statistics, never the co-batched rows), so batching
never changes a response — a single request's flags are bitwise the
flags of any batch containing it (asserted in
``tests/test_serving_service.py``).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ArtifactError, ConfigError, ReproError
from repro.obs import log as obs_log
from repro.obs import trace
from repro.obs.metrics import (
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    process_memory_bytes,
)
from repro.serving.artifact import ARRAYS_NAME, schema_fingerprint
from repro.serving.registry import ArtifactRegistry
from repro.serving.scorer import BatchScorer
from repro.serving.workers import WorkerPool, WorkerPoolBroken

_log = obs_log.get_logger("repro.serving.service")

#: The longest a batch waits for company (a batch waits only on
#: evidence that concurrent requests are coming), and the row cap per
#: batch.
DEFAULT_LINGER_S = 0.002
MAX_BATCH_ROWS = 4096
#: How long a handler thread waits for its batch to be scored.
REQUEST_TIMEOUT_S = 120.0
#: Request-body cap (bytes) and per-connection socket read deadline —
#: the service-level defaults; both are constructor knobs.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
DEFAULT_READ_TIMEOUT_S = 30.0
#: Admission cap: rows allowed to wait in the micro-batch queue before
#: new requests are shed with 503, and the Retry-After hint they get.
DEFAULT_MAX_QUEUE_ROWS = 16_384
RETRY_AFTER_S = 1


class ServiceOverloaded(ReproError):
    """The admission queue is full; the request was shed, not queued."""


class DeadlineExceeded(ReproError):
    """The request's deadline expired before its batch was scored."""


@dataclass
class _Pending:
    """One enqueued /score request awaiting its slice of a batch."""

    rows: list[dict]
    deadline: float | None = None
    #: Routing key: the tenant's schema fingerprint.  A batch only
    #: coalesces same-key entries — different tenants must never share
    #: a featurization pass.
    key: str | None = None
    event: threading.Event = field(default_factory=threading.Event)
    flags: list[list[bool]] | None = None
    batched_with: int = 0
    error: Exception | None = None


#: ``_MicroBatcher._pop_live``'s "any routing key" (None is a key
#: like any other).
_ANY_KEY = object()


class _MicroBatcher:
    """Queue + lanes that score concurrent requests as one table.

    The queue is *bounded* (``max_queue_rows``): a submit that would
    overflow it raises :class:`ServiceOverloaded` without touching the
    queue — shedding is load-invisible to admitted requests.  Each
    entry may carry a monotonic deadline; the worker discards expired
    entries instead of scoring them, and the submitting handler raises
    :class:`DeadlineExceeded`.

    Scoring is delegated to ``score_fn(key, rows) -> bool matrix`` so
    the service resolves the tenant and its backend — in-process scorer
    or worker pool — per batch, and ``n_lanes`` scoring threads
    run the collect/score loop concurrently (one lane per worker
    process keeps a pool saturated; single-process serving keeps the
    original one-lane behaviour).  Entries coalesce into a batch only
    when they share a routing ``key``; a head-of-queue key switch ends
    the batch early rather than reordering requests.
    """

    def __init__(
        self,
        score_fn,
        linger_s: float = DEFAULT_LINGER_S,
        max_queue_rows: int = DEFAULT_MAX_QUEUE_ROWS,
        n_lanes: int = 1,
    ) -> None:
        self._score_fn = score_fn
        self._linger_s = linger_s
        self._max_queue_rows = max_queue_rows
        self._queue: deque[_Pending] = deque()
        self._queued_rows = 0
        self._inflight = 0
        self._cond = threading.Condition()
        self._stopped = False
        self.n_batches = 0
        self.n_rows = 0
        self.n_shed = 0
        self.n_expired = 0
        #: Batches that waited for company, and the seconds they waited.
        self.n_lingered = 0
        self.lingered_s = 0.0
        #: Requests in the batch a lane closed last.
        self._last_batch = 1
        self._lanes = [
            threading.Thread(
                target=self._loop, name=f"score-lane-{i}", daemon=True
            )
            for i in range(max(1, n_lanes))
        ]
        for lane in self._lanes:
            lane.start()

    def submit(
        self,
        rows: list[dict],
        deadline_s: float | None = None,
        key: str | None = None,
    ) -> _Pending:
        """Enqueue ``rows`` and block until their flags are ready."""
        pending = _Pending(
            rows=rows,
            deadline=(
                time.monotonic() + deadline_s
                if deadline_s is not None
                else None
            ),
            key=key,
        )
        with self._cond:
            if self._stopped:
                raise ReproError("scoring service is shut down")
            if self._queued_rows + len(rows) > self._max_queue_rows:
                self.n_shed += 1
                raise ServiceOverloaded(
                    f"admission queue is full "
                    f"({self._queued_rows} rows waiting, cap "
                    f"{self._max_queue_rows}); retry shortly"
                )
            self._queue.append(pending)
            self._queued_rows += len(rows)
            self._cond.notify_all()
        wait_s = (
            min(deadline_s, REQUEST_TIMEOUT_S)
            if deadline_s is not None
            else REQUEST_TIMEOUT_S
        )
        if not pending.event.wait(wait_s):
            # Abandoned by its handler: drop it from the queue so the
            # worker never scores rows nobody will read (if it already
            # joined an in-flight batch, that batch finishes normally).
            with self._cond:
                try:
                    self._queue.remove(pending)
                    self._queued_rows -= len(pending.rows)
                except ValueError:
                    pass
                # A lane that failed the entry as expired has counted
                # it already.
                if pending.deadline is not None and not isinstance(
                    pending.error, DeadlineExceeded
                ):
                    self.n_expired += 1
            if pending.deadline is not None:
                raise DeadlineExceeded(
                    f"request deadline ({deadline_s}s) expired before "
                    f"its batch was scored"
                )
            raise TimeoutError("scoring request timed out")
        if pending.error is not None:
            raise pending.error
        return pending

    def idle(self) -> bool:
        """True when nothing is queued and no batch is being scored."""
        with self._cond:
            return not self._queue and self._inflight == 0

    def stats(self) -> dict:
        """Every batcher counter in *one* lock acquisition.

        ``/healthz`` and the ``/metrics`` collector both read this, so
        the two surfaces always agree and no reader ever sees a torn
        pair (e.g. ``n_batches`` from before a batch landed with
        ``n_rows`` from after).
        """
        with self._cond:
            return {
                "batches": self.n_batches,
                "rows": self.n_rows,
                "shed": self.n_shed,
                "expired": self.n_expired,
                "queued_rows": self._queued_rows,
                "inflight": self._inflight,
                "lingered_batches": self.n_lingered,
                "lingered_s": self.lingered_s,
            }

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for lane in self._lanes:
            lane.join(timeout=5)

    # ------------------------------------------------------------------
    def _pop_live(self, key=_ANY_KEY) -> _Pending | None:
        """Pop the live head entry (caller holds the lock).

        Expired heads are failed with :class:`DeadlineExceeded` on the
        spot and skipped — their handler threads wake immediately
        rather than at their own wait timeout, and the lane never
        scores them.  Given a routing ``key``, a live head with a
        different key stays queued and None is returned: FIFO order is
        preserved, the key switch just ends the current batch.
        """
        while self._queue:
            head = self._queue[0]
            expired = (
                head.deadline is not None
                and time.monotonic() > head.deadline
            )
            if not expired and key is not _ANY_KEY and head.key != key:
                return None
            self._queue.popleft()
            self._queued_rows -= len(head.rows)
            if not expired:
                return head
            self.n_expired += 1
            head.error = DeadlineExceeded(
                "request deadline expired while queued"
            )
            head.event.set()
        return None

    def _collect_batch(self) -> list[_Pending]:
        """Block for the first request; wait for company on evidence.

        Queued same-key entries always join without waiting.  The batch
        then waits for more only when company is likely: its first
        entry was already queued when this lane came for it while every
        other lane was scoring (so every lane was busy), or the
        previous batch held more than one request.  ``linger_s`` is the
        longest it waits; it closes as soon as it holds as many
        requests as the previous batch did (at least 2), or when a
        wake-up finds the queue empty (another lane finished or took
        the request, or the batcher stopped).  A lone request on an
        idle lane is scored at once.
        """
        with self._cond:
            first = None
            waited = False
            while first is None:
                while not self._queue and not self._stopped:
                    waited = True
                    self._cond.wait(0.1)
                if self._stopped and not self._queue:
                    return []
                # May come back empty-handed when every queued entry
                # had already expired — keep waiting, don't stop.
                first = self._pop_live()
            batch = [first]
            total = len(first.rows)
            all_busy = (
                not waited and self._inflight >= len(self._lanes) - 1
            )
            company = (
                max(2, self._last_batch)
                if all_busy or self._last_batch > 1
                else 1
            )
            deadline = time.monotonic() + self._linger_s
            waited_from = None
            while total < MAX_BATCH_ROWS:
                if self._queue:
                    nxt = self._pop_live(first.key)
                    if nxt is None:
                        break
                    batch.append(nxt)
                    total += len(nxt.rows)
                    continue
                now = time.monotonic()
                if len(batch) >= company or now >= deadline:
                    break
                if waited_from is None:
                    waited_from = now
                self._cond.wait(deadline - now)
                if not self._queue:
                    break
            if waited_from is not None:
                self.n_lingered += 1
                self.lingered_s += time.monotonic() - waited_from
            self._last_batch = len(batch)
            self._inflight += 1
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if not batch:
                return
            rows = [row for pending in batch for row in pending.rows]
            try:
                if rows:
                    flags = self._score_fn(batch[0].key, rows)
                else:
                    flags = None
                offset = 0
                for pending in batch:
                    n = len(pending.rows)
                    pending.flags = (
                        flags[offset : offset + n].tolist() if n else []
                    )
                    pending.batched_with = len(rows)
                    offset += n
                with self._cond:
                    self.n_batches += 1
                    self.n_rows += len(rows)
            except Exception as exc:  # fan the failure to every waiter
                for pending in batch:
                    pending.error = exc
            finally:
                for pending in batch:
                    pending.event.set()
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()


class ScoringService:
    """HTTP serving front-end over a registry of fitted detectors."""

    def __init__(
        self,
        scorer: BatchScorer,
        host: str = "127.0.0.1",
        port: int = 0,
        linger_s: float = DEFAULT_LINGER_S,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout_s: float = DEFAULT_READ_TIMEOUT_S,
        max_queue_rows: int = DEFAULT_MAX_QUEUE_ROWS,
        deadline_s: float | None = None,
        breaker_state=None,
        artifact_path: str | Path | None = None,
        workers: int = 0,
        budget_bytes: int | None = None,
    ) -> None:
        if workers < 0:
            raise ConfigError(
                f"workers must be >= 0 (0 = in-process), got {workers}"
            )
        self.started_at = time.time()
        self.n_requests = 0
        self.n_reloads = 0
        self.max_body_bytes = max_body_bytes
        self.read_timeout_s = read_timeout_s
        #: Default per-request deadline; a payload's own "deadline_s"
        #: tightens (never loosens) it.  None = REQUEST_TIMEOUT_S only.
        self.deadline_s = deadline_s
        #: Optional zero-arg callable returning the live circuit
        #: breaker's snapshot dict — wire it when the service fronts a
        #: pipeline that still holds its ResilientLLM (a service over a
        #: reloaded artifact has no breaker; /healthz reports null).
        self.breaker_state = breaker_state
        #: The tenants.  ``scorer`` — loaded from ``artifact_path``, or
        #: a live fit's with no path — is pinned *before* it is
        #: inserted, so no budget can evict the default; tenants loaded
        #: later score with its jobs count.
        self.registry = ArtifactRegistry(
            budget_bytes=budget_bytes, n_jobs=scorer.config.n_jobs
        )
        self.default_fingerprint = schema_fingerprint(scorer.attributes)
        self.registry.pin(self.default_fingerprint)
        self.registry.insert(scorer, artifact_path)
        #: Worker-pool mode: batches score in N spawn-started processes
        #: that load each artifact themselves, so the default needs a
        #: path (in-memory-only scorers cannot cross a process boundary).
        if workers and artifact_path is None:
            raise ArtifactError(
                "workers > 0 needs an artifact path — worker "
                "processes load the scorer from disk"
            )
        self._stats_lock = threading.Lock()
        self._draining = False
        #: Per-service metric namespace (no process-global registry, so
        #: tests running many services in one process never collide).
        self.metrics = MetricsRegistry()
        self._init_metrics()
        # Bind before any lane or worker exists, so a port that cannot
        # be taken leaves nothing running behind the error.
        try:
            self._server = _Server((host, port), _make_handler(self))
        except (OSError, OverflowError) as exc:  # taken / out of range
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(
                f"cannot listen on {host}:{port}: {reason}"
            ) from exc
        try:
            self._pool = WorkerPool(workers) if workers else None
            self._batcher = _MicroBatcher(
                self._score_batch_rows,
                linger_s=linger_s,
                max_queue_rows=max_queue_rows,
                n_lanes=workers if workers else 1,
            )
        except BaseException:
            self._server.server_close()
            raise
        self._thread: threading.Thread | None = None
        self._serving = False

    @classmethod
    def from_artifacts(
        cls,
        paths: list,
        budget_bytes: int | None = None,
        n_jobs: int | None = None,
        **kwargs,
    ) -> "ScoringService":
        """Serve saved artifacts behind one port.

        The first path becomes the *default* tenant: it answers
        ``/score`` requests that name no ``fingerprint``/``dataset``,
        backs ``GET /artifact``, and is pinned against LRU eviction.
        ``budget_bytes`` bounds resident decoded-array memory; tenants
        evicted under pressure reload transparently on their next
        request.
        """
        if not paths:
            raise ArtifactError("from_artifacts needs at least one path")
        first, *rest = paths
        scorer = BatchScorer.from_artifact(first, n_jobs=n_jobs)
        # config.n_worker_procs is the persisted default; an explicit
        # workers= kwarg (CLI --workers) wins.
        kwargs.setdefault(
            "workers", getattr(scorer.config, "n_worker_procs", 0)
        )
        service = cls(
            scorer, artifact_path=first, budget_bytes=budget_bytes, **kwargs
        )
        try:
            for path in rest:
                service.registry.upsert(path)
        except BaseException:
            service.stop()  # the socket, lanes and pool are already up
            raise
        return service

    # ------------------------------------------------------------------
    def _init_metrics(self) -> None:
        """Register the service's metric namespace plus one collector.

        Event-driven metrics (HTTP counters, the latency histogram) are
        updated at the call site; everything the subsystems already
        count under their own locks — batcher shed/expired/row totals,
        registry hit/miss/eviction/load, fit-time token and resilience
        stats — is *bridged* by the collector at render time from the
        same snapshot functions ``/healthz`` reads, so the two surfaces
        can never disagree.
        """
        m = self.metrics
        self._m_http = m.counter(
            "repro_http_requests_total",
            "HTTP requests answered, by path and status",
            labelnames=("path", "status"),
        )
        self._m_latency = m.histogram(
            "repro_score_latency_seconds",
            "Batch scoring latency (one micro-batch), by tenant",
            labelnames=("tenant",),
        )
        self._m_tenant_rows = m.counter(
            "repro_tenant_scored_rows_total",
            "Rows scored, by tenant",
            labelnames=("tenant",),
        )
        self._m_worker_batches = m.counter(
            "repro_worker_batches_total",
            "Micro-batches dispatched to worker processes",
        )
        self._m_requests = m.counter(
            "repro_score_requests_total", "POST /score requests admitted"
        )
        self._m_reloads = m.counter(
            "repro_reloads_total", "Artifact reloads / registry upserts"
        )
        self._m_batches = m.counter(
            "repro_batches_total", "Micro-batches scored"
        )
        self._m_rows = m.counter(
            "repro_scored_rows_total", "Rows scored across all batches"
        )
        self._m_shed = m.counter(
            "repro_shed_total", "Requests shed at admission (queue full)"
        )
        self._m_expired = m.counter(
            "repro_deadline_expired_total",
            "Requests whose deadline expired before scoring",
        )
        self._m_lingered = m.counter(
            "repro_lingered_batches_total",
            "Micro-batches that waited for company before scoring",
        )
        self._m_linger_s = m.counter(
            "repro_linger_seconds_total",
            "Seconds micro-batches waited for company",
        )
        self._m_queue_rows = m.gauge(
            "repro_queue_rows", "Rows waiting in the micro-batch queue"
        )
        self._m_inflight = m.gauge(
            "repro_inflight_batches", "Batches being scored right now"
        )
        self._m_draining = m.gauge(
            "repro_draining", "1 while the service drains for shutdown"
        )
        self._m_uptime = m.gauge(
            "repro_uptime_seconds", "Seconds since the service started"
        )
        self._m_workers = m.gauge(
            "repro_worker_processes", "Scoring worker processes"
        )
        self._m_rss = m.gauge(
            "repro_process_resident_bytes",
            "Resident memory of the serving process",
        )
        self._m_peak_rss = m.gauge(
            "repro_process_peak_resident_bytes",
            "Peak resident memory of the serving process since start",
        )
        self._m_reg = {
            stat: m.counter(
                f"repro_registry_{stat}_total",
                f"Artifact registry {stat}",
            )
            for stat in ("hits", "misses", "evictions", "loads")
        }
        self._m_reg_bytes = m.gauge(
            "repro_registry_resident_bytes",
            "Decoded array bytes resident in the artifact registry",
        )
        self._m_reg_tenants = m.gauge(
            "repro_registry_resident_tenants",
            "Tenants resident in the artifact registry",
        )
        self._m_fit_tokens = m.counter(
            "repro_fit_llm_tokens_total",
            "LLM tokens spent fitting the served artifact, by direction",
            labelnames=("direction",),
        )
        self._m_fit_requests = m.counter(
            "repro_fit_llm_requests_total",
            "LLM requests spent fitting the served artifact",
        )
        self._m_llm_retries = m.counter(
            "repro_llm_retries_total",
            "LLM attempts retried while fitting the served artifact",
        )
        self._m_llm_failed = m.counter(
            "repro_llm_failed_calls_total",
            "LLM calls that exhausted retries while fitting",
        )
        self._m_breaker_opens = m.counter(
            "repro_llm_breaker_opens_total",
            "Circuit-breaker open transitions while fitting",
        )
        self._m_breaker_open = m.gauge(
            "repro_llm_breaker_open",
            "1 while the live circuit breaker is open",
        )
        m.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Refresh bridged metrics from the subsystems' own snapshots."""
        stats = self._batcher.stats()
        self._m_batches.set_total(stats["batches"])
        self._m_rows.set_total(stats["rows"])
        self._m_shed.set_total(stats["shed"])
        self._m_expired.set_total(stats["expired"])
        self._m_lingered.set_total(stats["lingered_batches"])
        self._m_linger_s.set_total(stats["lingered_s"])
        self._m_queue_rows.set(stats["queued_rows"])
        self._m_inflight.set(stats["inflight"])
        with self._stats_lock:
            self._m_requests.set_total(self.n_requests)
            self._m_reloads.set_total(self.n_reloads)
        self._m_draining.set(1 if self._draining else 0)
        self._m_uptime.set(round(time.time() - self.started_at, 3))
        self._m_workers.set(self.n_workers)
        resident, peak = process_memory_bytes()
        self._m_rss.set(resident)
        self._m_peak_rss.set(peak)
        snap = self.registry.snapshot()
        for stat, counter in self._m_reg.items():
            counter.set_total(snap[stat])
        self._m_reg_bytes.set(snap["resident_bytes"])
        self._m_reg_tenants.set(len(snap["resident"]))
        tokens = self.scorer.info.get("tokens") or {}
        if tokens:
            self._m_fit_tokens.set_total(
                tokens.get("input_tokens", 0), direction="input"
            )
            self._m_fit_tokens.set_total(
                tokens.get("output_tokens", 0), direction="output"
            )
            self._m_fit_requests.set_total(tokens.get("requests", 0))
        resilience = self.scorer.info.get("resilience") or {}
        fit_stats = resilience.get("fit_stats") or {}
        if fit_stats:
            self._m_llm_retries.set_total(fit_stats.get("retries", 0))
            self._m_llm_failed.set_total(fit_stats.get("failed_calls", 0))
            self._m_breaker_opens.set_total(
                fit_stats.get("breaker_opens", 0)
            )
        if self.breaker_state is not None:
            try:
                breaker = self.breaker_state()
            except Exception:
                breaker = {}
            self._m_breaker_open.set(
                1 if breaker.get("state") == "open" else 0
            )

    # ------------------------------------------------------------------
    def _score_batch_rows(self, key: str, rows: list[dict]):
        """The batcher's ``score_fn``: route one batch to its backend.

        Resolution happens at batch time (not admission time), so a
        reload takes effect at the next batch boundary: an atomic swap.
        """
        with trace.span("batch", rows=len(rows)) as sp:
            entry = self.registry.get(key)
            tenant = entry.dataset or entry.fingerprint[:12]
            sp.set(tenant=tenant, key=key)
            if self._pool is not None:
                flags = self._pool.score(
                    entry.path, entry.arrays_sha256, rows
                )
                self._m_worker_batches.inc()
            else:
                flags = entry.scorer.score_rows(
                    rows, name="request"
                ).mask.matrix
        self._m_latency.observe(sp.seconds, tenant=tenant)
        self._m_tenant_rows.inc(len(rows), tenant=tenant)
        _log.debug(
            "score.batch",
            tenant=tenant,
            rows=len(rows),
            seconds=round(sp.seconds, 6),
        )
        return flags

    @property
    def scorer(self):
        """The default tenant's scorer (a reload may swap it)."""
        return self.registry.peek(self.default_fingerprint).scorer

    @property
    def artifact_path(self) -> Path | None:
        """Where the default tenant was loaded from — the default
        /reload source; None for a live fit's scorer."""
        return self.registry.peek(self.default_fingerprint).path

    @property
    def n_workers(self) -> int:
        return self._pool.n_workers if self._pool is not None else 0

    def warm_workers(self) -> None:
        """Pre-load the default artifact into every worker process.

        Optional: workers self-heal lazily on their first batch; the
        CLI calls this before announcing readiness so the first real
        request doesn't pay the artifact load.
        """
        if self._pool is None:
            return
        entry = self.registry.peek(self.default_fingerprint)
        self._pool.warm(entry.path, entry.arrays_sha256)

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ScoringService":
        """Serve in a daemon thread (tests, embedding in other code)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="score-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry point)."""
        self._serving = True
        try:
            self._server.serve_forever()
        finally:
            self._serving = False

    def stop(self) -> None:
        # BaseServer.shutdown() blocks on an event that only
        # serve_forever() sets — calling it on a never-started (or
        # already-stopped) service would wait forever.
        if self._serving:
            self._server.shutdown()
            self._serving = False
        self._server.server_close()
        self._batcher.stop()
        if self._pool is not None:
            self._pool.close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting, let in-flight work finish, then stop.

        New ``/score`` requests are rejected with 503 ``draining`` the
        moment this is called; already-admitted requests are scored and
        answered normally.  Returns True when the queue drained inside
        ``timeout_s`` (the service is stopped either way — a hung batch
        should not block process exit forever).
        """
        self._draining = True
        deadline = time.monotonic() + timeout_s
        drained = False
        while time.monotonic() < deadline:
            if self._batcher.idle():
                drained = True
                break
            time.sleep(0.02)
        self.stop()
        return drained

    # ------------------------------------------------------------------
    def handle_score(self, payload: dict) -> dict:
        """Validate one /score payload and run it through the batcher."""
        if self._draining:
            raise ServiceOverloaded(
                "service is draining for shutdown; retry against "
                "another replica"
            )
        rows = payload.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise ArtifactError('body must be {"rows": [{attr: value}, ...]}')
        deadline_s = self.deadline_s
        if "deadline_s" in payload:
            try:
                requested = float(payload["deadline_s"])
            except (TypeError, ValueError):
                raise ArtifactError(
                    f"deadline_s must be a positive number, "
                    f"got {payload['deadline_s']!r}"
                ) from None
            if requested <= 0:
                raise ArtifactError(
                    f"deadline_s must be a positive number, "
                    f"got {requested}"
                )
            deadline_s = (
                min(deadline_s, requested)
                if deadline_s is not None
                else requested
            )
        normalised = [
            {str(k): "" if v is None else str(v) for k, v in row.items()}
            for row in rows
        ]
        # Routing: an explicit fingerprint wins, a dataset name
        # resolves to one, and neither means the pinned default.
        if payload.get("fingerprint") is not None:
            entry = self.registry.get(str(payload["fingerprint"]))
        elif payload.get("dataset") is not None:
            entry = self.registry.by_dataset(str(payload["dataset"]))
        else:
            entry = self.registry.get(self.default_fingerprint)
        # Validate before enqueueing: a bad request must fail alone,
        # not poison the micro-batch it would have joined.
        entry.scorer.validate_rows(normalised)
        pending = self._batcher.submit(
            normalised, deadline_s=deadline_s, key=entry.fingerprint
        )
        _log.debug(
            "score.ok", rows=len(normalised),
            batched_with=pending.batched_with,
        )
        return {
            "attributes": entry.scorer.attributes,
            "flags": pending.flags,
            "n_rows": len(normalised),
            "batched_with": pending.batched_with,
            "fingerprint": entry.fingerprint,
        }

    def reload_artifact(self, path: str | Path | None = None) -> dict:
        """Load an artifact and upsert it without dropping requests.

        ``path`` defaults to the default tenant's artifact.  The loaded
        artifact replaces the tenant with its schema fingerprint, or
        adds a tenant for a new one; re-reading a path a tenant is
        known by must still yield that tenant's schema, else
        :class:`ArtifactError` and the old scorer keeps serving (see
        :meth:`ArtifactRegistry.upsert`).

        The swap is atomic at a batch boundary: an in-flight batch
        finishes on the scorer it resolved when scoring started, and
        worker processes detect the changed ``arrays_sha256`` and
        reload before their next batch.
        """
        target = path if path is not None else self.artifact_path
        if target is None:
            raise ArtifactError(
                "no artifact path: the service was not started from an "
                "artifact and the reload request named none"
            )
        entry = self.registry.upsert(target)
        with self._stats_lock:
            self.n_reloads += 1
        _log.info(
            "artifact.reloaded",
            artifact=str(target),
            fingerprint=entry.fingerprint,
        )
        return {
            "reloaded": True,
            "artifact": str(target),
            "fingerprint": entry.fingerprint,
            "resident": len(self.registry.fingerprints()),
            "llm_model": entry.scorer.llm_model,
            "train_rows": entry.scorer.train_rows,
            "arrays_sha256": entry.arrays_sha256,
            "reloads": self.n_reloads,
        }

    def health(self) -> dict:
        resilience = self.scorer.info.get("resilience") or {}
        breaker = None
        if self.breaker_state is not None:
            try:
                breaker = self.breaker_state()
            except Exception:  # health must never 500 over telemetry
                breaker = {"state": "unknown"}
        # One lock-protected snapshot per request: a reader never sees
        # e.g. ``batches`` from before a batch landed with
        # ``rows_scored`` from after.  The /metrics collector reads the
        # same snapshot functions, so the two surfaces always agree.
        stats = self._batcher.stats()
        with self._stats_lock:
            n_requests = self.n_requests
            n_reloads = self.n_reloads
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": n_requests,
            "batches": stats["batches"],
            "rows_scored": stats["rows"],
            "queued_rows": stats["queued_rows"],
            "shed": stats["shed"],
            "deadline_expired": stats["expired"],
            "lingered_batches": stats["lingered_batches"],
            "lingered_s": stats["lingered_s"],
            "reloads": n_reloads,
            "degraded_attrs": resilience.get("degraded_attrs") or {},
            "circuit_breaker": breaker,
            "workers": self.n_workers,
            "registry": self.registry.snapshot(),
        }

    def readiness(self) -> tuple[int, dict]:
        """The /readyz answer: (status, body).

        Distinct from liveness: a draining replica is still *alive*
        (healthz 200, so orchestrators don't kill it mid-drain) but not
        *ready* (readyz 503, so load balancers stop routing to it).
        """
        if self._draining:
            return 503, {"ready": False, "reason": "draining"}
        return 200, {"ready": True}


class _Server(ThreadingHTTPServer):
    # Deep accept backlog: bursts past the admission cap must be shed
    # at the application layer with a clean 503 + Retry-After, not by
    # kernel connection resets when the default backlog (5) overflows.
    request_queue_size = 128
    daemon_threads = True


class _PayloadTooLarge(Exception):
    """Request body exceeded the service's ``max_body_bytes`` cap."""


def _make_handler(service: ScoringService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY: the response is written as several small sends
        # (status line, headers, body); with Nagle on, the last one
        # waits ~40 ms for the client's delayed ACK on a keep-alive
        # connection — turning the reuse "win" into a 6x latency loss.
        disable_nagle_algorithm = True
        # StreamRequestHandler deadline on every socket read: a client
        # that stalls mid-body gets disconnected instead of pinning a
        # handler thread until process death.
        timeout = service.read_timeout_s

        #: Known endpoints; anything else is counted as "other" so a
        #: scanner probing random paths cannot explode the label space.
        _KNOWN_PATHS = {
            "/score", "/reload", "/healthz", "/readyz",
            "/artifact", "/artifact/arrays", "/metrics",
        }

        def log_message(self, *args) -> None:  # keep test output quiet
            pass

        def _reply(
            self,
            status: int,
            body,
            content_type: str = "application/json",
            headers: tuple = (),
        ) -> None:
            """The one response writer: count, status, headers, body.

            ``body`` is bytes, or an open binary file streamed in
            64 KiB chunks so a large file never materialises in
            handler memory; Content-Length keeps the keep-alive
            connection clean either way.
            """
            path = self.path if self.path in self._KNOWN_PATHS else "other"
            service._m_http.inc(path=path, status=str(status))
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            for name, value in headers:
                self.send_header(name, value)
            if isinstance(body, bytes):
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            size = os.fstat(body.fileno()).st_size
            self.send_header("Content-Length", str(size))
            self.end_headers()
            shutil.copyfileobj(body, self.wfile, 64 * 1024)

        def _send(self, status: int, payload: dict, headers=()) -> None:
            body = json.dumps(payload).encode("utf-8")
            self._reply(status, body, headers=headers)

        def _send_error(
            self, status: int, code: str, message: str, headers=()
        ) -> None:
            # "error" stays a plain human-readable string (the wire
            # contract clients already parse); "code" is the stable
            # machine-routable label.
            self._send(status, {"error": message, "code": code}, headers)

        def _read_body(self) -> bytes:
            raw = self.headers.get("Content-Length")
            try:
                length = int(raw or 0)
            except ValueError:
                length = -1
            if 0 <= length <= service.max_body_bytes:
                return self.rfile.read(length)
            # The body stays unread (a negative length would block the
            # read until the socket deadline): reply, then drop the
            # connection so its bytes cannot be misread as a follow-up
            # request on the keep-alive.
            self.close_connection = True
            if length < 0:
                raise ArtifactError(f"invalid Content-Length header: {raw!r}")
            raise _PayloadTooLarge

        def _send_artifact_arrays(self) -> None:
            if service.artifact_path is None:
                self._send_error(
                    404,
                    "not_found",
                    "service was not started from an artifact directory",
                )
                return
            arrays_path = service.artifact_path / ARRAYS_NAME
            if not arrays_path.is_file():
                self._send_error(
                    404, "not_found", f"{arrays_path} does not exist"
                )
                return
            disposition = f'attachment; filename="{ARRAYS_NAME}"'
            with open(arrays_path, "rb") as fh:
                self._reply(
                    200, fh, "application/octet-stream",
                    (("Content-Disposition", disposition),),
                )

        def do_GET(self) -> None:
            if self.path == "/healthz":
                self._send(200, service.health())
            elif self.path == "/readyz":
                self._send(*service.readiness())
            elif self.path == "/metrics":
                # Prometheus text exposition, not JSON; the collector
                # refreshes bridged metrics from the same snapshots
                # /healthz reads.
                body = service.metrics.render().encode("utf-8")
                self._reply(200, body, PROMETHEUS_CONTENT_TYPE)
            elif self.path == "/artifact":
                self._send(200, service.scorer.info)
            elif self.path == "/artifact/arrays":
                self._send_artifact_arrays()
            else:
                self._send_error(
                    404, "not_found", f"unknown path {self.path!r}"
                )

        def do_POST(self) -> None:
            if self.path == "/reload":
                self._answer_json(
                    lambda payload: service.reload_artifact(
                        payload.get("artifact")
                    )
                )
            elif self.path == "/score":
                with service._stats_lock:
                    service.n_requests += 1
                # Every log line emitted while this request is handled —
                # including batch-scoring lines on the lane threads via
                # the trace ids — carries the request id for correlation.
                request_id = uuid.uuid4().hex[:12]
                with obs_log.bind(request_id=request_id):
                    self._answer_json(service.handle_score)
            else:
                self._send_error(
                    404, "not_found", f"unknown path {self.path!r}"
                )

        def _answer_json(self, handle) -> None:
            """Parse a JSON-object body, answer 200 with
            ``handle(payload)``, and map each failure to its status."""
            try:
                payload = json.loads(self._read_body() or b"{}")
                if not isinstance(payload, dict):
                    raise ArtifactError("body must be a JSON object")
                self._send(200, handle(payload))
            except _PayloadTooLarge:
                self._send_error(
                    413,
                    "payload_too_large",
                    f"request body exceeds the "
                    f"{service.max_body_bytes}-byte limit; split the "
                    f"rows across smaller /score requests",
                )
            except json.JSONDecodeError as exc:
                self._send_error(400, "invalid_json", f"invalid JSON: {exc}")
            except ServiceOverloaded as exc:
                _log.warning("score.shed", error=str(exc))
                # 503 + Retry-After: the one header a well-behaved
                # client needs to back off instead of hammering a full
                # queue.
                self._send_error(
                    503, "overloaded", str(exc),
                    (("Retry-After", str(RETRY_AFTER_S)),),
                )
            except (DeadlineExceeded, TimeoutError) as exc:
                _log.warning("score.deadline_expired", error=str(exc))
                self._send_error(504, "deadline_exceeded", str(exc))
            except WorkerPoolBroken as exc:
                # A dead worker is a server fault, not a bad request.
                self._send_error(500, "internal", str(exc))
            except ReproError as exc:
                self._send_error(400, "bad_request", str(exc))
            except Exception as exc:  # internal failure, still JSON
                self._send_error(500, "internal", f"internal error: {exc}")

    return Handler
