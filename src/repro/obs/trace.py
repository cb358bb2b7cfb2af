"""Span tracing: nested, attributed timers with Chrome-trace export.

One timing primitive replaces the scattered ``time.perf_counter()``
pairs across the pipeline, the serving scorer, the streaming shard
executor and the baselines::

    with trace.span("featurize", attr="city", rows=1000) as sp:
        ...work...
    elapsed = sp.seconds          # identical semantics to the old pair

Two tracer implementations share that interface:

* :class:`NoopTracer` — the **default**.  Its spans measure elapsed
  time (two ``perf_counter`` calls, one tiny object) and record
  nothing: no lock, no context variable, no allocation growth.  The
  recording tracer's overhead over it while scoring is gated in
  ``benchmarks/test_perf_gates.py``.
* :class:`Tracer` — records every finished span (name, attributes,
  ids, thread, start/end) under a lock and exports them as Chrome
  trace-event JSON (``{"traceEvents": [...]}``, microsecond ``ts`` /
  ``dur``) loadable in ``chrome://tracing`` and Perfetto.

Parentage rides on a :mod:`contextvars` variable, so nesting works
across any call depth without threading span objects through
signatures.  New threads start from a *default* context, so thread
pools do not inherit the caller's span — :func:`propagate` captures
the submitting context and re-attaches it inside the worker, which is
exactly what :mod:`repro.parallel` does before fanning out.  Worker
*processes* receive only the string :func:`trace_id` (spans cannot
cross a pickle boundary); it correlates their structured log lines
with the front process's trace.

Instrumentation is **observe-only** by contract: installing a
recording tracer must never change a mask byte (asserted in
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path

#: (trace_id, span_id) of the innermost open span on this context, or
#: None outside any span.  Only the *recording* tracer touches it.
_CURRENT: ContextVar[tuple[str, int] | None] = ContextVar(
    "repro_trace_current", default=None
)


def current_ids() -> dict:
    """Correlation fields of the innermost open span (``{}`` outside).

    The structured-log formatter stamps these onto every record so a
    log line can be joined back to its trace.
    """
    current = _CURRENT.get()
    if current is None:
        return {}
    return {"trace_id": current[0], "span_id": current[1]}


class _NoopSpan:
    """A span that only measures time — the no-op tracer's product.

    Deliberately minimal: two ``perf_counter`` calls and two slots, so
    instrumented code pays (benchmarked) noise when tracing is off
    while keeping the *elapsed* semantics of the timing pair it
    replaced.
    """

    __slots__ = ("_t0", "_t1")

    def __enter__(self) -> "_NoopSpan":
        self._t1 = None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._t1 = time.perf_counter()
        return False

    @property
    def seconds(self) -> float:
        end = self._t1 if self._t1 is not None else time.perf_counter()
        return end - self._t0

    def set(self, **attrs) -> None:
        """Attribute updates are dropped: nothing records them."""


class NoopTracer:
    """The default tracer: free to keep installed, records nothing."""

    enabled = False

    def span(self, name: str, **attrs) -> _NoopSpan:
        return _NoopSpan()


@dataclass
class SpanRecord:
    """One finished span as stored by the recording tracer."""

    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    start_s: float
    end_s: float
    thread_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end_s - self.start_s


class Span:
    """A live recording span: a context manager that times, nests and
    lands in its tracer's record list on exit."""

    __slots__ = (
        "name", "attrs", "_tracer", "span_id", "parent_id",
        "_t0", "_t1", "_token", "_thread_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self._t1 = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        current = _CURRENT.get()
        self.parent_id = current[1] if current is not None else None
        self._thread_id = threading.get_ident()
        self._token = _CURRENT.set((tracer.trace_id, self.span_id))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._t1 = time.perf_counter()
        _CURRENT.reset(self._token)
        self._tracer._record(self)
        return False

    @property
    def seconds(self) -> float:
        end = self._t1 if self._t1 is not None else time.perf_counter()
        return end - self._t0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (row counts etc.)."""
        self.attrs.update(attrs)


class Tracer:
    """A recording tracer: collects spans, exports Chrome trace JSON."""

    enabled = True

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.trace_id = uuid.uuid4().hex[:16]
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._id = 0
        #: perf_counter origin: exported timestamps are relative to
        #: tracer creation so the trace viewer starts near zero.
        self._epoch = time.perf_counter()

    # -- span production -----------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _record(self, span: Span) -> None:
        record = SpanRecord(
            name=span.name,
            trace_id=self.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            start_s=span._t0 - self._epoch,
            end_s=span._t1 - self._epoch,
            thread_id=span._thread_id,
            attrs=dict(span.attrs),
        )
        with self._lock:
            self._records.append(record)

    # -- inspection ----------------------------------------------------
    @property
    def records(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [r for r in self.records if r.name == name]

    # -- export --------------------------------------------------------
    def chrome_trace(self) -> dict:
        """The Chrome trace-event representation (Perfetto-loadable).

        Complete ``"ph": "X"`` events: microsecond ``ts``/``dur``, one
        ``tid`` per producing thread, span attributes and ids under
        ``args``.
        """
        events = []
        for r in self.records:
            args = {k: _jsonable(v) for k, v in r.attrs.items()}
            args["span_id"] = r.span_id
            if r.parent_id is not None:
                args["parent_id"] = r.parent_id
            events.append(
                {
                    "name": r.name,
                    "cat": self.name,
                    "ph": "X",
                    "ts": round(r.start_s * 1e6, 3),
                    "dur": round((r.end_s - r.start_s) * 1e6, 3),
                    "pid": 1,
                    "tid": r.thread_id,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"trace_id": self.trace_id},
        }

    def export(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON to ``path``."""
        out = Path(path)
        out.write_text(json.dumps(self.chrome_trace()) + "\n")
        return out


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------
# Global tracer slot
# ---------------------------------------------------------------------
_NOOP = NoopTracer()
_TRACER: NoopTracer | Tracer = _NOOP


def get_tracer() -> NoopTracer | Tracer:
    """The currently installed tracer (the no-op one by default)."""
    return _TRACER


def set_tracer(tracer: NoopTracer | Tracer | None):
    """Install ``tracer`` (None restores the no-op); returns the old one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else _NOOP
    return previous


def span(name: str, **attrs):
    """``get_tracer().span(...)`` — the one-line instrumentation call."""
    return _TRACER.span(name, **attrs)


def trace_id() -> str | None:
    """The installed tracer's trace id (None when tracing is off)."""
    return _TRACER.trace_id if _TRACER.enabled else None


def propagate(fn):
    """Wrap ``fn`` so it runs under the submitting thread's span context.

    New threads get a *default* contextvars context, which would orphan
    every span opened inside a pool worker.  With the no-op tracer this
    returns ``fn`` unchanged — the parallel fan-out paths stay
    untouched when tracing is off.
    """
    if not _TRACER.enabled:
        return fn
    parent = _CURRENT.get()

    def wrapped(*args, **kwargs):
        token = _CURRENT.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)

    return wrapped
