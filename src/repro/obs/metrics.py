"""Counters, gauges and histograms with Prometheus text exposition.

Zero-dependency metrics for the serving layer.  A
:class:`MetricsRegistry` owns a namespace of metrics and renders them
in the Prometheus text format (version 0.0.4) for ``GET /metrics``::

    registry = MetricsRegistry()
    shed = registry.counter("repro_shed_total", "Requests shed at admission")
    shed.inc()
    latency = registry.histogram(
        "repro_score_latency_seconds", "Batch scoring latency",
        labelnames=("tenant",),
    )
    latency.observe(0.012, tenant="hospital")
    text = registry.render()

Design points:

* **per-instance registries, no global state** — every
  :class:`~repro.serving.service.ScoringService` owns one, so tests
  spinning up many services in one process never collide on names;
* **collectors bridge existing counters** — subsystems that already
  keep hand-rolled monotonic ints under their own locks (the
  micro-batcher, the artifact registry, the resilience stats) stay the
  single source of truth: a collector callback reads *one* consistent
  snapshot at render time and mirrors it into the registry via
  :meth:`Counter.set_total` / :meth:`Gauge.set`.  ``/healthz`` reads
  the same snapshot functions, so the two surfaces can never disagree;
* **fixed log-scale latency buckets** — a 1-2.5-5 ladder from 500µs to
  60s (:data:`LATENCY_BUCKETS_S`), cumulative ``_bucket{le=...}``
  rendering with ``_sum``/``_count`` per labelset;
* **thread-safe** — each metric guards its samples with its own lock;
  collectors run under the registry lock at render time.
"""

from __future__ import annotations

import math
import re
import resource
import sys
import threading
from collections.abc import Callable, Sequence

from repro.errors import ConfigError

#: Fixed log-scale latency ladder (seconds): 1-2.5-5 per decade.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _format_number(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared plumbing: naming, labels, per-metric lock, samples."""

    type_name = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigError(
                    f"invalid label name {label!r} on metric {name!r}"
                )
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        #: label-value tuple -> sample value (shape varies by type).
        self._samples: dict[tuple, object] = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ConfigError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {sorted(labels)!r}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series(self, key: tuple) -> str:
        if not self.labelnames:
            return self.name
        pairs = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return f"{self.name}{{{pairs}}}"

    def samples(self) -> dict[tuple, object]:
        with self._lock:
            return dict(self._samples)


class Counter(_Metric):
    """Monotonically increasing count."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ConfigError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(self._samples.get(key, 0.0)) + amount

    def set_total(self, value: float, **labels) -> None:
        """Mirror an externally maintained monotonic total.

        For collector callbacks bridging subsystems that already count
        under their own locks; the external int stays the source of
        truth, this just re-publishes it.
        """
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def render(self) -> list[str]:
        samples = self.samples() or ({(): 0.0} if not self.labelnames else {})
        return [
            f"{self._series(key)} {_format_number(value)}"
            for key, value in sorted(samples.items())
        ]


class Gauge(_Metric):
    """A value that can go up and down."""

    type_name = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(self._samples.get(key, 0.0)) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._samples.get(self._key(labels), 0.0))

    def render(self) -> list[str]:
        samples = self.samples() or ({(): 0.0} if not self.labelnames else {})
        return [
            f"{self._series(key)} {_format_number(value)}"
            for key, value in sorted(samples.items())
        ]


class Histogram(_Metric):
    """Cumulative-bucket histogram (fixed bucket ladder per metric)."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = [[0] * len(self.buckets), 0.0, 0]
                self._samples[key] = state
            counts, total, count = state
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
                    break
            state[1] = total + value
            state[2] = count + 1

    def render(self) -> list[str]:
        lines: list[str] = []
        samples = self.samples()
        if not samples and not self.labelnames:
            samples = {(): [[0] * len(self.buckets), 0.0, 0]}
        for key, (counts, total, count) in sorted(samples.items()):
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                series = self._bucket_series(key, _format_number(bound))
                lines.append(f"{series} {cumulative}")
            lines.append(f"{self._bucket_series(key, '+Inf')} {count}")
            lines.append(
                f"{self._suffixed_series('_sum', key)} "
                f"{_format_number(total)}"
            )
            lines.append(f"{self._suffixed_series('_count', key)} {count}")
        return lines

    def _bucket_series(self, key: tuple, le: str) -> str:
        pairs = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        ]
        pairs.append(f'le="{le}"')
        return f"{self.name}_bucket{{{','.join(pairs)}}}"

    def _suffixed_series(self, suffix: str, key: tuple) -> str:
        if not self.labelnames:
            return f"{self.name}{suffix}"
        pairs = ",".join(
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return f"{self.name}{suffix}{{{pairs}}}"


class MetricsRegistry:
    """A namespace of metrics plus the collectors that refresh them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- registration (get-or-create, idempotent) ----------------------
    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}"
                    )
                return existing
            metric = Histogram(name, help_text, labelnames, buckets)
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name, help_text, labelnames):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ConfigError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}"
                    )
                return existing
            metric = cls(name, help_text, labelnames)
            self._metrics[name] = metric
            return metric

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback run before each render to refresh
        bridged metrics from their owning subsystem's snapshot."""
        with self._lock:
            self._collectors.append(fn)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    # -- exposition ----------------------------------------------------
    def render(self) -> str:
        """The Prometheus text-format exposition of every metric.

        Collector failures are swallowed (stale values beat a 500 from
        the telemetry endpoint); metric blocks render in registration
        order with ``# HELP`` / ``# TYPE`` headers.
        """
        with self._lock:
            collectors = list(self._collectors)
            metrics = list(self._metrics.values())
        for collect in collectors:
            try:
                collect()
            except Exception:
                pass
        lines: list[str] = []
        for metric in metrics:
            help_text = metric.help_text.replace("\\", r"\\").replace(
                "\n", r"\n"
            )
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: Content-Type for the text exposition (what Prometheus scrapers send
#: in Accept and expect back).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def process_memory_bytes() -> tuple[int, int]:
    """``(resident, peak resident)`` bytes of this process.

    Read from ``VmRSS`` / ``VmHWM`` in ``/proc/self/status``; where
    that file does not exist, both fall back to the peak that
    ``resource.getrusage`` reports (kilobytes on Linux, bytes on
    macOS), the only resident figure it has.
    """
    found: dict[str, int] = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                if key in ("VmRSS", "VmHWM"):
                    found[key] = int(rest.split()[0]) * 1024
    except OSError:
        pass
    if len(found) == 2:
        return found["VmRSS"], found["VmHWM"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak, peak
