"""Span-tree arithmetic over Chrome trace-event JSON.

Every traced process (the benchmark itself, the stream-scoring child,
the serve launcher) exports its spans in the format of
``repro.obs.trace.Tracer.export``: complete ``"ph": "X"`` events with
microsecond ``ts``/``dur`` and ``span_id``/``parent_id`` under
``args``.  This module turns such events back into a tree and answers
the questions the per-layer metrics ask:

* **self time** — a span's duration minus the part of its interval
  that its child spans cover (overlapping children count once);
* **outermost** spans of a name — calls that are not nested inside a
  call of the same name (``evaluate_column`` calling
  ``evaluate_values`` is one criteria call, not two);
* **roots** — spans without a recorded parent, whose union is what
  the layers account for of a workload's wall time.

Span ids are unique per process only, so every span is keyed by
``(pid, span_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    name: str
    pid: int
    sid: int
    parent: int | None
    start: float
    end: float
    args: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spans_from_chrome(doc: dict, pid: int, offset_s: float = 0.0) -> list[Span]:
    """Spans of one exported trace, tagged with ``pid``.

    ``offset_s`` is added to every timestamp, which puts traces from
    several processes on one clock when each records its tracer epoch.
    """
    out = []
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        start = ev["ts"] / 1e6 + offset_s
        out.append(
            Span(
                name=ev["name"],
                pid=pid,
                sid=int(args.pop("span_id")),
                parent=args.pop("parent_id", None),
                start=start,
                end=start + ev["dur"] / 1e6,
                args=args,
            )
        )
    return out


def union_seconds(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Parent/child index over spans from one or more processes."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self._by_key = {(s.pid, s.sid): s for s in self.spans}
        self._children: dict[tuple[int, int], list[Span]] = {}
        for s in self.spans:
            if s.parent is not None and (s.pid, s.parent) in self._by_key:
                self._children.setdefault((s.pid, s.parent), []).append(s)

    def parent(self, span: Span) -> Span | None:
        if span.parent is None:
            return None
        return self._by_key.get((span.pid, span.parent))

    def children(self, span: Span) -> list[Span]:
        return self._children.get((span.pid, span.sid), [])

    def ancestors(self, span: Span):
        node = self.parent(span)
        while node is not None:
            yield node
            node = self.parent(node)

    def within(self, span: Span, names) -> bool:
        """True when some ancestor of ``span`` is named in ``names``."""
        return any(a.name in names for a in self.ancestors(span))

    def named(self, name: str, under=None) -> list[Span]:
        """Spans called ``name``; with ``under``, only those nested in a
        span whose name is in ``under``."""
        found = [s for s in self.spans if s.name == name]
        if under is not None:
            found = [s for s in found if self.within(s, under)]
        return found

    def outermost(self, name: str, under=None) -> list[Span]:
        """``named`` minus calls nested inside a call of the same name."""
        return [
            s for s in self.named(name, under)
            if not self.within(s, (name,))
        ]

    def self_seconds(self, span: Span) -> float:
        """Duration minus the time the span's children cover."""
        covered = union_seconds(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children(span)
            if c.end > span.start and c.start < span.end
        )
        return span.seconds - covered

    def roots(self, pid: int | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if self.parent(s) is None and (pid is None or s.pid == pid)
        ]

    def total(self, spans) -> float:
        return sum(s.seconds for s in spans)
