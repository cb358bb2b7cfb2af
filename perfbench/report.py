"""Metric declarations, output checks and the result line.

``BENCHMARK.json`` at the repository root declares every metric the
benchmark prints (name, unit, direction); :class:`Result` refuses to
print a metric set that differs from the declaration, so the printed
names and the declared ones cannot drift apart.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARATION = ROOT / "BENCHMARK.json"


def declared() -> dict:
    return json.loads(DECLARATION.read_text())


def metric_units(trace: bool) -> dict[str, str]:
    """``{name: unit}`` of the metrics a run with this ``trace`` prints."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in declared()[key]}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


#: Share of a run's identical windows that :func:`fast_median` keeps.
FAST_SHARE = 0.25


def fast_median(values, share: float = FAST_SHARE) -> float:
    """Median of the fastest ``share`` of the times of identical windows
    (at least one).  The benchmark's host is shared and runs up to 1.5x
    slower in stretches of seconds; a slow stretch only ever adds time,
    so the fastest windows of a run are the steadiest measure of the
    program's own cost.  Raw times, never rescaled."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return statistics.median(ordered[:max(1, round(share * len(ordered)))])


def row_latencies(rounds) -> list[float]:
    """Per-row latency over rounds that score the same rows one at a
    time: each row's :func:`fast_median` across the rounds."""
    return [fast_median(times) for times in zip(*rounds)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def f1(predicted, truth) -> float:
    from repro.ml.metrics import precision_recall_f1

    return precision_recall_f1(predicted, truth).f1


class Result:
    """Checks, operation counts and metric values of one run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        """Count operations of the workload (rows fitted, requests sent)."""
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """An output check: a failure fails the run and counts one
        failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @property
    def correct(self) -> bool:
        return not self.failures

    def line(self, trace: bool) -> str:
        """The JSON result line (the last line a run prints)."""
        units = metric_units(trace)
        values = self.layers if trace else self.e2e
        if set(values) != set(units):
            missing = sorted(set(units) - set(values))
            extra = sorted(set(values) - set(units))
            raise RuntimeError(
                f"metric set differs from BENCHMARK.json: missing "
                f"{missing}, undeclared {extra}"
            )
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )

    def human(self, trace: bool) -> list[str]:
        """Readable report lines: every metric with its unit, notes,
        failed checks."""
        units = metric_units(trace)
        values = self.layers if trace else self.e2e
        out = [f"workload {self.workload} ({'traced' if trace else 'untraced'})"]
        out += [f"  {n} = {values.get(n, float('nan')):.6g} {u}"
                for n, u in units.items()]
        out += [f"  note: {n}" for n in self.notes]
        out += [f"  FAILED CHECK: {f}" for f in self.failures]
        out.append(f"  operations attempted {self.attempted}, failed "
                   f"{self.failed}")
        return out
