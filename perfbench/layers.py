"""Per-layer metrics: from result objects, ``/metrics`` and span trees.

Every traced run prints the same per-layer names whatever the
workload; a layer the workload never enters reports 0 (no work, no
time).  Which end-to-end metric each layer metric should move is
recorded in ``BENCHMARK.json``'s workload notes and in the module
docstring of ``workloads.py``.
"""

from __future__ import annotations

from report import median
from spans import SpanTree, union_seconds

#: The nine ``run_stage`` stages of ``ZeroED.fit``, in order.
STAGES = (
    "stats", "correlation", "criteria", "features", "sampling",
    "guidelines", "labeling", "training_data", "train_detector",
)
#: Stages that spend LLM tokens.
TOKEN_STAGES = ("criteria", "guidelines", "labeling", "training_data")
#: Scoring-layer spans are counted only under these roots, so the
#: featurization done while fitting does not mix in.
SCORING = ("scorer.score_table",)
PHASES = ("paced", "sat")
SERVICE_PER_PHASE = (
    "rows_per_batch", "score_ms_per_batch", "score_busy_share",
    "outside_score_ms", "wait_ms", "http_ms",
)

NAMES = (
    [f"core.{s}_s" for s in STAGES]
    + ["core.criteria_kept_ratio", "core.labels_removed_ratio",
       "llm.requests"]
    + [f"llm.{s}_tokens" for s in TOKEN_STAGES]
    + ["llm.retries", "llm.failed_calls", "llm.sampled_rows",
       "llm.complete_s",
       "ml.cluster_s", "ml.mlp_fit_s", "ml.mlp_fit_rows", "ml.scale_s",
       "ml.mlp_predict_s", "ml.mlp_rows_per_cell",
       "artifact.load_s", "artifact.bytes",
       "streaming.shards", "streaming.shard_p50_s", "streaming.shard_max_s",
       "data.csv_read_s", "data.encode_s", "data.unique_ratio",
       "scorer.featurize_s", "scorer.predict_s", "scorer.statistical_s",
       "scorer.base_bytes", "scorer.predict_self_s",
       "text.embed_s", "criteria.evaluate_s", "criteria.calls"]
    + [f"service.{what}.{phase}" for what in SERVICE_PER_PHASE
       for phase in PHASES]
    + ["service.shed", "service.deadline_expired", "service.http_5xx",
       "loadgen.lateness_p99_ms", "loadgen.paced_requests",
       "loadgen.sat_requests",
       "trace.unaccounted_share", "trace.overhead_share"]
)


def empty() -> dict[str, float]:
    return {name: 0.0 for name in NAMES}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_fit(fitted) -> dict[str, float]:
    """Untraced: ``FittedZeroED.stages``, ledger and ``details``."""
    out = {}
    stages = {s.name: s for s in fitted.stages}
    for name in STAGES:
        out[f"core.{name}_s"] = stages[name].seconds
    for name in TOKEN_STAGES:
        s = stages[name]
        out[f"llm.{name}_tokens"] = s.input_tokens + s.output_tokens
    out["llm.requests"] = fitted.ledger_summary["requests"]
    resilience = fitted.details.get("resilience") or {}
    out["llm.retries"] = resilience.get("retries", 0)
    out["llm.failed_calls"] = resilience.get("failed_calls", 0)
    out["llm.sampled_rows"] = sum(fitted.details["n_sampled"].values())
    training = fitted.details["training"].values()
    kept = sum(t["criteria_kept"] for t in training)
    dropped = sum(t["criteria_dropped"] for t in training)
    removed = sum(t["removed"] for t in training)
    propagated = sum(t["propagated"] for t in training)
    out["core.criteria_kept_ratio"] = _ratio(kept, kept + dropped)
    out["core.labels_removed_ratio"] = _ratio(removed, removed + propagated)
    return out


def from_shards(shards) -> dict[str, float]:
    """Untraced: ``StreamingScoreResult.shards`` (as manifest dicts)."""
    seconds = [s["seconds"] for s in shards]
    return {
        "streaming.shards": len(shards),
        "streaming.shard_p50_s": median(seconds),
        "streaming.shard_max_s": max(seconds, default=0.0),
    }


def from_spans(tree: SpanTree) -> dict[str, float]:
    """Traced: the probe spans (and the program's own) of one run."""

    def total(name, under=None, outermost=False):
        found = (tree.outermost if outermost else tree.named)(name, under)
        return tree.total(found)

    def attr_sum(name, key, under=None):
        return sum(s.args.get(key, 0) for s in tree.named(name, under))

    out = {
        "llm.complete_s": total("llm.complete", outermost=True),
        "ml.cluster_s": total("ml.cluster"),
        "ml.mlp_fit_s": total("ml.mlp_fit"),
        "ml.mlp_fit_rows": attr_sum("ml.mlp_fit", "rows"),
        "artifact.load_s": total("artifact.load", outermost=True),
        "data.csv_read_s": total("data.csv_read", ("streaming.score_csv",)),
        "data.encode_s": total("data.encode", SCORING),
        "data.unique_ratio": _ratio(
            attr_sum("data.encode", "uniques", SCORING),
            attr_sum("data.encode", "values", SCORING),
        ),
        "scorer.featurize_s": total("featurize", SCORING),
        "scorer.predict_s": total("predict", SCORING),
        "scorer.statistical_s": sum(
            tree.self_seconds(s)
            for s in tree.named("scorer.base_matrix", SCORING)
        ),
        "scorer.base_bytes": attr_sum("scorer.base_matrix", "nbytes",
                                      SCORING),
        "scorer.predict_self_s": sum(
            tree.self_seconds(s) for s in tree.named("predict", SCORING)
        ),
        "text.embed_s": total("text.embed", SCORING),
        "criteria.evaluate_s": total("criteria.evaluate", SCORING,
                                     outermost=True),
        "criteria.calls": len(tree.outermost("criteria.evaluate", SCORING)),
        "ml.scale_s": total("ml.scale", SCORING),
        "ml.mlp_predict_s": total("ml.mlp_predict", SCORING),
    }
    cells = sum(
        s.args.get("cells", 0)
        for s in tree.outermost("scorer.score_table")
    )
    out["ml.mlp_rows_per_cell"] = _ratio(
        attr_sum("ml.mlp_predict", "rows", SCORING), cells
    )
    return out


def unaccounted_share(tree: SpanTree, pid: int, start: float,
                      end: float) -> float:
    """Share of the window ``[start, end]`` of process ``pid`` that no
    top-level span covers (the benchmark's own glue, mostly)."""
    covered = union_seconds(
        (max(s.start, start), min(s.end, end))
        for s in tree.roots(pid)
        if s.end > start and s.start < end
    )
    return _ratio(end - start - covered, end - start)


def parse_prometheus(text: str) -> list[tuple[str, dict, float]]:
    """``(name, labels, value)`` for every sample line."""
    samples = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        labels = {}
        name = head
        if "{" in head:
            name, _, rest = head.partition("{")
            for pair in rest.rstrip("}").split(","):
                if pair:
                    key, _, val = pair.partition("=")
                    labels[key] = val.strip('"')
        samples.append((name, labels, float(value)))
    return samples


def scrape_totals(text: str) -> dict[str, float]:
    """The counters the service metrics are built from."""
    totals = {"batches": 0.0, "rows": 0.0, "shed": 0.0, "expired": 0.0,
              "score_sum": 0.0, "score_count": 0.0, "http_5xx": 0.0}
    by_name = {
        "repro_batches_total": "batches",
        "repro_scored_rows_total": "rows",
        "repro_shed_total": "shed",
        "repro_deadline_expired_total": "expired",
        "repro_score_latency_seconds_sum": "score_sum",
        "repro_score_latency_seconds_count": "score_count",
    }
    for name, labels, value in parse_prometheus(text):
        if name in by_name:
            totals[by_name[name]] += value
        elif (
            name == "repro_http_requests_total"
            and labels.get("status", "").startswith("5")
        ):
            totals["http_5xx"] += value
    return totals


def service_phase(before: dict, after: dict, phase) -> dict[str, float]:
    """Untraced: one phase's ``/metrics`` deltas against what the
    generator saw."""
    d = {k: after[k] - before[k] for k in before}
    score_ms = 1000 * _ratio(d["score_sum"], d["score_count"])
    client_mean_ms = 1000 * _ratio(sum(phase.latencies),
                                   len(phase.latencies))
    return {
        "rows_per_batch": _ratio(d["rows"], d["batches"]),
        "score_ms_per_batch": score_ms,
        "score_busy_share": _ratio(d["score_sum"], phase.seconds),
        "outside_score_ms": client_mean_ms - score_ms,
        "shed": d["shed"],
        "expired": d["expired"],
        "http_5xx": d["http_5xx"],
    }


def service_traced(tree: SpanTree, pid: int, start: float, end: float,
                   client_latencies) -> dict[str, float]:
    """Traced: queue + linger wait and HTTP time of one phase.

    ``wait`` is the mean ``handle_score`` minus the mean scoring time a
    request sat through (each batch's ``score_rows`` weighted by the
    requests it answered); ``http`` is the client's mean latency minus
    the mean ``handle_score``.
    """

    def inside(name):
        return [s for s in tree.named(name)
                if s.pid == pid and start <= s.start < end]

    handled = inside("service.handle_score")
    batches = inside("scorer.score_rows")
    rows = sum(s.args.get("rows", 1) for s in batches)
    handle_ms = 1000 * _ratio(sum(s.seconds for s in handled), len(handled))
    score_ms = 1000 * _ratio(
        sum(s.seconds * s.args.get("rows", 1) for s in batches), rows
    )
    client_ms = 1000 * _ratio(sum(client_latencies), len(client_latencies))
    return {"wait_ms": handle_ms - score_ms, "http_ms": client_ms - handle_ms}
