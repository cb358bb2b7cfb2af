"""PR 10 observability: span tracing, metrics, structured logs.

Three invariants matter more than any feature:

* **observe-only** — installing a recording tracer and JSON logging
  must never change a mask byte (the equivalence contract extends to
  telemetry);
* **valid exposition** — ``GET /metrics`` must parse as Prometheus
  text format 0.0.4 (checked with a minimal parser written here, not
  a client library), counters must be monotonic across scrapes, and
  histogram cumulative buckets must be internally consistent;
* **one source of truth** — ``/healthz`` and ``/metrics`` derive from
  the same lock-protected snapshots, so their numbers can never
  disagree at a quiet moment.
"""

from __future__ import annotations

import io
import json
import logging
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.registry import get_dataset
from repro.errors import ConfigError
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs import trace
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
)
from repro.parallel import parallel_attr_map
from repro.serving.scorer import BatchScorer
from repro.serving.service import ScoringService


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with default (quiet, no-op) telemetry."""
    trace.set_tracer(None)
    obs_log.unconfigure()
    yield
    trace.set_tracer(None)
    obs_log.unconfigure()


# ---------------------------------------------------------------------
# Span tracing
# ---------------------------------------------------------------------
class TestTracer:
    def test_default_tracer_is_noop(self):
        tracer = trace.get_tracer()
        assert tracer.enabled is False
        with trace.span("anything", attr="x") as sp:
            sp.set(more=1)
        assert sp.seconds >= 0
        assert trace.trace_id() is None

    def test_recording_spans_nest(self):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with trace.span("outer", level=0):
            with trace.span("inner"):
                pass
        outer = tracer.spans_named("outer")[0]
        inner = tracer.spans_named("inner")[0]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"level": 0}
        assert outer.trace_id == tracer.trace_id
        assert inner.end_s <= outer.end_s

    def test_span_seconds_matches_record(self):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with trace.span("timed") as sp:
            pass
        record = tracer.spans_named("timed")[0]
        assert record.seconds == pytest.approx(sp.seconds)

    def test_set_attaches_attrs_mid_span(self):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with trace.span("s") as sp:
            sp.set(rows=7)
        assert tracer.spans_named("s")[0].attrs == {"rows": 7}

    def test_propagate_carries_parentage_into_threads(self):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with trace.span("parent") as parent:

            def work():
                with trace.span("child"):
                    pass

            worker = threading.Thread(target=trace.propagate(work))
            worker.start()
            worker.join()

            # Without propagate(), a fresh thread has no span context.
            naked = threading.Thread(target=work)
            naked.start()
            naked.join()
        children = tracer.spans_named("child")
        assert sorted(c.parent_id or 0 for c in children) == [
            0, parent.span_id,
        ]

    def test_propagate_is_identity_when_disabled(self):
        def fn():
            return 1

        assert trace.propagate(fn) is fn

    def test_chrome_trace_export(self, tmp_path):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with trace.span("root", dataset="beers"):
            with trace.span("leaf"):
                pass
        out = tracer.export(tmp_path / "trace.json")
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert {e["name"] for e in events} == {"root", "leaf"}
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "span_id" in event["args"]
        leaf = next(e for e in events if e["name"] == "leaf")
        root = next(e for e in events if e["name"] == "root")
        assert leaf["args"]["parent_id"] == root["args"]["span_id"]
        assert root["args"]["dataset"] == "beers"
        assert payload["otherData"]["trace_id"] == tracer.trace_id

    def test_set_tracer_returns_previous(self):
        first = trace.Tracer()
        previous = trace.set_tracer(first)
        assert previous.enabled is False
        assert trace.set_tracer(None) is first
        assert trace.get_tracer().enabled is False

    def test_parallel_attr_map_spans_fan_out(self):
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        attrs = ["a", "b", "c"]
        with trace.span("stage") as stage:
            parallel_attr_map(lambda a: a.upper(), attrs, 2, span="work")
        spans = tracer.spans_named("work")
        assert sorted(s.attrs["attr"] for s in spans) == attrs
        assert all(s.parent_id == stage.span_id for s in spans)

    def test_session_installs_exports_and_restores(self, tmp_path):
        out = tmp_path / "t.json"
        with obs.session(trace_out=str(out)) as tracer:
            assert tracer.enabled
            with trace.span("inside"):
                pass
        assert trace.get_tracer().enabled is False
        assert json.loads(out.read_text())["traceEvents"][0]["name"] == (
            "inside"
        )

    def test_session_defers_to_outer_recording_tracer(self, tmp_path):
        outer = trace.Tracer()
        trace.set_tracer(outer)
        with obs.session(trace_out=str(tmp_path / "never.json")) as tracer:
            assert tracer is outer
        assert not (tmp_path / "never.json").exists()
        assert trace.get_tracer() is outer


# ---------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "things")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        with pytest.raises(ConfigError):
            counter.inc(-1)

    def test_labels_validated(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_hits_total", "hits", labelnames=("path",)
        )
        counter.inc(path="/score")
        with pytest.raises(ConfigError):
            counter.inc()  # missing label
        with pytest.raises(ConfigError):
            counter.inc(path="/x", extra="y")
        with pytest.raises(ConfigError):
            registry.counter("bad name", "nope")

    def test_type_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ConfigError):
            registry.gauge("repro_x_total", "x")

    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.gauge("repro_g", "g")
        assert registry.gauge("repro_g", "g") is a

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_lat_seconds", "latency", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        lines = hist.render()
        by_series = dict(line.rsplit(" ", 1) for line in lines)
        assert by_series['repro_lat_seconds_bucket{le="0.1"}'] == "1"
        assert by_series['repro_lat_seconds_bucket{le="1"}'] == "3"
        assert by_series['repro_lat_seconds_bucket{le="10"}'] == "4"
        assert by_series['repro_lat_seconds_bucket{le="+Inf"}'] == "5"
        assert by_series["repro_lat_seconds_count"] == "5"
        assert float(by_series["repro_lat_seconds_sum"]) == pytest.approx(
            56.05
        )

    def test_default_latency_ladder_is_increasing(self):
        assert list(LATENCY_BUCKETS_S) == sorted(LATENCY_BUCKETS_S)
        assert LATENCY_BUCKETS_S[0] == 0.0005
        assert LATENCY_BUCKETS_S[-1] == 60.0

    def test_collector_refreshes_on_render(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_bridge_total", "bridged")
        external = {"n": 0}
        registry.add_collector(
            lambda: counter.set_total(external["n"])
        )
        external["n"] = 41
        assert "repro_bridge_total 41" in registry.render()
        external["n"] = 42
        assert "repro_bridge_total 42" in registry.render()

    def test_collector_failure_never_breaks_render(self):
        registry = MetricsRegistry()
        registry.counter("repro_ok_total", "fine")

        def bad():
            raise RuntimeError("collector bug")

        registry.add_collector(bad)
        assert "repro_ok_total 0" in registry.render()

    def test_render_has_help_and_type_and_escaping(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(
            "repro_weird", 'help with\nnewline', labelnames=("name",)
        )
        gauge.set(1, name='he said "hi"\n')
        text = registry.render()
        assert '# HELP repro_weird help with\\nnewline' in text
        assert "# TYPE repro_weird gauge" in text
        assert 'name="he said \\"hi\\"\\n"' in text

    def test_process_memory_reads_proc_or_falls_back(self, monkeypatch):
        resident, peak = metrics.process_memory_bytes()
        assert 0 < resident <= peak

        def no_proc(*args, **kwargs):
            raise OSError("no /proc")

        monkeypatch.setattr(metrics, "open", no_proc, raising=False)
        resident, peak = metrics.process_memory_bytes()
        assert resident == peak > 0


# ---------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------
class TestLogging:
    def test_quiet_by_default(self, capsys):
        obs_log.get_logger("repro.test").warning("nobody.listens", x=1)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == ""

    def test_json_lines_with_fields(self):
        stream = io.StringIO()
        obs_log.configure(level="debug", json_lines=True, stream=stream)
        obs_log.get_logger("repro.test").info("thing.done", rows=5)
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "thing.done"
        assert record["rows"] == 5
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert re.match(r"\d{4}-\d{2}-\d{2}T", record["time"])

    def test_bind_and_trace_correlation(self):
        stream = io.StringIO()
        obs_log.configure(level="debug", json_lines=True, stream=stream)
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        with obs_log.bind(request_id="req-1"):
            with trace.span("stage"):
                obs_log.get_logger("repro.test").info("inside")
        record = json.loads(stream.getvalue().strip())
        assert record["request_id"] == "req-1"
        assert record["trace_id"] == tracer.trace_id
        assert record["span_id"] == tracer.spans_named("stage")[0].span_id

    def test_level_filtering(self):
        stream = io.StringIO()
        obs_log.configure(level="warning", json_lines=True, stream=stream)
        log = obs_log.get_logger("repro.test")
        log.info("dropped")
        log.warning("kept")
        lines = stream.getvalue().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["kept"]

    def test_configure_is_idempotent(self):
        first = obs_log.configure(level="info", stream=io.StringIO())
        second = obs_log.configure(level="info", stream=io.StringIO())
        root = logging.getLogger(obs_log.ROOT_LOGGER_NAME)
        assert first not in root.handlers
        assert second in root.handlers

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigError):
            obs_log.configure(level="loud")

    def test_key_value_format(self):
        stream = io.StringIO()
        obs_log.configure(level="info", json_lines=False, stream=stream)
        obs_log.get_logger("repro.test").info("kv.event", n=3)
        line = stream.getvalue().strip()
        assert "kv.event" in line and "n=3" in line


# ---------------------------------------------------------------------
# Observe-only contract + full-fit trace coverage
# ---------------------------------------------------------------------
FIT_STAGES = (
    "stats", "correlation", "criteria", "features", "sampling",
    "guidelines", "labeling", "training_data", "train_detector",
)


@pytest.fixture(scope="module")
def beers():
    return get_dataset("beers").make(n_rows=60, seed=3)


def _small_config(**overrides) -> ZeroEDConfig:
    return ZeroEDConfig(
        label_rate=0.1,
        mlp_epochs=6,
        criteria_sample_size=15,
        embedding_dim=8,
        seed=0,
        **overrides,
    )


class TestObserveOnly:
    def test_masks_byte_identical_with_telemetry_on(self, beers, tmp_path):
        baseline = ZeroED(_small_config()).detect(beers.dirty)
        stream = io.StringIO()
        obs_log.configure(level="debug", json_lines=True, stream=stream)
        traced_config = _small_config(
            trace_out=str(tmp_path / "fit.json")
        )
        traced = ZeroED(traced_config).detect(beers.dirty)
        assert (
            traced.mask.matrix.tobytes()
            == baseline.mask.matrix.tobytes()
        )

    def test_fit_trace_covers_every_stage_and_attribute(
        self, beers, tmp_path
    ):
        out = tmp_path / "fit_trace.json"
        config = _small_config(trace_out=str(out), n_jobs=2)
        ZeroED(config).fit(beers.dirty)
        payload = json.loads(out.read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        for stage in FIT_STAGES:
            assert stage in names, f"missing span for stage {stage!r}"
        assert "fit" in names
        # Per-attribute fan-out: every attribute shows up in each of
        # the three parallel stages.
        for fan_out in ("sample", "verify", "assemble"):
            seen = {
                e["args"]["attr"]
                for e in payload["traceEvents"]
                if e["name"] == fan_out
            }
            assert seen == set(beers.dirty.attributes)

    def test_scoring_trace_is_complete_and_valid(self, beers, tmp_path):
        """A traced score exports the scoring spans as a loadable trace
        and flags the same cells as an untraced one."""
        scorer = ZeroED(_small_config()).fit(beers.dirty).scorer(n_jobs=2)
        table = get_dataset("beers").make(n_rows=40, seed=5).dirty
        untraced = scorer.score_table(table)
        tracer = trace.Tracer()
        trace.set_tracer(tracer)
        try:
            traced = scorer.score_table(table)
        finally:
            trace.set_tracer(None)
        assert (
            traced.mask.matrix.tobytes() == untraced.mask.matrix.tobytes()
        )
        out = tracer.export(tmp_path / "score_trace.json")
        events = json.loads(out.read_text())["traceEvents"]
        by_id = {e["args"]["span_id"]: e for e in events}
        assert {"featurize", "base_matrix", "predict"} <= {
            e["name"] for e in events
        }
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0, event
            if "parent_id" in event["args"]:
                assert event["args"]["parent_id"] in by_id, event
        # The per-attribute fan-out runs on pool threads and must stay
        # parented to the featurize span that submitted it.
        blocks = [e for e in events if e["name"] == "base_matrix"]
        assert {e["args"]["attr"] for e in blocks} == set(table.attributes)
        for event in blocks:
            parent = by_id.get(event["args"].get("parent_id"), {})
            assert parent.get("name") == "featurize", event

    def test_fit_restores_noop_tracer(self, beers, tmp_path):
        config = _small_config(trace_out=str(tmp_path / "t.json"))
        ZeroED(config).fit(beers.dirty)
        assert trace.get_tracer().enabled is False

    def test_config_rejects_bad_log_level(self):
        with pytest.raises(ConfigError):
            ZeroEDConfig(log_level="shouty")


# ---------------------------------------------------------------------
# GET /metrics — Prometheus text exposition over the scoring service
# ---------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{[^{}]*\})?"                          # optional {labels}
    r" (-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|\+Inf|-Inf|NaN)$"  # value
)
_LABELS_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str):
    """Minimal text-format 0.0.4 parser: every line must be a valid
    HELP/TYPE comment or sample, anything else fails the test."""
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: dict[tuple[str, tuple], float] = {}
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, _, type_name = line[len("# TYPE "):].partition(" ")
            assert type_name in ("counter", "gauge", "histogram")
            types[name] = type_name
        else:
            match = _SAMPLE_RE.match(line)
            assert match, f"invalid exposition line: {line!r}"
            name, raw_labels, raw_value = match.groups()
            labels = tuple(
                _LABELS_RE.findall(raw_labels or "")
            )
            key = (name, labels)
            assert key not in samples, f"duplicate series {line!r}"
            samples[key] = float(raw_value.replace("Inf", "inf"))
    return helps, types, samples


def _base_name(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _fetch(url: str):
    with urllib.request.urlopen(url, timeout=30) as resp:
        return resp.status, resp.headers, resp.read().decode("utf-8")


def _post_json(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


@pytest.fixture(scope="module")
def obs_service(beers, tmp_path_factory):
    fitted = ZeroED(_small_config()).fit(beers.dirty)
    path = fitted.save(tmp_path_factory.mktemp("obs") / "artifact")
    scorer = BatchScorer.from_artifact(path)
    svc = ScoringService(scorer, port=0, artifact_path=path).start()
    yield svc
    svc.stop()


class TestMetricsEndpoint:
    def test_exposition_is_valid_and_typed(self, obs_service):
        status, headers, text = _fetch(obs_service.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        helps, types, samples = parse_prometheus(text)
        # Every sample belongs to a declared metric, and every declared
        # metric carries help text.
        for name, _labels in samples:
            base = _base_name(name)
            assert base in types or name in types
            assert (base in helps) or (name in helps)
        for name in types:
            assert helps[name]

    def test_core_serving_metrics_present(self, obs_service):
        _, _, text = _fetch(obs_service.url + "/metrics")
        _helps, types, samples = parse_prometheus(text)
        resident = samples[("repro_process_resident_bytes", ())]
        peak = samples[("repro_process_peak_resident_bytes", ())]
        assert 0 < resident <= peak
        for name, type_name in {
            "repro_score_requests_total": "counter",
            "repro_batches_total": "counter",
            "repro_scored_rows_total": "counter",
            "repro_shed_total": "counter",
            "repro_deadline_expired_total": "counter",
            "repro_reloads_total": "counter",
            "repro_queue_rows": "gauge",
            "repro_uptime_seconds": "gauge",
            "repro_worker_processes": "gauge",
            "repro_process_resident_bytes": "gauge",
            "repro_process_peak_resident_bytes": "gauge",
            "repro_registry_hits_total": "counter",
            "repro_fit_llm_tokens_total": "counter",
            "repro_llm_retries_total": "counter",
            "repro_score_latency_seconds": "histogram",
            "repro_http_requests_total": "counter",
        }.items():
            assert types.get(name) == type_name, name

    def test_counters_monotonic_across_scrapes(self, obs_service, beers):
        def scrape() -> dict:
            _, _, text = _fetch(obs_service.url + "/metrics")
            _helps, types, samples = parse_prometheus(text)
            return {
                key: value
                for key, value in samples.items()
                if types.get(_base_name(key[0])) == "counter"
                or types.get(key[0]) == "counter"
            }

        before = scrape()
        rows = [beers.dirty.row(i) for i in range(8)]
        _post_json(obs_service.url + "/score", {"rows": rows})
        after = scrape()
        for key, value in before.items():
            assert after.get(key, 0) >= value, key
        requests_key = ("repro_score_requests_total", ())
        assert after[requests_key] == before[requests_key] + 1

    def test_histogram_buckets_consistent(self, obs_service, beers):
        rows = [beers.dirty.row(i) for i in range(5)]
        _post_json(obs_service.url + "/score", {"rows": rows})
        _, _, text = _fetch(obs_service.url + "/metrics")
        _helps, _types, samples = parse_prometheus(text)
        hist = "repro_score_latency_seconds"
        counts = {
            labels: value
            for (name, labels), value in samples.items()
            if name == hist + "_count"
        }
        assert counts, "no latency observations recorded"
        for labelset, count in counts.items():
            buckets = sorted(
                (dict(labels)["le"], value)
                for (name, labels), value in samples.items()
                if name == hist + "_bucket"
                and tuple(
                    p for p in labels if p[0] != "le"
                ) == labelset
            )
            values = [
                v for _le, v in sorted(
                    buckets,
                    key=lambda item: float(
                        item[0].replace("Inf", "inf")
                    ),
                )
            ]
            # Cumulative: non-decreasing, ending at _count.
            assert values == sorted(values)
            assert values[-1] == count
            total = samples[(hist + "_sum", labelset)]
            assert total >= 0

    def test_metrics_agree_with_healthz(self, obs_service):
        status, _headers, text = _fetch(obs_service.url + "/metrics")
        assert status == 200
        with urllib.request.urlopen(
            obs_service.url + "/healthz", timeout=30
        ) as resp:
            health = json.loads(resp.read())
        # Quiet moment: no in-flight requests between the two reads.
        _helps, _types, samples = parse_prometheus(
            _fetch(obs_service.url + "/metrics")[2]
        )
        assert samples[("repro_scored_rows_total", ())] == health[
            "rows_scored"
        ]
        assert samples[("repro_batches_total", ())] == health["batches"]
        assert samples[("repro_shed_total", ())] == health["shed"]
        assert samples[("repro_deadline_expired_total", ())] == health[
            "deadline_expired"
        ]

    def test_fit_provenance_metrics_from_artifact(self, obs_service):
        _, _, text = _fetch(obs_service.url + "/metrics")
        _helps, _types, samples = parse_prometheus(text)
        tokens = obs_service.scorer.info["tokens"]
        assert samples[
            ("repro_fit_llm_tokens_total", (("direction", "input"),))
        ] == tokens["input_tokens"]
        assert samples[
            ("repro_fit_llm_tokens_total", (("direction", "output"),))
        ] == tokens["output_tokens"]
        assert samples[("repro_fit_llm_requests_total", ())] == tokens[
            "requests"
        ]

    def test_http_request_counter_caps_cardinality(self, obs_service):
        for _ in range(2):
            try:
                urllib.request.urlopen(
                    obs_service.url + "/no-such-path", timeout=30
                )
            except urllib.error.HTTPError:
                pass
        _, _, text = _fetch(obs_service.url + "/metrics")
        _helps, _types, samples = parse_prometheus(text)
        other = [
            labels
            for (name, labels) in samples
            if name == "repro_http_requests_total"
            and dict(labels).get("path") == "other"
        ]
        assert other, "unknown paths must be folded into 'other'"
