"""PR 5 scoring service: HTTP endpoints + micro-batched handling.

End-to-end over a real ``ThreadingHTTPServer`` on an ephemeral port:
responses must equal :class:`BatchScorer`'s batch output bit for bit,
concurrent requests must each get exactly their own rows' flags back
(micro-batching never leaks or reorders), and malformed payloads come
back as JSON errors with 4xx statuses.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.registry import get_dataset
from repro.errors import ConfigError
from repro.serving.artifact import ARTIFACT_VERSION
from repro.serving.scorer import BatchScorer
from repro.serving import service as service_mod
from repro.serving.service import DeadlineExceeded, ScoringService

#: A checked-in artifact whose schema differs from the hospital fit's.
V1_FLIGHTS = Path(__file__).parent / "data" / "flights_v1_artifact"


@pytest.fixture(scope="module")
def hospital():
    return get_dataset("hospital").make(n_rows=120, seed=7)


@pytest.fixture(scope="module")
def artifact_path(hospital, tmp_path_factory):
    config = ZeroEDConfig(
        label_rate=0.1,
        mlp_epochs=8,
        criteria_sample_size=20,
        embedding_dim=8,
        seed=0,
    )
    fitted = ZeroED(config).fit(hospital.dirty)
    return fitted.save(tmp_path_factory.mktemp("svc") / "artifact")


@pytest.fixture(scope="module")
def scorer(artifact_path) -> BatchScorer:
    return BatchScorer.from_artifact(artifact_path)


@pytest.fixture(scope="module")
def service(scorer):
    svc = ScoringService(scorer, port=0).start()
    yield svc
    svc.stop()


def _post(url: str, payload) -> tuple[int, dict]:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, service):
        status, payload = _get(service.url + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_artifact_info(self, service, scorer):
        status, payload = _get(service.url + "/artifact")
        assert status == 200
        assert payload["attributes"] == scorer.attributes
        assert payload["train_rows"] == 120
        assert payload["version"] == ARTIFACT_VERSION

    def test_unknown_path_404(self, service):
        status, payload = _get(service.url + "/nope")
        assert status == 404
        assert "error" in payload

    def test_score_matches_batch_scorer(self, service, scorer, hospital):
        rows = [hospital.dirty.row(i) for i in range(30)]
        status, payload = _post(service.url + "/score", {"rows": rows})
        assert status == 200
        assert payload["attributes"] == scorer.attributes
        expected = scorer.score_rows(rows).mask.matrix.tolist()
        assert payload["flags"] == expected
        assert payload["n_rows"] == 30
        assert payload["batched_with"] >= 30

    def test_empty_rows(self, service):
        status, payload = _post(service.url + "/score", {"rows": []})
        assert status == 200
        assert payload["flags"] == []
        assert payload["n_rows"] == 0

    def test_missing_attributes_are_null_cells(self, service, scorer):
        attr = scorer.attributes[0]
        status, payload = _post(
            service.url + "/score", {"rows": [{attr: "something"}]}
        )
        assert status == 200
        assert len(payload["flags"]) == 1
        assert len(payload["flags"][0]) == len(scorer.attributes)


class TestValidation:
    def test_invalid_json(self, service):
        status, payload = _post(service.url + "/score", b"{nope")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_rows_must_be_list_of_objects(self, service):
        status, payload = _post(service.url + "/score", {"rows": "nope"})
        assert status == 400
        status, payload = _post(service.url + "/score", {"rows": [1, 2]})
        assert status == 400

    def test_unknown_attribute_rejected(self, service):
        status, payload = _post(
            service.url + "/score", {"rows": [{"no_such_column": "x"}]}
        )
        assert status == 400
        assert "unknown attribute" in payload["error"]

    def test_post_to_unknown_path(self, service):
        status, payload = _post(service.url + "/other", {"rows": []})
        assert status == 404


class TestMicroBatching:
    def test_concurrent_requests_each_get_their_own_flags(
        self, service, scorer, hospital
    ):
        """Fire parallel single-row posts; every response must carry
        exactly that row's flags (batching neither leaks nor reorders,
        and scoring is row-independent so co-batching cannot change a
        verdict)."""
        table = hospital.dirty
        indices = list(range(0, 40, 5))
        expected = scorer.score_rows(
            [table.row(i) for i in indices]
        ).mask.matrix.tolist()
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def worker(pos: int, i: int) -> None:
            try:
                status, payload = _post(
                    service.url + "/score", {"rows": [table.row(i)]}
                )
                assert status == 200
                results[pos] = payload
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(pos, i))
            for pos, i in enumerate(indices)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(results) == len(indices)
        for pos in range(len(indices)):
            assert results[pos]["flags"] == [expected[pos]]

    def test_batch_counters_advance(self, service):
        status, payload = _get(service.url + "/healthz")
        assert status == 200
        assert payload["batches"] >= 1
        assert payload["rows_scored"] >= 1


def _no_flags(key, rows):
    return np.zeros((len(rows), 1), dtype=bool)


class TestMicroBatcher:
    """The batcher itself, without HTTP: coalescing and expiry."""

    @staticmethod
    def _enqueue(batcher, key, expired=False):
        pending = service_mod._Pending(
            rows=[{"key": str(key)}],
            deadline=time.monotonic() - 1 if expired else None,
            key=key,
        )
        batcher._queue.append(pending)
        batcher._queued_rows += 1
        return pending

    def test_batches_coalesce_same_key_fifo_and_skip_expired(self):
        batcher = service_mod._MicroBatcher(_no_flags, linger_s=0)
        # Lanes gone, the test collects the batches itself.
        batcher.stop()
        enqueue = self._enqueue
        x0 = enqueue(batcher, "k", expired=True)
        a, b = enqueue(batcher, "k"), enqueue(batcher, "k")
        x1 = enqueue(batcher, "k", expired=True)
        c = enqueue(batcher, "k")
        # None is the single-tenant key, not "any key".
        d, e = enqueue(batcher, None), enqueue(batcher, None)
        f = enqueue(batcher, "k")
        assert batcher._collect_batch() == [a, b, c]
        assert list(batcher._queue) == [d, e, f]
        assert batcher._collect_batch() == [d, e]
        assert batcher._collect_batch() == [f]
        for expired in (x0, x1):
            assert isinstance(expired.error, DeadlineExceeded)
            assert expired.event.is_set()
        for live in (a, b, c, d, e, f):
            assert live.error is None and not live.event.is_set()
        stats = batcher.stats()
        assert stats["expired"] == 2
        assert stats["queued_rows"] == 0

    def test_expired_request_counted_once(self, monkeypatch):
        class ExpiresWhileWaiting(threading.Event):
            """The handler's wait times out just after a lane has
            failed its entry as expired."""

            def wait(self, timeout=None):
                assert super().wait(5)
                return False

        @dataclasses.dataclass
        class RacingPending(service_mod._Pending):
            event: threading.Event = dataclasses.field(
                default_factory=ExpiresWhileWaiting
            )

        monkeypatch.setattr(service_mod, "_Pending", RacingPending)
        batcher = service_mod._MicroBatcher(_no_flags, linger_s=0)
        try:
            with pytest.raises(DeadlineExceeded):
                # Already past, so the lane pops it as expired.
                batcher.submit([{"key": "k"}], deadline_s=-1.0)
            assert batcher.stats()["expired"] == 1
        finally:
            batcher.stop()


class TestHardening:
    """PR 6: structured error codes, payload cap, resilience health."""

    @pytest.fixture(scope="class")
    def capped_service(self, scorer):
        svc = ScoringService(
            scorer,
            port=0,
            max_body_bytes=2048,
            breaker_state=lambda: {"state": "closed", "opens": 0},
        ).start()
        yield svc
        svc.stop()

    def test_error_codes_are_stable(self, service):
        _status, payload = _post(service.url + "/score", b"{nope")
        assert payload["code"] == "invalid_json"
        _status, payload = _post(service.url + "/score", {"rows": "nope"})
        assert payload["code"] == "bad_request"
        _status, payload = _post(service.url + "/other", {"rows": []})
        assert payload["code"] == "not_found"
        _status, payload = _get(service.url + "/nope")
        assert payload["code"] == "not_found"

    def test_error_field_stays_a_string(self, service):
        # Wire contract: clients parse payload["error"] as a plain
        # message; "code" rides alongside, it does not replace it.
        _status, payload = _post(service.url + "/score", {"rows": "nope"})
        assert isinstance(payload["error"], str) and payload["error"]

    def test_oversized_body_gets_413(self, capped_service, scorer):
        attr = scorer.attributes[0]
        rows = [{attr: "x" * 100} for _ in range(200)]  # >> 2048 bytes
        status, payload = _post(capped_service.url + "/score", {"rows": rows})
        assert status == 413
        assert payload["code"] == "payload_too_large"
        assert "2048" in payload["error"]

    def test_negative_content_length_is_rejected_at_once(self, service):
        """A negative length must not reach ``rfile.read(-1)``, which
        blocks until the socket read deadline and then answers 504."""
        request = (
            b"POST /score HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
        )
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        payload = json.loads(body)
        assert payload["code"] == "bad_request"
        assert "Content-Length" in payload["error"]

    def test_small_body_passes_the_cap(self, capped_service, scorer):
        attr = scorer.attributes[0]
        status, payload = _post(
            capped_service.url + "/score", {"rows": [{attr: "v"}]}
        )
        assert status == 200
        assert len(payload["flags"]) == 1

    def test_healthz_reports_degradation_and_breaker(self, capped_service):
        status, payload = _get(capped_service.url + "/healthz")
        assert status == 200
        assert payload["degraded_attrs"] == {}
        assert payload["circuit_breaker"] == {"state": "closed", "opens": 0}

    def test_healthz_without_breaker_reports_null(self, service):
        _status, payload = _get(service.url + "/healthz")
        assert payload["circuit_breaker"] is None
        assert payload["degraded_attrs"] == {}

    def test_healthz_surfaces_degraded_attrs_from_artifact(self, scorer):
        original = scorer.info
        scorer.info = dict(
            original,
            resilience={"degraded_attrs": {"City": ["labeling"]}},
        )
        try:
            svc = ScoringService(scorer, port=0).start()
            try:
                _status, payload = _get(svc.url + "/healthz")
                assert payload["degraded_attrs"] == {"City": ["labeling"]}
            finally:
                svc.stop()
        finally:
            scorer.info = original

    def test_artifact_endpoint_carries_resilience_block(self, service):
        _status, payload = _get(service.url + "/artifact")
        resilience = payload["resilience"]
        assert resilience["degraded_attrs"] == {}
        # PR 10: the fit's retry/breaker accounting rides along.
        assert resilience["fit_stats"]["failed_calls"] == 0


class _SlowScorer:
    """Duck-typed scorer wrapper with a controllable scoring delay —
    lets the tests hold the micro-batch worker busy on demand."""

    def __init__(self, inner: BatchScorer) -> None:
        self._inner = inner
        self.delay = 0.0

    def score_rows(self, rows, **kwargs):
        time.sleep(self.delay)
        return self._inner.score_rows(rows, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _post_headers(url: str, payload) -> tuple[int, dict, dict]:
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestCannotListen:
    """A port that is taken or out of range fails as a config error,
    with nothing left running: the socket is bound before any lane or
    worker starts."""

    @pytest.fixture
    def busy_port(self):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        yield holder.getsockname()[1]
        holder.close()

    @staticmethod
    def _lanes() -> set:
        return {
            t for t in threading.enumerate()
            if t.name.startswith("score-lane-")
        }

    def test_constructor_raises_config_error_and_starts_no_lane(
        self, scorer, busy_port
    ):
        before = self._lanes()
        with pytest.raises(ConfigError, match=f"cannot listen on "
                           f"127.0.0.1:{busy_port}"):
            ScoringService(scorer, port=busy_port)
        assert self._lanes() <= before

    def test_out_of_range_port_is_a_config_error(self, scorer):
        with pytest.raises(ConfigError, match="port must be 0-65535"):
            ScoringService(scorer, port=70000)

    def test_cli_serve_exits_3_with_one_json_line(
        self, artifact_path, busy_port, capsys
    ):
        from repro import cli

        code = cli.main(
            ["serve", "--artifact", str(artifact_path),
             "--port", str(busy_port)]
        )
        assert code == 3
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "config_error"


class TestResilience:
    """PR 8: load shedding, deadlines, drain, /readyz, hot reload."""

    def test_readyz_distinct_from_healthz(self, service):
        status, payload = _get(service.url + "/readyz")
        assert status == 200
        assert payload == {"ready": True}
        status, payload = _get(service.url + "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_healthz_carries_resilience_counters(self, service):
        _status, payload = _get(service.url + "/healthz")
        for key in ("shed", "deadline_expired", "reloads", "queued_rows"):
            assert key in payload

    def test_overflowing_request_is_shed_with_retry_after(self, scorer):
        svc = ScoringService(scorer, port=0, max_queue_rows=2).start()
        try:
            attr = scorer.attributes[0]
            status, payload, headers = _post_headers(
                svc.url + "/score", {"rows": [{attr: "v"}] * 3}
            )
            assert status == 503
            assert payload["code"] == "overloaded"
            assert int(headers["Retry-After"]) >= 1
            _status, health = _get(svc.url + "/healthz")
            assert health["shed"] == 1
            # Admitted requests are untouched by the shed one.
            status, payload = _post(
                svc.url + "/score", {"rows": [{attr: "v"}]}
            )
            assert status == 200 and len(payload["flags"]) == 1
        finally:
            svc.stop()

    def test_expired_deadline_gets_504(self, scorer):
        slow = _SlowScorer(scorer)
        svc = ScoringService(slow, port=0, deadline_s=0.15).start()
        try:
            attr = scorer.attributes[0]
            # Hold the single batch worker busy so the next request
            # waits past its deadline in the queue.
            slow.delay = 1.0
            blocker = threading.Thread(
                target=_post, args=(svc.url + "/score", {"rows": [{attr: "a"}]})
            )
            blocker.start()
            time.sleep(0.1)  # let the blocker enter the worker
            status, payload = _post(
                svc.url + "/score", {"rows": [{attr: "b"}]}
            )
            blocker.join(timeout=30)
            assert status == 504
            assert payload["code"] == "deadline_exceeded"
            _status, health = _get(svc.url + "/healthz")
            assert health["deadline_expired"] >= 1
        finally:
            slow.delay = 0.0
            svc.stop()

    def test_payload_deadline_tightens_the_default(self, scorer):
        svc = ScoringService(scorer, port=0).start()
        try:
            status, payload = _post(
                svc.url + "/score", {"rows": [], "deadline_s": -1}
            )
            assert status == 400 and payload["code"] == "bad_request"
            status, payload = _post(
                svc.url + "/score", {"rows": [], "deadline_s": "soon"}
            )
            assert status == 400 and payload["code"] == "bad_request"
            status, _payload = _post(
                svc.url + "/score", {"rows": [], "deadline_s": 30}
            )
            assert status == 200
        finally:
            svc.stop()

    def test_drain_rejects_new_work_and_finishes_inflight(self, scorer):
        slow = _SlowScorer(scorer)
        svc = ScoringService(slow, port=0).start()
        attr = scorer.attributes[0]
        slow.delay = 0.5
        inflight: dict = {}

        def admitted() -> None:
            inflight["response"] = _post(
                svc.url + "/score", {"rows": [{attr: "v"}]}
            )

        worker = threading.Thread(target=admitted)
        worker.start()
        time.sleep(0.1)  # the request is now being scored
        drainer = threading.Thread(target=svc.drain, args=(10.0,))
        drainer.start()
        try:
            deadline = time.monotonic() + 2.0
            ready_status = None
            while time.monotonic() < deadline:
                if svc.draining:
                    ready_status, _body = _get(svc.url + "/readyz")
                    break
                time.sleep(0.01)
            assert ready_status == 503
            status, payload = _post(
                svc.url + "/score", {"rows": [{attr: "v"}]}
            )
            assert status == 503 and payload["code"] == "overloaded"
            _status, health = _get(svc.url + "/healthz")
            assert health["status"] == "draining"
        finally:
            worker.join(timeout=30)
            drainer.join(timeout=30)
        # The in-flight request was answered normally, not dropped.
        status, payload = inflight["response"]
        assert status == 200 and len(payload["flags"]) == 1

    def test_reload_swaps_the_artifact(self, artifact_path):
        svc = ScoringService.from_artifacts([artifact_path], port=0).start()
        try:
            before = svc.scorer
            status, payload = _post(svc.url + "/reload", {})
            assert status == 200
            assert payload["reloaded"] is True
            assert payload["artifact"] == str(artifact_path)
            assert payload["arrays_sha256"]
            assert svc.scorer is not before  # freshly loaded instance
            # Scoring still answers, bit-identically, after the swap.
            attr = svc.scorer.attributes[0]
            status, scored = _post(
                svc.url + "/score", {"rows": [{attr: "v"}]}
            )
            assert status == 200 and len(scored["flags"]) == 1
            _status, health = _get(svc.url + "/healthz")
            assert health["reloads"] == 1
        finally:
            svc.stop()

    def test_reload_missing_artifact_is_rejected(self, artifact_path):
        svc = ScoringService.from_artifacts([artifact_path], port=0).start()
        try:
            before = svc.scorer
            status, payload = _post(
                svc.url + "/reload", {"artifact": "/no/such/artifact"}
            )
            assert status == 400
            assert payload["code"] == "bad_request"
            assert svc.scorer is before  # old scorer keeps serving
        finally:
            svc.stop()

    def test_reload_without_a_path_is_rejected(self, scorer):
        svc = ScoringService(scorer, port=0).start()  # live, no artifact
        try:
            status, payload = _post(svc.url + "/reload", {})
            assert status == 400 and payload["code"] == "bad_request"
        finally:
            svc.stop()

    @pytest.mark.parametrize("n_artifacts", [1, 2])
    def test_reload_schema_mismatch_is_rejected(
        self, artifact_path, monkeypatch, n_artifacts
    ):
        from types import SimpleNamespace

        svc = ScoringService.from_artifacts(
            [artifact_path, V1_FLIGHTS][:n_artifacts], port=0
        )
        before = svc.scorer
        monkeypatch.setattr(
            BatchScorer,
            "from_artifact",
            classmethod(
                lambda cls, path, n_jobs=None: SimpleNamespace(
                    attributes=["other", "schema"]
                )
            ),
        )
        from repro.errors import ArtifactError

        with pytest.raises(ArtifactError, match="schema mismatch"):
            svc.reload_artifact()
        assert svc.scorer is before
        svc.stop()


class TestKeepAlive:
    """PR 9 satellite: HTTP/1.1 connection reuse.

    The handler sets ``protocol_version = "HTTP/1.1"`` and every
    response carries Content-Length — pin that two requests actually
    flow over one TCP connection (a per-request close would make the
    second request fail or the server hang)."""

    def test_two_requests_on_one_connection(self, service, hospital):
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            for i in range(2):
                body = json.dumps({"rows": [hospital.dirty.row(i)]})
                conn.request(
                    "POST", "/score", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200
                assert payload["n_rows"] == 1
                # HTTP/1.1 + Content-Length => the server leaves the
                # connection open; http.client raises on reuse of a
                # closed one, so reaching i=1 proves reuse.
                assert resp.version == 11
                assert resp.getheader("Content-Length") is not None
        finally:
            conn.close()

    def test_error_responses_keep_the_connection(self, service):
        import http.client

        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/score", body=json.dumps({"rows": "nope"}),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 400
            # A 4xx must not kill the keep-alive: the next request on
            # the same socket still answers.
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        finally:
            conn.close()


class TestArtifactStreaming:
    """PR 9 satellite: GET /artifact/arrays streams the bulk file."""

    def test_streamed_bytes_equal_the_file(self, artifact_path):
        from repro.serving.artifact import ARRAYS_NAME

        svc = ScoringService.from_artifacts([artifact_path], port=0).start()
        try:
            with urllib.request.urlopen(
                svc.url + "/artifact/arrays", timeout=30
            ) as resp:
                assert resp.status == 200
                assert (
                    resp.headers["Content-Type"]
                    == "application/octet-stream"
                )
                data = resp.read()
        finally:
            svc.stop()
        on_disk = (artifact_path / ARRAYS_NAME).read_bytes()
        assert data == on_disk

    def test_no_artifact_path_404s(self, scorer):
        svc = ScoringService(scorer, port=0).start()  # live, no artifact
        try:
            status, payload = _get(svc.url + "/artifact/arrays")
            assert status == 404
            assert payload["code"] == "not_found"
        finally:
            svc.stop()


class TestWorkers:
    """PR 9 tentpole: process-pool scoring, byte-identical masks."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_masks_byte_identical_across_worker_counts(
        self, artifact_path, scorer, hospital, workers
    ):
        rows = [hospital.dirty.row(i) for i in range(24)]
        expected = scorer.score_rows(rows).mask.matrix.tolist()
        svc = ScoringService.from_artifacts(
            [artifact_path], workers=workers, port=0
        ).start()
        try:
            status, payload = _post(svc.url + "/score", {"rows": rows})
            assert status == 200
            assert payload["flags"] == expected
            status, health = _get(svc.url + "/healthz")
            assert health["workers"] == workers
        finally:
            svc.stop()

    def test_worker_reload_picks_up_new_checksum(
        self, artifact_path, scorer, hospital, tmp_path
    ):
        """A hot reload to a different artifact path must make workers
        score with the *new* artifact on their next batch (the worker
        cache is validated by arrays_sha256, not just path)."""
        rows = [hospital.dirty.row(i) for i in range(10)]
        expected = scorer.score_rows(rows).mask.matrix.tolist()
        svc = ScoringService.from_artifacts(
            [artifact_path], workers=1, port=0
        ).start()
        try:
            status, first = _post(svc.url + "/score", {"rows": rows})
            assert status == 200 and first["flags"] == expected
            # Same-schema artifact at a new path (a copy is the
            # cheapest same-schema artifact there is).
            import shutil

            clone = tmp_path / "clone"
            shutil.copytree(artifact_path, clone)
            status, reloaded = _post(
                svc.url + "/reload", {"artifact": str(clone)}
            )
            assert status == 200 and reloaded["reloaded"] is True
            status, second = _post(svc.url + "/score", {"rows": rows})
            assert status == 200 and second["flags"] == expected
        finally:
            svc.stop()

    def test_worker_scorer_cache_validates_sha(self, artifact_path):
        """Worker-side cache unit semantics, run in-process: repeated
        lookups hit the cache, a checksum the front didn't expect is an
        integrity error, a stale cached checksum forces a reload."""
        from repro.errors import ArtifactError
        from repro.serving import workers as w

        w._RESIDENT.clear()
        try:
            first = w._worker_scorer(str(artifact_path), None)
            sha = first.info["arrays_sha256"]
            again = w._worker_scorer(str(artifact_path), sha)
            assert again is first  # cache hit, no reload
            with pytest.raises(ArtifactError, match="checksum"):
                w._worker_scorer(str(artifact_path), "0" * 64)
            # Stale cache entry (sha changed under the same path):
            # the lookup drops it and loads fresh.
            w._RESIDENT[str(artifact_path)] = ("stale", first)
            fresh = w._worker_scorer(str(artifact_path), sha)
            assert fresh is not first
            assert fresh.info["arrays_sha256"] == sha
        finally:
            w._RESIDENT.clear()
