"""PR 9: multi-tenant artifact registry + v1 artifact back-compat.

Two fitted datasets behind one service: routing by schema fingerprint
or dataset name must hit the right scorer (masks pinned against each
dataset's own ``BatchScorer``), ``/healthz`` must expose residency and
eviction counters, and ``POST /reload`` must behave as a registry
upsert.  The checked-in miniature **v1** artifact
(``tests/data/flights_v1_artifact``) pins the back-compat contract:
old uncompressed artifacts load, score byte-identically to the flags
frozen at fixture-creation time, and round-trip through ``/reload``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.registry import get_dataset
from repro.errors import ArtifactError
from repro.serving.artifact import ARTIFACT_VERSION, DetectorArtifact
from repro.serving.registry import ArtifactRegistry
from repro.serving.scorer import BatchScorer
from repro.serving.service import ScoringService

from test_serving_service import _get, _post

FIXTURE_DIR = Path(__file__).parent / "data"
V1_ARTIFACT = FIXTURE_DIR / "flights_v1_artifact"
V1_EXPECTED = FIXTURE_DIR / "flights_v1_expected.json"

_SMALL = dict(
    label_rate=0.1,
    mlp_epochs=8,
    criteria_sample_size=20,
    embedding_dim=8,
    seed=0,
)


@pytest.fixture(scope="module")
def hospital_pair():
    return get_dataset("hospital").make(n_rows=120, seed=7)


@pytest.fixture(scope="module")
def flights_pair():
    return get_dataset("flights").make(n_rows=100, seed=3)


@pytest.fixture(scope="module")
def hospital_artifact(hospital_pair, tmp_path_factory):
    fitted = ZeroED(ZeroEDConfig(**_SMALL)).fit(hospital_pair.dirty)
    return fitted.save(tmp_path_factory.mktemp("reg") / "hospital")


@pytest.fixture(scope="module")
def flights_artifact(flights_pair, tmp_path_factory):
    fitted = ZeroED(ZeroEDConfig(**_SMALL)).fit(flights_pair.dirty)
    return fitted.save(tmp_path_factory.mktemp("reg") / "flights")


def _rows(pair, n):
    return [pair.dirty.row(i) for i in range(n)]


class TestRegistryUnit:
    def test_upsert_get_and_counters(self, hospital_artifact):
        registry = ArtifactRegistry()
        entry = registry.upsert(hospital_artifact)
        assert entry.dataset == "hospital"
        assert entry.resident_bytes > 0
        hit = registry.get(entry.fingerprint)
        assert hit is entry
        snap = registry.snapshot()
        assert snap["hits"] == 1 and snap["loads"] == 1
        assert snap["evictions"] == 0
        assert [e["dataset"] for e in snap["resident"]] == ["hospital"]

    def test_unknown_fingerprint_rejected(self, hospital_artifact):
        registry = ArtifactRegistry()
        registry.upsert(hospital_artifact)
        with pytest.raises(ArtifactError, match="no artifact registered"):
            registry.get("f" * 64)
        with pytest.raises(ArtifactError, match="no resident artifact"):
            registry.by_dataset("no-such-dataset")

    def test_same_fingerprint_upsert_replaces(self, hospital_artifact):
        registry = ArtifactRegistry()
        first = registry.upsert(hospital_artifact)
        second = registry.upsert(hospital_artifact)
        assert second.fingerprint == first.fingerprint
        assert registry.fingerprints() == [first.fingerprint]
        assert registry.snapshot()["loads"] == 2

    def test_budget_evicts_lru_and_miss_reloads(
        self, hospital_artifact, flights_artifact
    ):
        """A budget below the pair's footprint keeps only the newest
        tenant resident; a request for the evicted one is a miss that
        reloads transparently from its remembered path."""
        probe = ArtifactRegistry()
        h_bytes = probe.upsert(hospital_artifact).resident_bytes
        f_bytes = probe.upsert(flights_artifact).resident_bytes

        registry = ArtifactRegistry(budget_bytes=max(h_bytes, f_bytes) + 1)
        h_entry = registry.upsert(hospital_artifact)
        f_entry = registry.upsert(flights_artifact)
        snap = registry.snapshot()
        assert snap["evictions"] == 1
        assert [e["dataset"] for e in snap["resident"]] == ["flights"]
        assert snap["known"] == 2  # the evicted path is remembered
        # Transparent reload on the miss — same fingerprint, fresh load.
        back = registry.get(h_entry.fingerprint)
        assert back.fingerprint == h_entry.fingerprint
        snap = registry.snapshot()
        assert snap["misses"] == 1 and snap["loads"] == 3
        # ...which pushed the registry over budget again: flights (now
        # the least recently used) was evicted in turn.
        assert [e["dataset"] for e in snap["resident"]] == ["hospital"]
        assert registry.get(f_entry.fingerprint).dataset == "flights"

    def test_pinned_entry_survives_pressure(
        self, hospital_artifact, flights_artifact
    ):
        registry = ArtifactRegistry(budget_bytes=1)
        h_entry = registry.upsert(hospital_artifact)
        registry.pin(h_entry.fingerprint)
        registry.upsert(flights_artifact)
        resident = {
            e["dataset"] for e in registry.snapshot()["resident"]
        }
        # Over budget, but the pinned default and the entry being
        # inserted are both exempt — nothing evictable remains.
        assert "hospital" in resident

    def test_bad_budget_rejected(self):
        with pytest.raises(ArtifactError, match="budget"):
            ArtifactRegistry(budget_bytes=0)


class TestRegistryService:
    @pytest.fixture(scope="class")
    def service(self, hospital_artifact, flights_artifact):
        svc = ScoringService.from_artifacts(
            [hospital_artifact, flights_artifact], port=0
        ).start()
        yield svc
        svc.stop()

    def test_two_datasets_route_correctly(
        self, service, hospital_pair, flights_pair,
        hospital_artifact, flights_artifact,
    ):
        h_rows, f_rows = _rows(hospital_pair, 20), _rows(flights_pair, 15)
        h_expected = (
            BatchScorer.from_artifact(hospital_artifact)
            .score_rows(h_rows).mask.matrix.tolist()
        )
        f_expected = (
            BatchScorer.from_artifact(flights_artifact)
            .score_rows(f_rows).mask.matrix.tolist()
        )
        # Default tenant: the first artifact (hospital).
        status, payload = _post(service.url + "/score", {"rows": h_rows})
        assert status == 200 and payload["flags"] == h_expected
        # Route by dataset name.
        status, payload = _post(
            service.url + "/score",
            {"rows": f_rows, "dataset": "flights"},
        )
        assert status == 200 and payload["flags"] == f_expected
        fingerprint = payload["fingerprint"]
        # Route by explicit fingerprint.
        status, payload = _post(
            service.url + "/score",
            {"rows": f_rows, "fingerprint": fingerprint},
        )
        assert status == 200 and payload["flags"] == f_expected

    def test_healthz_reports_residency(self, service):
        status, health = _get(service.url + "/healthz")
        assert status == 200
        registry = health["registry"]
        assert {e["dataset"] for e in registry["resident"]} == {
            "hospital", "flights",
        }
        assert registry["evictions"] == 0
        assert registry["hits"] >= 1
        assert registry["resident_bytes"] > 0

    def test_unknown_routes_rejected(self, service, hospital_pair):
        rows = _rows(hospital_pair, 1)
        status, payload = _post(
            service.url + "/score",
            {"rows": rows, "fingerprint": "f" * 64},
        )
        assert status == 400 and payload["code"] == "bad_request"
        status, payload = _post(
            service.url + "/score",
            {"rows": rows, "dataset": "nope"},
        )
        assert status == 400 and payload["code"] == "bad_request"

    def test_reload_is_an_upsert(self, service, flights_artifact):
        """Reloading an artifact whose schema differs from the default
        tenant must *add/replace* a tenant, not 400 — the registry owns
        the wire contract per-fingerprint."""
        status, payload = _post(
            service.url + "/reload", {"artifact": str(flights_artifact)}
        )
        assert status == 200
        assert payload["reloaded"] is True
        assert payload["resident"] == 2
        assert payload["fingerprint"]


class TestDefaultTenant:
    """Every service is a registry whose default tenant is pinned as it
    is inserted; tenants stay routable by dataset after eviction."""

    def test_default_is_resident_and_pinned_at_start(
        self, hospital_artifact, flights_artifact, hospital_pair
    ):
        probe = ArtifactRegistry()
        h_bytes = probe.upsert(hospital_artifact).resident_bytes
        f_bytes = probe.upsert(flights_artifact).resident_bytes
        svc = ScoringService.from_artifacts(
            [hospital_artifact, flights_artifact],
            budget_bytes=max(h_bytes, f_bytes) + 1,
            port=0,
        ).start()
        try:
            before = svc.registry.snapshot()
            resident = {e["dataset"]: e for e in before["resident"]}
            assert resident["hospital"]["pinned"] is True
            status, _payload = _post(
                svc.url + "/score", {"rows": _rows(hospital_pair, 1)}
            )
            assert status == 200
            after = svc.registry.snapshot()
            assert after["misses"] == 0
            assert after["hits"] > before["hits"]
        finally:
            svc.stop()

    def test_dataset_routes_to_an_evicted_tenant(
        self, hospital_artifact, flights_artifact, hospital_pair
    ):
        rows = _rows(hospital_pair, 10)
        expected = (
            BatchScorer.from_artifact(hospital_artifact)
            .score_rows(rows).mask.matrix.tolist()
        )
        svc = ScoringService.from_artifacts(
            [flights_artifact, hospital_artifact], budget_bytes=1, port=0
        ).start()
        try:
            # Re-reading the pinned default evicts hospital, the only
            # evictable tenant under a 1-byte budget.
            status, _payload = _post(svc.url + "/reload", {})
            assert status == 200
            resident = svc.registry.snapshot()["resident"]
            assert [e["dataset"] for e in resident] == ["flights"]
            status, payload = _post(
                svc.url + "/score", {"rows": rows, "dataset": "hospital"}
            )
            assert status == 200 and payload["flags"] == expected
            assert svc.registry.snapshot()["misses"] == 1
        finally:
            svc.stop()

    def test_named_reload_of_a_new_schema_adds_a_tenant(
        self, hospital_artifact, flights_artifact, hospital_pair,
        flights_pair,
    ):
        """A one-artifact service is a registry of one: a different
        schema reloaded by name adds a tenant, and unrouted requests
        keep the default's flags."""
        scorer = BatchScorer.from_artifact(hospital_artifact)
        h_rows, f_rows = _rows(hospital_pair, 10), _rows(flights_pair, 10)
        h_expected = scorer.score_rows(h_rows).mask.matrix.tolist()
        f_expected = (
            BatchScorer.from_artifact(flights_artifact)
            .score_rows(f_rows).mask.matrix.tolist()
        )
        svc = ScoringService(
            scorer, artifact_path=hospital_artifact, port=0
        ).start()
        try:
            status, payload = _post(
                svc.url + "/reload", {"artifact": str(flights_artifact)}
            )
            assert status == 200 and payload["resident"] == 2
            assert payload["fingerprint"] != svc.default_fingerprint
            status, payload = _post(svc.url + "/score", {"rows": h_rows})
            assert status == 200 and payload["flags"] == h_expected
            assert payload["fingerprint"] == svc.default_fingerprint
            status, payload = _post(
                svc.url + "/score", {"rows": f_rows, "dataset": "flights"}
            )
            assert status == 200 and payload["flags"] == f_expected
        finally:
            svc.stop()


class TestServeCommand:
    """``repro serve`` with two artifacts and a budget, as a process."""

    def test_two_artifacts_route_and_drain_on_sigterm(
        self, hospital_artifact, flights_artifact, flights_pair
    ):
        rows = _rows(flights_pair, 5)
        expected = (
            BatchScorer.from_artifact(flights_artifact)
            .score_rows(rows).mask.matrix.tolist()
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifact", str(hospital_artifact),
                "--artifact", str(flights_artifact),
                "--registry-budget-mb", "64", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            url = None
            for line in proc.stdout:
                if line.startswith("serving artifact") and " on " in line:
                    url = line.rsplit(" on ", 1)[1].strip()
                    break
            assert url, "repro serve exited before announcing its URL"
            status, payload = _get(url + "/readyz")
            assert status == 200 and payload == {"ready": True}
            status, payload = _post(
                url + "/score", {"rows": rows, "dataset": "flights"}
            )
            assert status == 200 and payload["flags"] == expected
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()


class TestV1BackCompat:
    """The checked-in miniature v1 artifact is the frozen past: every
    future format change must keep loading it bit-for-bit."""

    def test_fixture_is_version_1(self):
        manifest = json.loads(
            (V1_ARTIFACT / "manifest.json").read_text()
        )
        assert manifest["version"] == 1
        assert ARTIFACT_VERSION >= 2  # the default moved on; v1 must not rot

    def test_v1_loads_and_scores_byte_identically(self):
        expected = json.loads(V1_EXPECTED.read_text())
        scorer = BatchScorer.from_artifact(V1_ARTIFACT)
        flags = scorer.score_rows(expected["rows"]).mask.matrix.tolist()
        assert flags == expected["flags"]

    def test_v1_resaved_as_v2_scores_identically(self, tmp_path):
        expected = json.loads(V1_EXPECTED.read_text())
        artifact = DetectorArtifact.load(V1_ARTIFACT)
        v2_path = tmp_path / "v2"
        artifact.save(v2_path)  # default = current version (2)
        manifest = json.loads((v2_path / "manifest.json").read_text())
        assert manifest["version"] == ARTIFACT_VERSION
        flags = (
            BatchScorer.from_artifact(v2_path)
            .score_rows(expected["rows"]).mask.matrix.tolist()
        )
        assert flags == expected["flags"]

    def test_v1_round_trips_through_reload(self, flights_artifact):
        """A service born from a v2 flights artifact hot-reloads the v1
        fixture (same schema) and serves its flags."""
        expected = json.loads(V1_EXPECTED.read_text())
        svc = ScoringService.from_artifacts([flights_artifact], port=0).start()
        try:
            status, payload = _post(
                svc.url + "/reload", {"artifact": str(V1_ARTIFACT)}
            )
            assert status == 200 and payload["reloaded"] is True
            status, payload = _post(
                svc.url + "/score", {"rows": expected["rows"]}
            )
            assert status == 200
            assert payload["flags"] == expected["flags"]
        finally:
            svc.stop()

    def test_v1_serves_under_a_worker_pool(self):
        """Workers must load v1 artifacts too — back-compat extends to
        the process-pool path."""
        expected = json.loads(V1_EXPECTED.read_text())
        svc = ScoringService.from_artifacts(
            [V1_ARTIFACT], workers=1, port=0
        ).start()
        try:
            status, payload = _post(
                svc.url + "/score", {"rows": expected["rows"]}
            )
            assert status == 200
            assert payload["flags"] == expected["flags"]
        finally:
            svc.stop()
