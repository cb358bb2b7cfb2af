"""PR 5 serving subsystem: fit/score split, artifacts, batch scoring.

Pinned properties:

* **Fit/score equivalence** — ``ZeroED.detect`` is exactly
  ``fit().score(table)``: masks, stages, token accounting and details
  all match the single-shot path (the seed-mask hashes in
  ``tests/test_feature_equivalence.py`` stay valid unmodified).
* **Artifact round-trip** — save → load → score is bitwise equal to
  the in-memory scorer, on the training table and on unseen rows, with
  zero LLM calls either way.
* **Clean failure** — corrupted manifests, checksum-mismatched arrays,
  unsupported versions and schema mismatches raise ``ArtifactError``,
  never stack traces from deeper layers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.pipeline import FittedZeroED, ZeroED
from repro.data.registry import get_dataset
from repro.errors import ArtifactError
from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    DetectorArtifact,
)
from repro.serving.scorer import BatchScorer


def _mask_hash(result) -> str:
    return hashlib.sha256(result.mask.matrix.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def hospital():
    return get_dataset("hospital").make(n_rows=150, seed=7)


@pytest.fixture(scope="module")
def hospital_other():
    """A disjoint slice: unseen rows for foreign-table scoring."""
    return get_dataset("hospital").make(n_rows=80, seed=23)


@pytest.fixture(scope="module")
def config():
    return ZeroEDConfig(
        label_rate=0.1,
        mlp_epochs=8,
        criteria_sample_size=20,
        embedding_dim=8,
        seed=0,
    )


@pytest.fixture(scope="module")
def fitted(hospital, config) -> FittedZeroED:
    return ZeroED(config).fit(hospital.dirty)


@pytest.fixture(scope="module")
def artifact_dir(fitted, tmp_path_factory):
    return fitted.save(tmp_path_factory.mktemp("artifact") / "detector")


class TestFitScoreSplit:
    def test_detect_equals_fit_then_score(self, hospital, config):
        detected = ZeroED(config).detect(hospital.dirty)
        fitted = ZeroED(config).fit(hospital.dirty)
        scored = fitted.score(hospital.dirty)
        assert _mask_hash(detected) == _mask_hash(scored)
        assert [s.name for s in detected.stages] == [
            s.name for s in scored.stages
        ]
        assert detected.input_tokens == scored.input_tokens
        assert detected.n_llm_requests == scored.n_llm_requests
        assert detected.details == scored.details

    def test_fit_stages_exclude_predict(self, fitted):
        names = [s.name for s in fitted.stages]
        assert "train_detector" in names
        assert "predict" not in names

    def test_score_appends_predict_stage(self, fitted, hospital):
        result = fitted.score(hospital.dirty)
        assert [s.name for s in result.stages][-1] == "predict"

    def test_fitted_exposes_schema(self, fitted, hospital):
        assert fitted.attributes == hospital.dirty.attributes

    def test_score_foreign_table_zero_llm_calls(
        self, fitted, hospital_other
    ):
        before = fitted.llm.ledger.summary()["requests"]
        result = fitted.score(hospital_other.dirty)
        assert fitted.llm.ledger.summary()["requests"] == before
        assert result.mask.n_rows == hospital_other.dirty.n_rows
        assert result.details["serving"] is True

    @pytest.mark.parametrize("engine", ["exact", "fast"])
    def test_split_equivalence_per_engine(self, hospital, config, engine):
        cfg = dataclasses.replace(
            config, sampling_engine=engine, detector_engine=engine
        )
        detected = ZeroED(cfg).detect(hospital.dirty)
        scored = ZeroED(cfg).fit(hospital.dirty).score(hospital.dirty)
        assert _mask_hash(detected) == _mask_hash(scored)


class TestArtifactRoundTrip:
    def test_files_written(self, artifact_dir):
        assert (artifact_dir / "manifest.json").is_file()
        assert (artifact_dir / "arrays.npz").is_file()
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["version"] == ARTIFACT_VERSION
        assert manifest["arrays_sha256"]
        assert manifest["train_rows"] == 150

    def test_loaded_scorer_bitwise_equals_in_memory(
        self, fitted, artifact_dir, hospital
    ):
        in_memory = fitted.score(hospital.dirty)
        loaded = BatchScorer.from_artifact(artifact_dir)
        from_disk = loaded.score_table(hospital.dirty)
        assert _mask_hash(in_memory) == _mask_hash(from_disk)

    def test_loaded_scorer_matches_on_unseen_rows(
        self, fitted, artifact_dir, hospital_other
    ):
        in_memory = fitted.scorer().score_table(hospital_other.dirty)
        from_disk = BatchScorer.from_artifact(artifact_dir).score_table(
            hospital_other.dirty
        )
        np.testing.assert_array_equal(
            in_memory.mask.matrix, from_disk.mask.matrix
        )

    def test_score_rows_matches_score_table(
        self, artifact_dir, hospital_other
    ):
        scorer = BatchScorer.from_artifact(artifact_dir)
        table = hospital_other.dirty
        rows = [table.row(i) for i in range(table.n_rows)]
        by_rows = scorer.score_rows(rows)
        by_table = scorer.score_table(table)
        np.testing.assert_array_equal(
            by_rows.mask.matrix, by_table.mask.matrix
        )

    def test_missing_attributes_become_empty_cells(self, artifact_dir):
        scorer = BatchScorer.from_artifact(artifact_dir)
        partial = [{scorer.attributes[0]: "x"}]
        table = scorer.rows_to_table(partial)
        assert table.cell(0, scorer.attributes[1]) == ""

    def test_jobs_override_does_not_change_masks(
        self, artifact_dir, hospital_other
    ):
        serial = BatchScorer.from_artifact(artifact_dir, n_jobs=1)
        threaded = BatchScorer.from_artifact(artifact_dir, n_jobs=4)
        np.testing.assert_array_equal(
            serial.score_table(hospital_other.dirty).mask.matrix,
            threaded.score_table(hospital_other.dirty).mask.matrix,
        )

    @pytest.mark.parametrize("engine", ["exact", "fast"])
    def test_v2_arrays_smaller_than_decoded(
        self, hospital, config, engine, tmp_path
    ):
        """Pooled strings, downcasts and deflate put fewer bytes on
        disk than the loaded scorer holds decoded (a raw v1 bundle of
        the same arrays is larger than its decoded bytes)."""
        cfg = dataclasses.replace(
            config, sampling_engine=engine, detector_engine=engine
        )
        path = ZeroED(cfg).fit(hospital.dirty).save(tmp_path / "artifact")
        decoded = BatchScorer.from_artifact(path).info["decoded_bytes"]
        assert (path / "arrays.npz").stat().st_size < decoded

    def test_manifest_records_criteria_accuracies(self, artifact_dir):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        specs = [
            crit
            for per in manifest["per_attribute"]
            for crit in per["criteria"]
        ]
        assert specs, "expected at least one persisted criterion"
        assert any(
            isinstance(c["accuracy"], float) and c["accuracy"] >= 0.5
            for c in specs
        )


def _copy_artifact(artifact_dir, tmp_path):
    target = tmp_path / "copy"
    target.mkdir()
    for name in ("manifest.json", "arrays.npz"):
        (target / name).write_bytes((artifact_dir / name).read_bytes())
    return target


class TestArtifactErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError):
            DetectorArtifact.load(tmp_path / "nope")

    def test_corrupted_manifest(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        (broken / "manifest.json").write_text("{not json at all")
        with pytest.raises(ArtifactError, match="not a valid manifest"):
            BatchScorer.from_artifact(broken)

    def test_wrong_format(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format"):
            BatchScorer.from_artifact(broken)

    def test_unsupported_version(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["version"] = ARTIFACT_VERSION + 1
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="version"):
            BatchScorer.from_artifact(broken)

    def test_tampered_schema(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["attributes"] = manifest["attributes"][:-1]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="fingerprint"):
            BatchScorer.from_artifact(broken)

    def test_tampered_arrays(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        payload = bytearray((broken / "arrays.npz").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (broken / "arrays.npz").write_bytes(bytes(payload))
        with pytest.raises(ArtifactError, match="checksum"):
            BatchScorer.from_artifact(broken)

    def test_missing_arrays_file(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        (broken / "arrays.npz").unlink()
        with pytest.raises(ArtifactError):
            BatchScorer.from_artifact(broken)

    def test_broken_criterion_source(self, artifact_dir, tmp_path):
        broken = _copy_artifact(artifact_dir, tmp_path)
        manifest = json.loads((broken / "manifest.json").read_text())
        specs = [
            c for per in manifest["per_attribute"] for c in per["criteria"]
        ]
        assert specs
        specs[0]["source"] = "def nope(:\n    syntax error"
        (broken / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True)
        )
        with pytest.raises(ArtifactError):
            BatchScorer.from_artifact(broken)

    def test_schema_mismatch_at_score_time(self, artifact_dir):
        scorer = BatchScorer.from_artifact(artifact_dir)
        beers = get_dataset("beers").make(n_rows=30, seed=0)
        with pytest.raises(ArtifactError, match="schema mismatch"):
            scorer.score_table(beers.dirty)

    def test_unknown_attribute_in_rows(self, artifact_dir):
        scorer = BatchScorer.from_artifact(artifact_dir)
        with pytest.raises(ArtifactError, match="unknown attribute"):
            scorer.score_rows([{"no_such_column": "1"}])


class TestServingCLI:
    def test_fit_parses_shared_engine_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["fit", "hospital", "--artifact-out", "art",
             "--sampling-engine", "auto", "--detector-engine", "fast",
             "--jobs", "2", "--rows", "100"]
        )
        assert args.sampling_engine == "auto"
        assert args.detector_engine == "fast"
        assert args.jobs == 2

    def test_score_csv_parses_jobs_only(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["score-csv", "x.csv", "--artifact", "art", "--jobs", "3"]
        )
        assert args.jobs == 3
        assert not hasattr(args, "sampling_engine")

    def test_serve_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--artifact", "art", "--port", "0"]
        )
        assert args.port == 0

    def test_repair_accepts_config_flags_and_artifact(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["repair", "hospital", "--artifact", "art",
             "--detector-engine", "auto", "--jobs", "2",
             "--label-rate", "0.1"]
        )
        assert args.artifact == "art"
        assert args.detector_engine == "auto"
        assert args.jobs == 2

    def test_fit_and_score_csv_commands_run(
        self, tmp_path, capsys, hospital, config
    ):
        from repro.cli import main
        from repro.data.maskio import write_dataset

        write_dataset(hospital, tmp_path / "ds")
        rc = main(
            ["fit", "hospital", "--rows", "150", "--seed", "7",
             "--label-rate", "0.1", "--artifact-out",
             str(tmp_path / "art")]
        )
        assert rc == 0
        rc = main(
            ["score-csv", str(tmp_path / "ds" / "dirty.csv"),
             "--artifact", str(tmp_path / "art"),
             "--mask-out", str(tmp_path / "mask.json")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "zero LLM calls" in out
        assert (tmp_path / "mask.json").is_file()
