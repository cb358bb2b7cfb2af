"""PR 7 streaming layer: out-of-core sharded scoring and sampled fit.

Pinned properties:

* **Chunked/in-memory equivalence** — ``score_chunks`` over any shard
  size (1, 7, 100, > n_rows) and any worker count assembles a mask
  byte-identical to ``score_table`` on the whole table, on two
  datasets and for both detector engines, including a chunk boundary
  that splits a run of duplicate values (the unique-value fold's
  hardest case).
* **Shard-offset row ids** — scoring a shard with ``row_offset`` keeps
  the mask local but reports *global* error-cell row ids; the streaming
  manifest's offsets tile the stream exactly.
* **Sampled fit** — ``config.sample_rows`` makes the fit run on a
  seeded reservoir whose provenance rides into the artifact manifest
  (``"sample"``); pre-PR-7 manifests without the key still load.
* **Bounded memory** — the chunked CSV path's peak allocation stays
  far below the whole-table path's on the same file, and within a
  fixed multiple of one warm chunk however long the file is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tracemalloc

import pytest

from repro.config import ZeroEDConfig
from repro.core.pipeline import ZeroED
from repro.data.csvio import (
    append_csv_rows,
    iter_csv_chunks,
    read_csv,
    write_csv,
)
from repro.data.mask import ErrorMask
from repro.data.registry import get_dataset
from repro.data.table import Table
from repro.errors import ArtifactError, DataError, SchemaError
from repro.serving.scorer import BatchScorer
from repro.serving.streaming import (
    DEFAULT_CHUNK_ROWS,
    iter_table_chunks,
    reservoir_sample_chunks,
    reservoir_sample_csv,
    score_chunks,
)


def _sha(mask: ErrorMask) -> str:
    return hashlib.sha256(mask.matrix.tobytes()).hexdigest()


def _traced(fn):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes)."""
    tracemalloc.start()
    try:
        value = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


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
def hospital_scorer(config) -> BatchScorer:
    dirty = get_dataset("hospital").make(n_rows=150, seed=7).dirty
    return ZeroED(config).fit(dirty).scorer()


@pytest.fixture(scope="module")
def hospital_foreign() -> Table:
    return get_dataset("hospital").make(n_rows=97, seed=11).dirty


@pytest.fixture(scope="module")
def beers_scorer(config) -> BatchScorer:
    dirty = get_dataset("beers").make(n_rows=120, seed=3).dirty
    return ZeroED(config).fit(dirty).scorer()


@pytest.fixture(scope="module")
def beers_foreign() -> Table:
    return get_dataset("beers").make(n_rows=73, seed=19).dirty


@pytest.fixture(scope="module", params=["hospital", "beers"])
def fast_case(request, config) -> tuple[BatchScorer, Table]:
    """A fast-engine scorer fitted on the same slice as the exact
    fixture of its dataset, with that dataset's foreign table."""
    name = request.param
    n_rows, seed = {"hospital": (150, 7), "beers": (120, 3)}[name]
    dirty = get_dataset(name).make(n_rows=n_rows, seed=seed).dirty
    fast = dataclasses.replace(
        config, sampling_engine="fast", detector_engine="fast"
    )
    scorer = ZeroED(fast).fit(dirty).scorer()
    return scorer, request.getfixturevalue(f"{name}_foreign")


def _assert_chunked_equals_whole(scorer, table, chunk_rows, jobs):
    whole = scorer.score_table(table)
    chunked = score_chunks(
        scorer,
        iter_table_chunks(table, chunk_rows),
        chunk_rows=chunk_rows,
        n_jobs=jobs,
    )
    assert _sha(chunked.mask) == _sha(whole.mask)
    assert chunked.mask.attributes == whole.mask.attributes
    assert chunked.total_rows == table.n_rows


class TestChunkedEquivalence:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 1000])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_hospital_byte_identical(
        self, hospital_scorer, hospital_foreign, chunk_rows, jobs
    ):
        _assert_chunked_equals_whole(
            hospital_scorer, hospital_foreign, chunk_rows, jobs
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 1000])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_beers_byte_identical(
        self, beers_scorer, beers_foreign, chunk_rows, jobs
    ):
        _assert_chunked_equals_whole(
            beers_scorer, beers_foreign, chunk_rows, jobs
        )

    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 1000])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fast_engine_byte_identical(self, fast_case, chunk_rows, jobs):
        """The fast engine predicts once per unique key per shard, so
        its shard masks must not depend on which rows share a shard."""
        scorer, table = fast_case
        assert scorer.detector.engine == "fast"
        _assert_chunked_equals_whole(scorer, table, chunk_rows, jobs)

    def test_duplicate_run_split_by_boundary(
        self, hospital_scorer, hospital_foreign
    ):
        """A run of identical rows straddling a chunk boundary.

        The unique-value folds dedup within each shard; a duplicate run
        split across shards exercises the case where the same value is
        folded in two different contexts (different shard compositions)
        and must still produce identical per-row results.
        """
        dup = hospital_foreign.row_tuple(0)
        rows = [
            dup if 20 <= i < 40 else hospital_foreign.row_tuple(i)
            for i in range(hospital_foreign.n_rows)
        ]
        table = Table.from_rows(
            hospital_foreign.attributes, rows, name="dup-run"
        )
        whole = hospital_scorer.score_table(table)
        # chunk_rows=25 puts the boundary at row 25, mid-run (20..39).
        for chunk_rows in (25, 7):
            chunked = score_chunks(
                hospital_scorer,
                iter_table_chunks(table, chunk_rows),
                chunk_rows=chunk_rows,
                n_jobs=2,
            )
            assert _sha(chunked.mask) == _sha(whole.mask)
        # All duplicate rows carry identical mask rows.
        first = whole.mask.matrix[20]
        assert (whole.mask.matrix[20:40] == first).all()

    def test_empty_stream_yields_empty_mask(self, hospital_scorer):
        result = score_chunks(hospital_scorer, iter([]), n_jobs=2)
        assert result.total_rows == 0
        assert result.shards == []
        assert result.mask.attributes == hospital_scorer.attributes

    def test_schema_mismatch_raises(self, hospital_scorer):
        bad = Table.from_rows(["not", "the", "schema"], [["1", "2", "3"]])
        with pytest.raises(ArtifactError):
            score_chunks(hospital_scorer, iter_table_chunks(bad, 1))


class TestManifest:
    def test_shard_bookkeeping_tiles_the_stream(
        self, hospital_scorer, hospital_foreign, tmp_path
    ):
        result = score_chunks(
            hospital_scorer,
            iter_table_chunks(hospital_foreign, 30),
            chunk_rows=30,
            n_jobs=2,
        )
        manifest = result.manifest()
        assert manifest["format"] == "zeroed-streaming-score-manifest"
        assert manifest["total_rows"] == hospital_foreign.n_rows
        assert manifest["n_shards"] == len(result.shards) == 4
        # Offsets tile the stream: contiguous, no gaps, no overlap.
        offset = 0
        for shard in manifest["shards"]:
            assert shard["row_offset"] == offset
            offset += shard["n_rows"]
        assert offset == manifest["total_rows"]
        # Per-shard checksums recompute from the assembled mask slices.
        for shard in result.shards:
            sl = result.mask.matrix[
                shard.row_offset : shard.row_offset + shard.n_rows
            ]
            assert (
                hashlib.sha256(sl.tobytes()).hexdigest() == shard.mask_sha256
            )
        assert manifest["mask_sha256"] == _sha(result.mask)
        # JSON-serializable and round-trips through disk.
        out = result.write_manifest(tmp_path / "manifest.json")
        assert json.loads(out.read_text()) == json.loads(
            json.dumps(manifest)
        )

    def test_error_cell_totals_match(self, hospital_scorer, hospital_foreign):
        result = score_chunks(
            hospital_scorer, iter_table_chunks(hospital_foreign, 40)
        )
        assert (
            sum(s.error_cells for s in result.shards)
            == result.mask.error_count()
        )


class TestRowOffset:
    def test_offset_recorded_and_applied(
        self, hospital_scorer, hospital_foreign
    ):
        shard = hospital_foreign.select_rows(range(50, 97))
        result = hospital_scorer.score_table(shard, row_offset=50)
        assert result.details["row_offset"] == 50
        local = result.mask.error_cells()
        swept = result.error_cells()
        assert swept == [(i + 50, attr) for i, attr in local]
        # The global ids are exactly the whole-table ids for those rows.
        whole = hospital_scorer.score_table(hospital_foreign)
        whole_tail = [
            (i, attr) for i, attr in whole.error_cells() if i >= 50
        ]
        assert swept == whole_tail

    def test_default_offset_is_zero(self, hospital_scorer, hospital_foreign):
        result = hospital_scorer.score_table(hospital_foreign)
        assert result.details["row_offset"] == 0
        assert result.error_cells() == result.mask.error_cells()

    def test_negative_offset_rejected(
        self, hospital_scorer, hospital_foreign
    ):
        with pytest.raises(ArtifactError):
            hospital_scorer.score_table(hospital_foreign, row_offset=-1)

    def test_score_rows_offset(self, hospital_scorer, hospital_foreign):
        rows = [hospital_foreign.row(i) for i in range(3)]
        result = hospital_scorer.score_rows(rows, row_offset=1000)
        assert result.details["row_offset"] == 1000
        assert all(i >= 1000 for i, _ in result.error_cells())


class TestReservoir:
    def _table(self, n):
        return Table.from_rows(
            ["a", "b"],
            [[f"v{i % 5}", str(i)] for i in range(n)],
            name="synthetic",
        )

    def test_chunk_size_invariant(self):
        table = self._table(200)
        samples = [
            reservoir_sample_chunks(
                iter_table_chunks(table, c), 30, seed=4
            )
            for c in (1, 13, 64, 500)
        ]
        first = samples[0]
        for s in samples[1:]:
            assert s.indices == first.indices
            assert s.table == first.table

    def test_indices_sorted_and_rows_match(self):
        table = self._table(120)
        sample = reservoir_sample_chunks([table], 25, seed=0)
        assert sample.indices == sorted(sample.indices)
        assert len(set(sample.indices)) == 25
        for pos, idx in enumerate(sample.indices):
            assert sample.table.row_tuple(pos) == table.row_tuple(idx)

    def test_small_population_keeps_everything(self):
        table = self._table(8)
        sample = reservoir_sample_chunks([table], 50, seed=1)
        assert sample.table == table
        assert sample.indices == list(range(8))
        assert sample.total_rows == 8

    def test_seed_changes_sample(self):
        table = self._table(300)
        a = reservoir_sample_chunks([table], 20, seed=0)
        b = reservoir_sample_chunks([table], 20, seed=1)
        assert a.indices != b.indices

    def test_provenance_fields(self, tmp_path):
        table = self._table(90)
        path = tmp_path / "t.csv"
        write_csv(table, path)
        sample = reservoir_sample_csv(path, 10, seed=6, chunk_rows=7)
        prov = sample.provenance()
        assert prov["method"] == "reservoir"
        assert prov["sampled_rows"] == 10
        assert prov["source_rows"] == 90
        assert prov["seed"] == 6
        assert prov["source"] == str(path)
        assert prov["chunk_rows"] == 7
        # CSV sampling draws the same rows as in-memory sampling.
        in_memory = reservoir_sample_chunks([table], 10, seed=6)
        assert sample.indices == in_memory.indices

    def test_bad_inputs(self):
        with pytest.raises(DataError):
            reservoir_sample_chunks([self._table(5)], 0, seed=0)
        with pytest.raises(DataError):
            reservoir_sample_chunks(iter([]), 5, seed=0)
        with pytest.raises(DataError):
            reservoir_sample_chunks(
                [self._table(5), Table.from_rows(["z"], [["1"]])],
                3,
                seed=0,
            )


class TestSampledFit:
    @pytest.fixture(scope="class")
    def sampled_fitted(self, config):
        import dataclasses

        dirty = get_dataset("hospital").make(n_rows=150, seed=7).dirty
        cfg = dataclasses.replace(config, sample_rows=60)
        return ZeroED(cfg).fit(dirty)

    def test_fit_honors_sample_rows(self, sampled_fitted):
        assert sampled_fitted.table.n_rows == 60
        prov = sampled_fitted.details["sample"]
        assert prov["sampled_rows"] == 60
        assert prov["source_rows"] == 150
        assert prov["method"] == "reservoir"

    def test_unsampled_fit_records_none(self, hospital_scorer):
        assert hospital_scorer.info["sample"] is None

    def test_provenance_rides_into_artifact(
        self, sampled_fitted, tmp_path
    ):
        art = sampled_fitted.save(tmp_path / "art")
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["sample"]["sampled_rows"] == 60
        assert manifest["train_rows"] == 60
        scorer = BatchScorer.from_artifact(art)
        assert scorer.info["sample"]["source_rows"] == 150
        # The reloaded scorer still scores foreign tables identically
        # to the live one.
        foreign = get_dataset("hospital").make(n_rows=40, seed=29).dirty
        live = sampled_fitted.scorer().score_table(foreign)
        loaded = scorer.score_table(foreign)
        assert _sha(live.mask) == _sha(loaded.mask)

    def test_pre_pr7_manifest_without_sample_key_loads(
        self, config, tmp_path
    ):
        """Backward compat: key absent = older artifact, not an error."""
        dirty = get_dataset("hospital").make(n_rows=150, seed=7).dirty
        art = ZeroED(config).fit(dirty).save(tmp_path / "art")
        manifest_path = art / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("sample")
        manifest_path.write_text(json.dumps(manifest, indent=2))
        scorer = BatchScorer.from_artifact(art)
        assert scorer.info["sample"] is None


class TestBoundedMemory:
    def test_chunked_peak_far_below_whole_table(
        self, hospital_scorer, hospital_foreign, tmp_path
    ):
        """Streaming peak allocation ≪ in-memory peak on the same file.

        A 6k-row file scored at chunk_rows=300 must peak well under
        half of what the whole-table path allocates.  The bound in
        units of one chunk is
        :meth:`test_stream_peak_within_eight_warm_chunks`.
        """
        path = tmp_path / "big.csv"
        write_csv(hospital_foreign, path)
        for _ in range(5):
            # 97 * 2**5 ≈ 6.2k rows, built append-wise.
            append_csv_rows(read_csv(path), path)

        whole, whole_peak = _traced(
            lambda: hospital_scorer.score_table(read_csv(path))
        )
        chunked, chunked_peak = _traced(
            lambda: hospital_scorer.score_csv(path, chunk_rows=300)
        )

        assert _sha(chunked.mask) == _sha(whole.mask)
        assert chunked.total_rows == whole.mask.n_rows
        assert chunked_peak < whole_peak / 2, (
            f"chunked peak {chunked_peak} not bounded vs {whole_peak}"
        )

    def test_stream_peak_within_eight_warm_chunks(
        self, hospital_scorer, tmp_path
    ):
        """``score_csv`` at jobs=2 holds a bounded window of chunks.

        A 5k-row file from 10 generator seeds, scored in 100-row
        chunks (50 shards), must peak at no more than 8x what one
        chunk, read and scored alone, peaks at.  The read-ahead window
        keeps at most 2 x jobs = 4 chunks in flight; holding every
        chunk reaches ~13x, the whole table ~37x.  One untraced pass
        first fills the process-wide memo caches, which grow with
        distinct values up to their caps rather than with rows, so
        both traced peaks measure per-chunk memory only.
        """
        chunk_rows = 100
        path = tmp_path / "stream.csv"
        for i, seed in enumerate(range(100, 110)):
            shard = get_dataset("hospital").make(n_rows=500, seed=seed)
            (append_csv_rows if i else write_csv)(shard.dirty, path)

        def stream():
            return hospital_scorer.score_csv(
                path, chunk_rows=chunk_rows, n_jobs=2
            )

        def one_chunk():
            chunks = iter_csv_chunks(path, chunk_rows)
            try:
                return hospital_scorer.score_table(next(chunks))
            finally:
                chunks.close()

        stream()  # warm-up, untraced
        _, chunk_peak = _traced(one_chunk)
        result, stream_peak = _traced(stream)
        assert result.total_rows == 5_000
        assert len(result.shards) == 50
        assert stream_peak <= 8 * chunk_peak, (
            f"stream peak {stream_peak} B is "
            f"{stream_peak / chunk_peak:.1f}x one chunk ({chunk_peak} B)"
        )


class TestVstack:
    def test_vstack_concatenates(self):
        a = ErrorMask.zeros(["x", "y"], 2)
        b = ErrorMask.zeros(["x", "y"], 3)
        b.set(1, "y", True)
        stacked = ErrorMask.vstack([a, b])
        assert stacked.n_rows == 5
        assert stacked.get(3, "y")

    def test_vstack_rejects_mixed_schemas_and_empty(self):
        with pytest.raises(SchemaError):
            ErrorMask.vstack([])
        with pytest.raises(SchemaError):
            ErrorMask.vstack(
                [ErrorMask.zeros(["x"], 1), ErrorMask.zeros(["y"], 1)]
            )


class TestStreamingCLI:
    def test_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["score-csv", "x.csv", "--artifact", "art",
             "--chunk-rows", "500", "--manifest-out", "m.json"]
        )
        assert args.chunk_rows == 500
        assert args.manifest_out == "m.json"
        args = build_parser().parse_args(
            ["fit", "--csv", "x.csv", "--sample-rows", "1000",
             "--artifact-out", "art"]
        )
        assert args.sample_rows == 1000

    def test_score_csv_chunked_equals_whole(
        self, hospital_scorer, hospital_foreign, tmp_path, capsys
    ):
        from repro.cli import main

        art = tmp_path / "art"
        # Rebuild an artifact the CLI can load (module fixture is live).
        csv_path = tmp_path / "foreign.csv"
        write_csv(hospital_foreign, csv_path)
        dirty = get_dataset("hospital").make(n_rows=150, seed=7).dirty
        config = hospital_scorer.config
        ZeroED(config).fit(dirty).save(art)

        chunked_mask = tmp_path / "chunked.json"
        whole_mask = tmp_path / "whole.json"
        manifest_out = tmp_path / "manifest.json"
        assert main([
            "score-csv", str(csv_path), "--artifact", str(art),
            "--chunk-rows", "40", "--jobs", "2",
            "--manifest-out", str(manifest_out),
            "--mask-out", str(chunked_mask),
        ]) == 0
        out = capsys.readouterr().out
        assert "zero LLM calls" in out
        assert "shards" in out
        assert main([
            "score-csv", str(csv_path), "--artifact", str(art),
            "--mask-out", str(whole_mask),
        ]) == 0
        assert json.loads(chunked_mask.read_text()) == json.loads(
            whole_mask.read_text()
        )
        manifest = json.loads(manifest_out.read_text())
        assert manifest["n_shards"] == 3
        assert manifest["total_rows"] == hospital_foreign.n_rows

    def test_fit_sample_rows_cli(self, tmp_path, capsys):
        from repro.cli import main

        dirty = get_dataset("hospital").make(n_rows=120, seed=5).dirty
        csv_path = tmp_path / "train.csv"
        write_csv(dirty, csv_path)
        art = tmp_path / "art"
        assert main([
            "fit", "--csv", str(csv_path), "--sample-rows", "40",
            "--artifact-out", str(art), "--label-rate", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "reservoir sample: 40 of 120 rows" in out
        manifest = json.loads((art / "manifest.json").read_text())
        assert manifest["sample"]["sampled_rows"] == 40
        assert manifest["sample"]["source_rows"] == 120
        assert manifest["train_rows"] == 40


class TestDefaultChunkRows:
    def test_config_chunk_rows_respected(
        self, hospital_scorer, hospital_foreign, tmp_path
    ):
        import dataclasses

        path = tmp_path / "t.csv"
        write_csv(hospital_foreign, path)
        # Default comes from the module constant...
        result = hospital_scorer.score_csv(path)
        assert result.chunk_rows == DEFAULT_CHUNK_ROWS
        # ...unless the scorer's config pins one.
        pinned = BatchScorer(
            config=dataclasses.replace(
                hospital_scorer.config, chunk_rows=25
            ),
            detector=hospital_scorer.detector,
            featurizers=hospital_scorer.featurizers,
            correlated=hospital_scorer.correlated,
            attributes=hospital_scorer.attributes,
            train_rows=hospital_scorer.train_rows,
        )
        result = pinned.score_csv(path)
        assert result.chunk_rows == 25
        assert len(result.shards) == 4

    @pytest.mark.parametrize("chunk_rows", [0, -5])
    def test_chunk_rows_below_one_rejected(
        self, hospital_scorer, hospital_foreign, tmp_path, chunk_rows
    ):
        path = tmp_path / "t.csv"
        write_csv(hospital_foreign, path)
        journal_dir = tmp_path / "journal"
        quarantine = tmp_path / "t.quarantine.jsonl"
        with pytest.raises(DataError, match="chunk_rows must be >= 1"):
            hospital_scorer.score_csv(
                path,
                chunk_rows=chunk_rows,
                journal_dir=journal_dir,
                bad_rows="quarantine",
                quarantine_path=quarantine,
            )
        # Rejected before any journal or quarantine file is opened.
        assert not journal_dir.exists()
        assert not quarantine.exists()
        with pytest.raises(DataError, match="chunk_rows must be >= 1"):
            reservoir_sample_csv(path, 10, seed=0, chunk_rows=chunk_rows)
