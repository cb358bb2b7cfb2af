"""Out-of-core sharded scoring and sampled fitting (streaming layer).

The fit/score split (PR 5) froze everything scoring needs into
per-attribute statistics, which makes scoring *embarrassingly
row-parallel*: a row's features and prediction depend only on the row's
own cells (plus the frozen training stats), never on which other rows
share the batch.  This module exploits that in two directions:

* **sharded scoring** — :func:`score_chunks` streams an arbitrarily
  large row source (typically :func:`repro.data.csvio.iter_csv_chunks`)
  shard-by-shard through a :class:`~repro.serving.scorer.BatchScorer`,
  fanning shards across the :mod:`repro.parallel` worker pool with a
  bounded read-ahead window, so peak memory is a small multiple of one
  shard whatever the total row count.  The assembled mask is
  **byte-identical** to the in-memory ``score_table`` for every
  ``(chunk_rows, jobs)`` combination (pinned in
  ``tests/test_streaming.py``), and the result carries a manifest with
  a SHA-256 checksum per shard mask.
* **sampled fitting** — :func:`reservoir_sample_chunks` draws a seeded
  uniform row sample from a chunk stream in one pass (Algorithm R,
  row-at-a-time, so the draw sequence — hence the sample — is
  independent of how the stream is chunked), letting the LLM-guided
  fit run on a bounded sample of a million-row table whose frozen
  statistics then score the full table shard-by-shard.
* **resumable jobs** (PR 8) — a :class:`~repro.serving.jobs.ScoreJournal`
  records every completed shard (mask bytes + SHA-256) under a job
  fingerprint as the stream is scored; a killed ``score_csv`` re-run
  with ``resume=True`` replays the journal's verified prefix with
  **zero re-scored shards** and continues from the cut, assembling a
  mask byte-identical to the uninterrupted run.  Malformed CSV rows
  can be quarantined to a sidecar (``bad_rows="quarantine"``) instead
  of killing the job.

Zero LLM calls happen anywhere in this module: a ``BatchScorer`` holds
no LLM client at all, and sampling is pure row selection.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.data.csvio import QuarantineWriter, iter_csv_chunks
from repro.data.mask import ErrorMask
from repro.data.table import Table
from repro.errors import DataError
from repro.ml.rng import spawn
from repro.obs import trace
from repro.parallel import effective_jobs, parallel_map_stream
from repro.serving.jobs import ScoreJournal, job_fingerprint

#: Default shard size for out-of-core scoring when the caller does not
#: choose one (``config.chunk_rows`` overrides).  Measured on 22-column
#: Tax rows, scoring a shard allocates about 2.7 KB per row beyond its
#: own strings (column encodings, the narrow per-row feature blocks,
#: one prediction block at a time), ~130 MB at this size, and ~5 KB
#: per row while the process-wide memo caches (embedding tokens and
#: grams, criteria verdicts) still grow with unseen values; per-shard
#: overhead stays negligible.
DEFAULT_CHUNK_ROWS = 50_000

MANIFEST_FORMAT = "zeroed-streaming-score-manifest"
MANIFEST_VERSION = 1


def _resolve_chunk_rows(chunk_rows: int | None) -> int:
    """``chunk_rows``, or ``DEFAULT_CHUNK_ROWS`` when it is None; values
    below 1 raise :class:`DataError`."""
    if chunk_rows is None:
        return DEFAULT_CHUNK_ROWS
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    return chunk_rows


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Sampled fit: one-pass seeded reservoir over a chunk stream
# ----------------------------------------------------------------------
@dataclass
class ReservoirSample:
    """A seeded uniform row sample drawn from a streamed table."""

    table: Table
    """The sampled rows, in their original stream order."""

    indices: list[int]
    """Global (stream-order) row ids of the sampled rows, ascending."""

    total_rows: int
    """Rows seen in the stream (the sample's population size)."""

    requested_rows: int
    seed: int
    source: str | None = None
    chunk_rows: int | None = None

    def provenance(self) -> dict:
        """JSON-safe sample provenance for artifact manifests.

        Records how the training rows were chosen — enough for an
        operator to reproduce the sample (method, seed, budget,
        population) and to checksum-verify the chosen row ids without
        storing all of them.
        """
        return {
            "method": "reservoir",
            "requested_rows": self.requested_rows,
            "sampled_rows": self.table.n_rows,
            "source_rows": self.total_rows,
            "seed": self.seed,
            "source": self.source,
            "chunk_rows": self.chunk_rows,
            "indices_sha256": _sha256(
                ",".join(str(i) for i in self.indices).encode()
            ),
        }


def reservoir_sample_chunks(
    chunks: Iterable[Table],
    sample_rows: int,
    seed: int,
    *,
    source: str | None = None,
    chunk_rows: int | None = None,
) -> ReservoirSample:
    """Draw ``sample_rows`` rows uniformly from a chunk stream.

    Algorithm R over the concatenated row stream: the first
    ``sample_rows`` rows fill the reservoir, then row ``i`` replaces a
    uniformly chosen slot with probability ``sample_rows / (i + 1)``.
    One RNG draw per row *beyond* the reservoir, in stream order — so
    for a fixed seed the sample is a pure function of the row sequence,
    independent of where chunk boundaries fall (pinned by a hypothesis
    property in ``tests/test_properties_pipeline.py``).  The sampled
    table keeps the rows in original order (order-stable), which keeps
    every downstream seeded stage independent of reservoir internals.
    """
    if sample_rows < 1:
        raise DataError(f"sample_rows must be >= 1, got {sample_rows}")
    rng = spawn(seed, "streaming/reservoir")
    reservoir: list[tuple[int, tuple[str, ...]]] = []
    attributes: list[str] | None = None
    name = "sample"
    total = 0
    for chunk in chunks:
        if attributes is None:
            attributes = chunk.attributes
            name = chunk.name
        elif chunk.attributes != attributes:
            raise DataError(
                f"chunk schema changed mid-stream: {chunk.attributes!r} "
                f"after {attributes!r}"
            )
        for local in range(chunk.n_rows):
            if total < sample_rows:
                reservoir.append((total, chunk.row_tuple(local)))
            else:
                j = int(rng.integers(0, total + 1))
                if j < sample_rows:
                    reservoir[j] = (total, chunk.row_tuple(local))
            total += 1
    if attributes is None:
        raise DataError("cannot sample from an empty chunk stream")
    reservoir.sort(key=lambda entry: entry[0])
    table = Table.from_rows(
        attributes, [row for _, row in reservoir], name=name
    )
    return ReservoirSample(
        table=table,
        indices=[i for i, _ in reservoir],
        total_rows=total,
        requested_rows=sample_rows,
        seed=seed,
        source=source,
        chunk_rows=chunk_rows,
    )


def reservoir_sample_csv(
    path: str | Path,
    sample_rows: int,
    seed: int,
    chunk_rows: int | None = None,
) -> ReservoirSample:
    """One-pass reservoir sample of a CSV file, fixed memory.

    Streams the file through :func:`iter_csv_chunks`; at no point do
    more than ``chunk_rows`` source rows plus the reservoir itself live
    in memory.
    """
    chunk_rows = _resolve_chunk_rows(chunk_rows)
    return reservoir_sample_chunks(
        iter_csv_chunks(path, chunk_rows),
        sample_rows,
        seed,
        source=str(path),
        chunk_rows=chunk_rows,
    )


# ----------------------------------------------------------------------
# Sharded scoring
# ----------------------------------------------------------------------
@dataclass
class ShardResult:
    """Bookkeeping for one scored shard (manifest entry)."""

    index: int
    row_offset: int
    n_rows: int
    error_cells: int
    mask_sha256: str
    seconds: float


@dataclass
class StreamingScoreResult:
    """A global mask assembled from shard-scored chunks, plus manifest.

    ``mask`` is the full-table mask — shard ``k``'s local row ``i`` at
    global row ``shards[k].row_offset + i`` — byte-identical to what
    the in-memory ``score_table`` produces on the concatenated table.
    """

    mask: ErrorMask
    shards: list[ShardResult]
    chunk_rows: int | None
    jobs: int
    seconds: float
    dataset: str | None = None
    details: dict = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return self.mask.n_rows

    @property
    def rows_per_s(self) -> float:
        return self.total_rows / self.seconds if self.seconds > 0 else 0.0

    def manifest(self) -> dict:
        """JSON-safe scoring manifest with per-shard checksums.

        The shard checksums let a consumer verify any re-scored shard
        against the recorded run (scoring is deterministic) without
        keeping shard masks around, and the global checksum pins the
        assembled mask.
        """
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "dataset": self.dataset,
            "chunk_rows": self.chunk_rows,
            "jobs": self.jobs,
            "n_shards": len(self.shards),
            "total_rows": self.total_rows,
            "error_cells": self.mask.error_count(),
            "seconds": round(self.seconds, 4),
            "rows_per_s": round(self.rows_per_s, 1),
            "mask_sha256": _sha256(self.mask.matrix.tobytes()),
            "attributes": self.mask.attributes,
            "shards": [
                {
                    "index": s.index,
                    "row_offset": s.row_offset,
                    "n_rows": s.n_rows,
                    "error_cells": s.error_cells,
                    "mask_sha256": s.mask_sha256,
                    "seconds": round(s.seconds, 4),
                }
                for s in self.shards
            ],
            "details": self.details,
        }

    def write_manifest(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.manifest(), indent=2) + "\n")
        return path


def score_chunks(
    scorer,
    chunks: Iterable[Table],
    *,
    chunk_rows: int | None = None,
    n_jobs: int = 1,
    journal: ScoreJournal | None = None,
) -> StreamingScoreResult:
    """Score a stream of table chunks, bounded memory, ordered assembly.

    ``scorer`` is a :class:`~repro.serving.scorer.BatchScorer`; each
    chunk goes through its ``score_table`` (zero LLM calls, frozen
    training statistics).  With ``n_jobs > 1`` shards fan across the
    worker pool via :func:`repro.parallel.parallel_map_stream` — each
    shard scored per-attribute-serially to keep one pool level — with
    a bounded read-ahead window, so at most ``~2 * jobs`` chunks are
    ever materialized.  Shard masks land at their global row offsets
    in stream order; because every shard's mask is a pure function of
    its own rows, the assembled mask is byte-identical for every
    ``(chunk_rows, n_jobs)`` combination and equal to the in-memory
    path.  Raises :class:`~repro.errors.ArtifactError` on the first
    chunk whose schema differs from the fitted one.

    With a ``journal`` (see :mod:`repro.serving.jobs`) every completed
    shard is persisted as it is assembled, and the journal's already-
    verified prefix is *replayed* instead of re-scored: those chunks
    are pulled from the stream only to confirm their shape, their
    masks come from disk.  The caller owns the journal's lifecycle
    (``close``); this function never closes it.
    """
    jobs = effective_jobs(n_jobs)
    # One pool level: the shard fan-out owns the workers, each shard
    # scores its attributes serially.  (jobs == 1 keeps the scorer's
    # own per-attribute setting — the plain serial loop.)
    shard_scorer = scorer.with_jobs(1) if jobs > 1 else scorer

    def with_offsets(stream: Iterable[Table]) -> Iterator[tuple[int, Table]]:
        offset = 0
        for chunk in stream:
            yield offset, chunk
            offset += chunk.n_rows

    def score_one(job: tuple[int, Table]):
        offset, chunk = job
        with trace.span(
            "shard", offset=offset, rows=chunk.n_rows
        ) as sp:
            result = shard_scorer.score_table(chunk, row_offset=offset)
        return offset, chunk, result, sp.seconds

    start = time.perf_counter()
    shard_masks: list[ErrorMask] = []
    shards: list[ShardResult] = []
    dataset = None
    stream = with_offsets(chunks)

    # Replay the journal's verified prefix: each recorded shard must
    # line up with the live stream (same offset, same row count) — a
    # drifted source means the fingerprint guard was defeated (e.g. a
    # same-size edit), and splicing would corrupt the mask.
    resumed = list(journal.verified) if journal is not None else []
    for record in resumed:
        try:
            offset, chunk = next(stream)
        except StopIteration:
            raise DataError(
                f"journal records {len(resumed)} shards but the source "
                f"stream ended after {record.index}; the source changed "
                "— re-run without resume"
            ) from None
        if offset != record.row_offset or chunk.n_rows != record.n_rows:
            raise DataError(
                f"journal shard {record.index} covers rows "
                f"{record.row_offset}..{record.row_offset + record.n_rows} "
                f"but the stream yields {offset}..{offset + chunk.n_rows}; "
                "the source changed — re-run without resume"
            )
        dataset = dataset or chunk.name
        shard_masks.append(journal.shard_mask(record, scorer.attributes))
        shards.append(
            ShardResult(
                index=record.index,
                row_offset=record.row_offset,
                n_rows=record.n_rows,
                error_cells=record.error_cells,
                mask_sha256=record.mask_sha256,
                seconds=0.0,
            )
        )

    for offset, chunk, result, seconds in parallel_map_stream(
        score_one, stream, n_jobs=jobs
    ):
        dataset = dataset or chunk.name
        shard = ShardResult(
            index=len(shards),
            row_offset=offset,
            n_rows=chunk.n_rows,
            error_cells=result.mask.error_count(),
            mask_sha256=_sha256(result.mask.matrix.tobytes()),
            seconds=seconds,
        )
        if journal is not None:
            journal.append(
                index=shard.index,
                row_offset=shard.row_offset,
                mask=result.mask,
                mask_sha256=shard.mask_sha256,
            )
        shard_masks.append(result.mask)
        shards.append(shard)
    if shard_masks:
        mask = ErrorMask.vstack(shard_masks)
    else:
        mask = ErrorMask.zeros(scorer.attributes, 0)
    details = {
        "engines": dict(scorer.info.get("engines") or {}),
        "train_rows": scorer.train_rows,
        "serving": True,
        "streaming": True,
    }
    if journal is not None:
        details["journal"] = str(journal.directory)
        details["resumed_shards"] = len(resumed)
        details["journal_invalidated"] = journal.invalidated
    return StreamingScoreResult(
        mask=mask,
        shards=shards,
        chunk_rows=chunk_rows,
        jobs=jobs,
        seconds=time.perf_counter() - start,
        dataset=dataset,
        details=details,
    )


def score_csv(
    scorer,
    path: str | Path,
    *,
    chunk_rows: int | None = None,
    n_jobs: int = 1,
    journal_dir: str | Path | None = None,
    resume: bool = False,
    bad_rows: str | None = None,
    quarantine_path: str | Path | None = None,
    opener=None,
) -> StreamingScoreResult:
    """Stream-score a CSV file shard-by-shard with bounded memory.

    The out-of-core ``score-csv`` path: the file is never materialized
    whole — :func:`repro.data.csvio.iter_csv_chunks` feeds
    :func:`score_chunks` one shard at a time.

    With ``journal_dir`` the run is **resumable**: every completed shard
    is journaled (see :mod:`repro.serving.jobs`), and ``resume=True``
    replays the journal's verified prefix without re-scoring, provided
    the job fingerprint (artifact, source path + size, ``chunk_rows``,
    worker count, bad-row policy) still matches — otherwise the journal
    is invalidated and the run restarts at shard 0.  ``bad_rows``
    (default: ``scorer.config.bad_rows``) picks the malformed-row
    policy; under ``"quarantine"`` offenders land in
    ``quarantine_path`` (default ``<path>.quarantine.jsonl``) instead
    of failing the job.  ``opener`` is the chaos-layer injection point
    for the journal and sidecar files.
    """
    path = Path(path)
    chunk_rows = _resolve_chunk_rows(
        scorer.config.chunk_rows if chunk_rows is None else chunk_rows
    )
    if bad_rows is None:
        bad_rows = getattr(scorer.config, "bad_rows", "fail")
    if resume and journal_dir is None:
        raise DataError("resume=True requires a journal_dir")
    jobs = effective_jobs(n_jobs)

    journal = None
    quarantine = None
    try:
        if bad_rows == "quarantine":
            quarantine = QuarantineWriter(
                quarantine_path or path.with_suffix(path.suffix + ".quarantine.jsonl"),
                opener=opener,
            )
        if journal_dir is not None:
            journal = ScoreJournal.begin(
                journal_dir,
                job_fingerprint(
                    scorer,
                    path,
                    chunk_rows=chunk_rows,
                    n_jobs=jobs,
                    bad_rows=bad_rows,
                ),
                resume=resume,
                opener=opener,
            )
        result = score_chunks(
            scorer,
            iter_csv_chunks(
                path, chunk_rows, bad_rows=bad_rows, quarantine=quarantine
            ),
            chunk_rows=chunk_rows,
            n_jobs=jobs,
            journal=journal,
        )
        if quarantine is not None:
            result.details["quarantined_rows"] = quarantine.total
            result.details["quarantine_path"] = str(quarantine.path)
        return result
    finally:
        if journal is not None:
            journal.close()
        if quarantine is not None:
            quarantine.close()


def iter_table_chunks(table: Table, chunk_rows: int) -> Iterator[Table]:
    """Slice an in-memory table into ``chunk_rows``-row chunks.

    The test/benchmark counterpart of ``iter_csv_chunks`` — chunked
    scoring of a table that already exists, e.g. to pin equivalence
    against ``score_table``.
    """
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    for start in range(0, table.n_rows, chunk_rows):
        yield table.select_rows(
            range(start, min(start + chunk_rows, table.n_rows))
        )
