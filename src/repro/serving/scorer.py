"""Warm batch scoring against a fitted detector (serving subsystem).

:class:`BatchScorer` applies a trained ZeroED fit — live
(:meth:`~repro.core.pipeline.FittedZeroED.scorer`) or reloaded from a
disk artifact (:meth:`BatchScorer.from_artifact`) — to tables and row
batches.  It is the one scoring path: ``ZeroED.detect`` scores the
fit's own table through it too.  The path is deliberately narrow:

* **zero LLM calls, no sampling** — scoring consumes only frozen
  facts: value-frequency tables, vicinity lookup tables, compiled
  criteria, trained MLP parameters;
* **unique-value folds** — a :class:`~repro.core.featurize.FeatureSpace`
  over the frozen featurizers computes frequency/pattern/embedding
  features once per distinct value, vicinity ratios once per distinct
  value pair and criteria once per distinct (value, context) combo,
  and the fast detector engine builds, scales and predicts only one
  unified row per unique key, in fixed row blocks, so scoring memory
  follows the distinct values and keys rather than the row count;
* **per-attribute fan-out** — feature blocks and detector prediction
  fan across ``config.n_jobs`` workers through :mod:`repro.parallel`,
  with the shared column encodings built serially first, the same
  determinism contract as the pipeline.

A scorer built from a saved-then-loaded artifact produces masks
bitwise equal to the in-memory scorer (pinned in
``tests/test_serving.py``).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.config import ZeroEDConfig
from repro.core.detector import ErrorDetector
from repro.core.featurize import AttributeFeaturizer, FeatureSpace
from repro.core.result import DetectionResult, StageInfo
from repro.data.table import Table
from repro.errors import ArtifactError
from repro.obs import trace
from repro.parallel import parallel_attr_map


class BatchScorer:
    """Score unseen tables/rows with a fitted detector, LLM-free."""

    def __init__(
        self,
        *,
        config: ZeroEDConfig,
        detector: ErrorDetector,
        featurizers: dict[str, AttributeFeaturizer],
        correlated: dict[str, list[str]],
        attributes: list[str],
        llm_model: str = "unknown",
        train_rows: int = 0,
        info: dict | None = None,
        n_jobs: int | None = None,
    ) -> None:
        if n_jobs is not None:
            config = dataclasses.replace(config, n_jobs=n_jobs)
            # predict() reads its jobs count from detector.config; give
            # the scorer a fitted view under the overridden config so
            # the caller's detector (and the fitted pipeline behind
            # it) keeps its own setting.
            detector = detector.with_config(config)
        self.config = config
        self.detector = detector
        self.featurizers = featurizers
        self.correlated = correlated
        self.attributes = list(attributes)
        self.llm_model = llm_model
        self.train_rows = train_rows
        self.info = info or {
            "dataset": None,
            "train_rows": train_rows,
            "llm_model": llm_model,
            "attributes": self.attributes,
            "engines": {"detector": detector.engine},
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_fitted(cls, fitted, n_jobs: int | None = None) -> "BatchScorer":
        """Wrap a live :class:`~repro.core.pipeline.FittedZeroED`."""
        return cls(
            config=fitted.config,
            detector=fitted.detector,
            featurizers=dict(fitted.featurizers),
            correlated=dict(fitted.correlated),
            attributes=fitted.attributes,
            llm_model=fitted.llm.model_name,
            train_rows=fitted.table.n_rows,
            info={
                "dataset": fitted.table.name,
                "train_rows": fitted.table.n_rows,
                "llm_model": fitted.llm.model_name,
                "attributes": fitted.attributes,
                "engines": {"detector": fitted.detector.engine},
                "resilience": {
                    "degraded_attrs": fitted.details.get(
                        "degraded_attrs", {}
                    ),
                    "fit_stats": fitted.details.get("resilience") or {},
                },
                "sample": fitted.details.get("sample"),
                "tokens": dict(fitted.ledger_summary),
            },
            n_jobs=n_jobs,
        )

    @classmethod
    def from_artifact(
        cls, path: str | Path, n_jobs: int | None = None
    ) -> "BatchScorer":
        """Load a saved artifact directory (integrity-checked)."""
        from repro.serving.artifact import DetectorArtifact

        state = DetectorArtifact.load(path).restore()
        return cls(
            config=state.config,
            detector=state.detector,
            featurizers=state.featurizers,
            correlated=state.correlated,
            attributes=state.attributes,
            llm_model=state.llm_model,
            train_rows=state.train_rows,
            info=state.info,
            n_jobs=n_jobs,
        )

    def with_jobs(self, n_jobs: int) -> "BatchScorer":
        """A view of this scorer with a different worker count.

        Shares the frozen featurizers and trained models (no copy);
        only the execution knob differs.  The chunked scoring path uses
        this to keep one pool level — the shard fan-out owns the
        workers, each shard scores per-attribute-serially.
        """
        if n_jobs == self.config.n_jobs:
            return self
        return BatchScorer(
            config=self.config,
            detector=self.detector,
            featurizers=self.featurizers,
            correlated=self.correlated,
            attributes=self.attributes,
            llm_model=self.llm_model,
            train_rows=self.train_rows,
            info=self.info,
            n_jobs=n_jobs,
        )

    # ------------------------------------------------------------------
    def score_table(
        self, table: Table, *, row_offset: int = 0
    ) -> DetectionResult:
        """Score every cell of ``table`` against the fitted detectors.

        ``table`` must carry the training schema (same attributes, same
        order); anything else raises :class:`ArtifactError` — a scorer
        has no way to featurize columns it was never fitted on.

        ``row_offset`` says which global row the table's row 0 is when
        the table is a shard of a larger stream.  The mask stays local
        (row ``i`` of this table), but the offset is recorded in
        ``details["row_offset"]`` and applied by
        :meth:`~repro.core.result.DetectionResult.error_cells`, so
        shard consumers get global row ids instead of silently
        0-rebased ones.
        """
        if table.attributes != self.attributes:
            raise ArtifactError(
                f"schema mismatch: the detector was fitted on "
                f"{self.attributes!r}, the table carries "
                f"{table.attributes!r}"
            )
        if row_offset < 0:
            raise ArtifactError(
                f"row_offset must be >= 0, got {row_offset}"
            )
        with trace.span(
            "featurize", dataset=table.name, rows=table.n_rows
        ) as featurize_span:
            fs = FeatureSpace(
                table, self.featurizers, self.correlated, self.config
            )
            # Column encodings are shared across attributes (vicinity
            # and criteria read other columns), so build them serially
            # first; after that each attribute's blocks touch only its
            # own featurizer, criteria and cache slot, and the fan-out
            # below builds them in parallel.
            for attr in self.attributes:
                table.encoding(attr)
            parallel_attr_map(
                fs.blocks,
                self.attributes,
                self.config.n_jobs,
                span="base_matrix",
            )
        featurize_s = featurize_span.seconds
        with trace.span(
            "predict",
            dataset=table.name,
            rows=table.n_rows,
            engine=self.detector.engine,
        ) as predict_span:
            mask = self.detector.predict(table, fs)
        predict_s = predict_span.seconds
        return DetectionResult(
            mask=mask,
            dataset=table.name,
            method=f"zeroed-scorer[{self.llm_model}]",
            stages=[
                StageInfo("featurize", featurize_s, 0, 0),
                StageInfo("predict", predict_s, 0, 0),
            ],
            details={
                "engines": {"detector": self.detector.engine},
                "n_jobs": self.config.n_jobs,
                "train_rows": self.train_rows,
                "serving": True,
                "row_offset": row_offset,
            },
        )

    def score_rows(
        self,
        rows: Sequence[Mapping[str, str]],
        name: str = "rows",
        *,
        row_offset: int = 0,
    ) -> DetectionResult:
        """Score ad-hoc row dicts (the service's request payloads).

        Missing attributes become empty cells (the pipeline's NULL
        convention); unknown keys raise :class:`ArtifactError`.
        ``row_offset`` as in :meth:`score_table`.
        """
        return self.score_table(
            self.rows_to_table(rows, name=name), row_offset=row_offset
        )

    # ------------------------------------------------------------------
    def score_chunks(self, chunks, *, chunk_rows=None, n_jobs=None, journal=None):
        """Stream-score an iterable of table chunks, bounded memory.

        Delegates to :func:`repro.serving.streaming.score_chunks`; the
        assembled mask is byte-identical to :meth:`score_table` on the
        concatenated table for every ``(chunk_rows, n_jobs)``.
        """
        from repro.serving import streaming

        return streaming.score_chunks(
            self,
            chunks,
            chunk_rows=chunk_rows,
            n_jobs=self.config.n_jobs if n_jobs is None else n_jobs,
            journal=journal,
        )

    def score_csv(
        self,
        path,
        *,
        chunk_rows=None,
        n_jobs=None,
        journal_dir=None,
        resume=False,
        bad_rows=None,
        quarantine_path=None,
        opener=None,
    ):
        """Stream-score a CSV file shard-by-shard (out-of-core).

        Delegates to :func:`repro.serving.streaming.score_csv`; the
        file is never materialized whole.  ``journal_dir``/``resume``
        make the run resumable after a crash, ``bad_rows``/
        ``quarantine_path`` pick the malformed-row policy (PR 8).
        """
        from repro.serving import streaming

        return streaming.score_csv(
            self,
            path,
            chunk_rows=chunk_rows,
            n_jobs=self.config.n_jobs if n_jobs is None else n_jobs,
            journal_dir=journal_dir,
            resume=resume,
            bad_rows=bad_rows,
            quarantine_path=quarantine_path,
            opener=opener,
        )

    def validate_rows(self, rows: Sequence[Mapping[str, str]]) -> None:
        """Reject rows carrying attributes outside the fitted schema.

        Shared by :meth:`rows_to_table` and the service's pre-enqueue
        check (which must fail a bad request *before* it joins a
        micro-batch and sinks its co-batched waiters).
        """
        valid = set(self.attributes)
        for pos, row in enumerate(rows):
            unknown = [k for k in row if k not in valid]
            if unknown:
                raise ArtifactError(
                    f"row {pos} carries unknown attribute(s) {unknown!r}; "
                    f"the detector was fitted on {self.attributes!r}"
                )

    def rows_to_table(
        self, rows: Sequence[Mapping[str, str]], name: str = "rows"
    ) -> Table:
        """Build a schema-aligned :class:`Table` from row dicts."""
        self.validate_rows(rows)
        columns = {
            attr: [row.get(attr, "") for row in rows]
            for attr in self.attributes
        }
        return Table(self.attributes, columns, name=name)
