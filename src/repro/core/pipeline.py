"""The ZeroED pipeline facade (paper §III).

Orchestrates the four steps — feature representation, representative
sampling + holistic LLM labeling, training-data construction with
mutual verification, and detector training/prediction — with per-stage
timing and token accounting.  Every stochastic component derives from
``config.seed``; two runs with the same config, data and LLM backend
produce identical masks.

The pipeline is split into a train-once / score-many pair (the serving
subsystem, PR 5):

* :meth:`ZeroED.fit` runs the expensive LLM-guided phase (Steps 1-4 up
  to detector training) and returns a :class:`FittedZeroED`;
* :meth:`FittedZeroED.score` applies the fitted per-attribute detectors
  to any table through the one scoring path,
  :class:`repro.serving.scorer.BatchScorer`: cells are featurized
  against the frozen training statistics, with zero LLM calls;
* :meth:`ZeroED.detect` is ``fit().scorer().score_table()`` on the same
  table plus the fit's provenance; its masks are byte-identical to the
  pre-split implementation (hash-pinned in
  ``tests/test_feature_equivalence.py``).

:meth:`FittedZeroED.save` persists everything scoring needs as a
versioned on-disk artifact (:mod:`repro.serving.artifact`), reloadable
by :class:`repro.serving.scorer.BatchScorer` in a fresh process.
"""

from __future__ import annotations

import dataclasses
import threading
from pathlib import Path

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.detector import ErrorDetector
from repro.core.featurize import (
    AttributeFeaturizer,
    FeatureSpace,
    shared_embedding,
)
from repro.core.guidelines import build_guideline
from repro.core.labeling import label_representatives
from repro.core.result import DetectionResult, StageInfo
from repro.core.sampling import SamplingResult, sample_representatives
from repro.core.training_data import (
    AttributeTrainingData,
    assemble_training_data,
    verify_attribute,
)
from repro.data.stats import compute_all_stats
from repro.data.table import Table
from repro.errors import LLMError
from repro.llm.checkpoint import CheckpointedLLM, fit_fingerprint
from repro.llm.client import LLMClient
from repro.llm.profiles import get_profile
from repro.llm.resilience import ResilientLLM, RetryPolicy
from repro.ml.rng import spawn
from repro.obs import log as obs_log
from repro.obs import session as obs_session
from repro.obs import trace
from repro.parallel import effective_jobs, parallel_attr_map
from repro.text.embeddings import SubwordHashEmbedding

_log = obs_log.get_logger("repro.core.pipeline")


class ZeroED:
    """Hybrid zero-shot error detector.

    Parameters
    ----------
    config:
        Full pipeline configuration; defaults to the paper's settings.
    llm:
        An :class:`~repro.llm.client.LLMClient`.  Defaults to the
        simulated backend with the profile named by
        ``config.llm_model``.
    **overrides:
        Convenience keyword overrides applied to the config, e.g.
        ``ZeroED(label_rate=0.02, seed=7)``.
    """

    def __init__(
        self,
        config: ZeroEDConfig | None = None,
        llm: LLMClient | None = None,
        **overrides,
    ) -> None:
        base = config or ZeroEDConfig()
        self.config = (
            dataclasses.replace(base, **overrides) if overrides else base
        )
        if llm is None:
            from repro.llm.simulated.engine import SimulatedLLM

            llm = SimulatedLLM(
                profile=get_profile(self.config.llm_model),
                seed=self.config.seed,
            )
        self.llm = llm

    # ------------------------------------------------------------------
    def detect(self, table: Table) -> DetectionResult:
        """Detect errors in every cell of ``table`` (fit then score)."""
        return self.fit(table).score(table)

    # ------------------------------------------------------------------
    def fit(self, table: Table) -> "FittedZeroED":
        """Run the LLM-guided training phase (Steps 1-4) on ``table``.

        Everything expensive happens here — criteria reasoning,
        representative sampling, holistic labeling, mutual verification,
        augmentation, and MLP training.  The returned
        :class:`FittedZeroED` scores tables without further LLM calls.
        """
        # Observability knobs carried on the config (the CLI wraps the
        # whole command in its own session, which then wins): an inner
        # session is a no-op unless config asks for something.
        with obs_session(
            trace_out=self.config.trace_out,
            log_json=self.config.log_json,
            log_level=self.config.log_level,
        ):
            with trace.span(
                "fit",
                dataset=table.name,
                rows=table.n_rows,
                attributes=table.n_attributes,
            ):
                return self._fit(table)

    def _fit(self, table: Table) -> "FittedZeroED":
        config = self.config
        # Out-of-core fit (streaming layer): with a sample_rows budget
        # and a larger table, the LLM-guided phase runs on a seeded
        # reservoir sample — the frozen statistics it produces then
        # score the *full* table chunk-by-chunk through the serving
        # layer.  Sampling happens before engine resolution so 'auto'
        # sees the row count the fit actually runs on.
        sample_info = None
        if (
            config.sample_rows is not None
            and table.n_rows > config.sample_rows
        ):
            from repro.serving.streaming import reservoir_sample_chunks

            sample = reservoir_sample_chunks(
                [table], config.sample_rows, seed=config.seed,
                source=table.name,
            )
            table = sample.table
            sample_info = sample.provenance()
        # 'auto' engines resolve against this table's row count once,
        # up front: 'fast' at/above the ~2k-row crossover, 'exact'
        # below it (see config.AUTO_ENGINE_MIN_ROWS).
        if "auto" in (config.sampling_engine, config.detector_engine):
            config = dataclasses.replace(
                config,
                sampling_engine=config.resolve_sampling_engine(table.n_rows),
                detector_engine=config.resolve_detector_engine(table.n_rows),
            )
        # Per-attribute stages fan across a worker pool when n_jobs > 1
        # (masks stay byte-identical for any jobs count); n_jobs == 1
        # keeps the historical serial loops bit-for-bit.
        parallel = effective_jobs(config.n_jobs, table.n_attributes) > 1
        llm = self._wrap_llm(config, table)
        llm.ledger.reset()
        stages: list[StageInfo] = []
        details: dict = {
            "engines": {
                "sampling": config.sampling_engine,
                "detector": config.detector_engine,
            },
            "n_jobs": config.n_jobs,
        }

        # Per-attribute degradation ledger: stage callbacks land here
        # when an attribute's LLM call exhausts its retries and the fit
        # carries on with the statistical fallback for that stage.
        degraded: dict[str, set[str]] = {}
        degraded_lock = threading.Lock()

        def degrade_into(stage: str):
            """on_failure callback for one stage, or None (fail fast)."""
            if not config.degrade_on_failure:
                return None

            def record(attr: str, exc: LLMError) -> None:
                with degraded_lock:
                    degraded.setdefault(attr, set()).add(stage)
                _log.warning(
                    "llm.degraded", attr=attr, stage=stage, error=str(exc)
                )

            return record

        def run_stage(name: str, fn):
            before = llm.ledger.summary()
            with trace.span(name) as sp:
                value = fn()
            after = llm.ledger.summary()
            info = StageInfo(
                name=name,
                seconds=sp.seconds,
                input_tokens=after["input_tokens"] - before["input_tokens"],
                output_tokens=(
                    after["output_tokens"] - before["output_tokens"]
                ),
            )
            stages.append(info)
            _log.debug(
                "fit.stage",
                stage=name,
                seconds=round(info.seconds, 6),
                input_tokens=info.input_tokens,
                output_tokens=info.output_tokens,
            )
            return value

        # --- Step 1: feature representation ---------------------------
        stats = run_stage("stats", lambda: compute_all_stats(table))
        correlated = run_stage(
            "correlation",
            lambda: (
                correlated_attributes(
                    table, config.n_correlated, seed=config.seed
                )
                if config.use_correlated_features
                else {a: [] for a in table.attributes}
            ),
        )
        criteria = run_stage(
            "criteria",
            lambda: (
                generate_initial_criteria(
                    llm, table, correlated, config,
                    on_failure=degrade_into("criteria"),
                )
                if config.use_criteria_features
                else {a: [] for a in table.attributes}
            ),
        )
        feature_space = run_stage(
            "features",
            lambda: FeatureSpace.from_table(
                table, stats, correlated, criteria, config
            ),
        )

        # --- Step 2: sampling and holistic LLM labeling ----------------
        def do_sampling() -> dict[str, SamplingResult]:
            n_clusters = config.clusters_for(table.n_rows)
            if parallel:
                feature_space.warm()
            return parallel_attr_map(
                lambda attr: sample_representatives(
                    feature_space.unified_matrix(attr),
                    n_clusters=n_clusters,
                    method=config.clustering,
                    seed=spawn(config.seed, f"sample/{attr}"),
                    engine=config.sampling_engine,
                ),
                table.attributes,
                config.n_jobs,
                span="sample",
            )

        sampling = run_stage("sampling", do_sampling)

        def do_guidelines() -> dict[str, str]:
            if not config.use_guidelines:
                return {a: "" for a in table.attributes}
            on_failure = degrade_into("guideline")
            out = {}
            for attr in table.attributes:
                examples = [
                    _context_row(table, i, attr, correlated[attr])
                    for i in sampling[attr].sampled_indices[:15]
                ]
                try:
                    out[attr] = build_guideline(
                        llm, table, attr, examples
                    ).text
                except LLMError as exc:
                    if on_failure is None:
                        raise
                    on_failure(attr, exc)
                    # Labeling prompts degrade to "(no guideline
                    # available)" — the w/o-Guid. ablation's shape.
                    out[attr] = ""
            return out

        guidelines = run_stage("guidelines", do_guidelines)

        def do_labeling() -> dict[str, dict[int, int]]:
            out = {}
            for attr in table.attributes:
                pair_stats = {
                    q: table.pair_stats(q, attr) for q in correlated[attr]
                }
                out[attr] = label_representatives(
                    llm=llm,
                    table=table,
                    attr=attr,
                    sampled_indices=sampling[attr].sampled_indices,
                    guideline_text=guidelines[attr],
                    stats=stats[attr],
                    pair_stats=pair_stats,
                    correlated=correlated[attr],
                    config=config,
                    on_failure=degrade_into("labeling"),
                )
            return out

        llm_labels = run_stage("labeling", do_labeling)

        # --- Step 3: training data construction (Algorithm 1) ----------
        # Verification first for *all* attributes (it swaps refined
        # criteria into the feature space, changing base dimensions),
        # then feature/label assembly against the final feature space.
        def do_training_data():
            # Verification tasks are per-attribute independent: each
            # one reads shared immutable state (table, encodings) and
            # mutates only its own attribute's criteria block, so the
            # fan-out is safe and order-free (LLM responses and spawned
            # seeds are pure functions of (seed, attr)).
            outcomes = parallel_attr_map(
                lambda attr: verify_attribute(
                    llm=llm,
                    table=table,
                    attr=attr,
                    feature_space=feature_space,
                    sampling=sampling[attr],
                    llm_labels=llm_labels[attr],
                    correlated=correlated[attr],
                    config=config,
                    on_failure=degrade_into("refinement"),
                ),
                table.attributes,
                config.n_jobs,
                span="verify",
            )
            if parallel:
                # Criteria refinement invalidated blocks; warm the
                # rebuilt cache before assembly workers gather
                # correlated blocks from it.
                feature_space.warm()
            return parallel_attr_map(
                lambda attr: assemble_training_data(
                    llm=llm,
                    table=table,
                    attr=attr,
                    feature_space=feature_space,
                    outcome=outcomes[attr],
                    correlated=correlated[attr],
                    config=config,
                    on_failure=degrade_into("augmentation"),
                ),
                table.attributes,
                config.n_jobs,
                span="assemble",
            )

        training = run_stage("training_data", do_training_data)

        # --- Step 4: detector training ----------------------------------
        detector = run_stage(
            "train_detector",
            lambda: ErrorDetector(config).fit(training, feature_space),
        )

        details["n_sampled"] = {
            attr: len(s.sampled_indices) for attr, s in sampling.items()
        }
        details["training"] = {
            attr: {
                "propagated": t.n_propagated,
                "removed": t.n_removed_by_verification,
                "augmented": t.n_augmented,
                "criteria_kept": t.n_criteria_kept,
                "criteria_dropped": t.n_criteria_dropped,
            }
            for attr, t in training.items()
        }
        details["degraded_attrs"] = {
            attr: sorted(stage_names)
            for attr, stage_names in sorted(degraded.items())
        }
        details["resilience"] = self._resilience_summary(llm)
        # Sample provenance rides into the artifact manifest (key
        # "sample"); None means the fit saw every row.
        details["sample"] = sample_info
        return FittedZeroED(
            config=config,
            llm=llm,
            table=table,
            featurizers=feature_space.featurizers,
            correlated=correlated,
            embedding=shared_embedding(config),
            detector=detector,
            training=training,
            stages=stages,
            details=details,
            ledger_summary=llm.ledger.summary(),
        )

    # ------------------------------------------------------------------
    def _wrap_llm(self, config: ZeroEDConfig, table: Table) -> LLMClient:
        """The fit-time client: resilience inside, checkpoints outside.

        ``CheckpointedLLM(ResilientLLM(client))`` — cache hits skip the
        retry machinery entirely; misses get its full protection.  A
        client that is already a :class:`ResilientLLM` (caller tuned
        its own policy) is respected as-is.  Both wrappers share the
        inner token ledger, so accounting is unchanged.
        """
        llm = self.llm
        if not isinstance(llm, (ResilientLLM, CheckpointedLLM)):
            llm = ResilientLLM(
                llm, RetryPolicy.from_config(config), seed=config.seed
            )
        if config.checkpoint_dir and not isinstance(llm, CheckpointedLLM):
            llm = CheckpointedLLM(
                llm,
                config.checkpoint_dir,
                fit_fingerprint(table, config, llm.model_name),
            )
        return llm

    @staticmethod
    def _resilience_summary(llm: LLMClient) -> dict:
        """Failure-path accounting for ``details["resilience"]``."""
        out: dict = {}
        client = llm
        if isinstance(client, CheckpointedLLM):
            out["checkpoint"] = client.summary()
            client = client.inner
        if isinstance(client, ResilientLLM):
            out.update(client.stats.summary())
            out["breaker"] = client.breaker.snapshot()
        return out


class FittedZeroED:
    """A trained ZeroED pipeline: per-attribute detectors plus the
    frozen featurizers needed to score tables without any LLM.

    Produced by :meth:`ZeroED.fit`.  Holds what :meth:`scorer` and
    :meth:`save` read — featurizers over the frozen training
    statistics, correlated attributes, the embedding model, detectors —
    and no feature blocks of the training table: every table, that one
    included, is featurized afresh through
    :class:`repro.serving.scorer.BatchScorer`.
    """

    def __init__(
        self,
        *,
        config: ZeroEDConfig,
        llm: LLMClient,
        table: Table,
        featurizers: dict[str, AttributeFeaturizer],
        correlated: dict[str, list[str]],
        embedding: SubwordHashEmbedding | None,
        detector: ErrorDetector,
        training: dict[str, AttributeTrainingData],
        stages: list[StageInfo],
        details: dict,
        ledger_summary: dict,
    ) -> None:
        self.config = config
        self.llm = llm
        self.table = table
        self.featurizers = featurizers
        self.correlated = correlated
        self.embedding = embedding
        self.detector = detector
        self.training = training
        self.stages = stages
        self.details = details
        self.ledger_summary = ledger_summary

    @property
    def attributes(self) -> list[str]:
        """Schema the detectors were fitted on (scoring requires it)."""
        return self.table.attributes

    # ------------------------------------------------------------------
    def score(self, table: Table) -> DetectionResult:
        """Score every cell of ``table`` with the fitted detectors.

        Every table goes through :meth:`scorer`, which featurizes its
        values against the frozen training statistics (zero LLM calls,
        no sampling).  Scoring the fit's own table is ``detect``: the
        result then also carries the fit's provenance — method, the fit
        stages before the scoring ones, token counts and details.
        """
        result = self.scorer().score_table(table)
        if table is not self.table:
            return result
        ledger = self.ledger_summary
        return dataclasses.replace(
            result,
            method=f"zeroed[{self.llm.model_name}]",
            stages=list(self.stages) + result.stages,
            n_llm_requests=ledger["requests"],
            input_tokens=ledger["input_tokens"],
            output_tokens=ledger["output_tokens"],
            details=dict(self.details),
        )

    # ------------------------------------------------------------------
    def scorer(self, n_jobs: int | None = None):
        """A :class:`~repro.serving.scorer.BatchScorer` over this fit.

        Shares the live featurizers and detector (no disk round-trip);
        bitwise-equal to a scorer loaded from :meth:`save`'s artifact.
        """
        from repro.serving.scorer import BatchScorer

        return BatchScorer.from_fitted(self, n_jobs=n_jobs)

    def save(self, path: str | Path) -> Path:
        """Persist this fit as a versioned on-disk detector artifact.

        Writes ``manifest.json`` + ``arrays.npz`` under ``path`` (see
        :mod:`repro.serving.artifact`); reload with
        :meth:`repro.serving.scorer.BatchScorer.from_artifact`.
        """
        from repro.serving.artifact import DetectorArtifact

        return DetectorArtifact.from_fitted(self).save(path)


def _context_row(
    table: Table, i: int, attr: str, correlated: list[str]
) -> dict[str, str]:
    row = {attr: table.cell(i, attr)}
    for q in correlated:
        row[q] = table.cell(i, q)
    return row
