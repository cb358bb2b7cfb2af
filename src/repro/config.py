"""Configuration for the ZeroED pipeline.

Defaults follow the paper's implementation details (§IV-A): label 5% of
the data, cluster count = data size × label rate, 2 correlated
attributes, batches of 20 tuples, a two-layer MLP, Qwen2.5-72b as the
default LLM.  The four ablation switches correspond to Table IV's rows
(w/o Guid. / Crit. / Corr. / Veri.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Step-2 clustering engines; the single source for the sampling
#: layer's dispatch (concrete engines only — ``auto`` resolves to one
#: of these before reaching the sampling layer).
SAMPLING_ENGINES = ("exact", "fast")

#: Step-4 MLP engines (detector dispatch), mirroring the
#: sampling-engine pattern.
DETECTOR_ENGINES = ("exact", "fast")

#: What config validation and the CLI accept: the concrete engines
#: plus ``auto``, which picks per table at detect time.
SAMPLING_ENGINE_CHOICES = SAMPLING_ENGINES + ("auto",)
DETECTOR_ENGINE_CHOICES = DETECTOR_ENGINES + ("auto",)

#: ``engine="auto"`` crossover: at or above this row count the fast
#: engine wins; below it the exact engine is already sub-second and
#: the fast engine's restart/collapse overhead makes it *slower*.
#: Step-2 sampling over every Tax attribute, as recorded: at 1k rows
#: exact 0.49 s vs fast 0.61 s; at 5k rows exact 10.9 s vs fast 3.0 s.
#: The ~2k crossover also matches where the fast detector's subsample
#: cap starts paying off.
AUTO_ENGINE_MIN_ROWS = 2_000


@dataclass
class ZeroEDConfig:
    """All tunables of the ZeroED pipeline."""

    # --- data sampling and labeling (§III-C) ---
    label_rate: float = 0.05
    """Fraction of values per attribute the LLM labels (= cluster count
    / column size)."""

    batch_size: int = 20
    """Tuples per LLM labeling batch."""

    clustering: str = "kmeans"
    """Sampling strategy: 'kmeans', 'agglomerative', or 'random'
    (Table VI)."""

    sampling_engine: str = "exact"
    """Step-2 clustering engine.  'exact' (default) runs full Lloyd
    k-means and produces byte-identical masks run-over-run and
    release-over-release; 'fast' collapses duplicate feature rows and
    runs mini-batch k-means over blocked float32 GEMMs — ≥5× faster at
    10k rows, deterministic under the seed, but cluster boundaries
    (hence masks) may differ from 'exact' within the tolerance band
    recorded in tests/test_sampling_engine.py; 'auto' resolves per
    table at detect time — 'fast' at >= AUTO_ENGINE_MIN_ROWS rows,
    'exact' below."""

    # --- feature representation (§III-B) ---
    n_correlated: int = 2
    """Top-k NMI-correlated attributes whose base features are
    concatenated (Fig. 10 sweeps 1-5)."""

    embedding_dim: int = 32
    """Dimensionality of the semantic (subword-hash) embedding block."""

    use_criteria_features: bool = True
    """Ablation switch: error reason-aware criteria features
    (w/o Crit.)."""

    use_correlated_features: bool = True
    """Ablation switch: correlated-attribute feature concatenation
    (w/o Corr.)."""

    use_semantic_features: bool = True
    """Extension switch: semantic embedding block (feature-block
    ablation beyond the paper's Table IV)."""

    use_statistical_features: bool = True
    """Extension switch: value/vicinity/pattern frequency block."""

    criteria_sample_size: int = 40
    """Random tuples serialized into the criteria-reasoning prompt."""

    # --- guidelines and labeling (§III-C) ---
    use_guidelines: bool = True
    """Ablation switch: two-step guideline generation (w/o Guid.)."""

    # --- training data construction (§III-D, Algorithm 1) ---
    use_verification: bool = True
    """Ablation switch: mutual verification + augmentation (w/o
    Veri.)."""

    propagate_labels: bool = True
    """In-cluster label propagation (separable extension switch)."""

    criteria_accuracy_threshold: float = 0.5
    """Algorithm 1 line 11: minimum accuracy on right-labeled data for a
    criterion to survive."""

    data_pass_threshold: float = 0.9
    """Algorithm 1 line 17: minimum criteria pass-rate for a propagated
    right-label to survive."""

    data_verify_accuracy: float = 0.85
    """Only criteria at least this accurate on right-labeled data may
    veto propagated right labels.  Below it, a criterion is still kept
    as a feature (Algorithm 1's 0.5 bar) but is too noisy to delete
    training rows — deletion by a wrong criterion creates blind spots
    the detector turns into false positives."""

    augment_ratio: float = 1.0
    """Target (augmented errors) / (needed to balance classes); 1.0
    balances the training set."""

    # --- detector (§III-D) ---
    mlp_hidden: int = 64
    mlp_epochs: int = 60
    mlp_lr: float = 3e-3
    decision_threshold: float = 0.5

    detector_engine: str = "exact"
    """Step-4 MLP engine.  Both engines predict once per unique feature
    row; they differ in dtype and in how they train.  'exact' (default)
    trains and predicts in float64 with the historical operation order,
    on every training row — masks stay byte-identical run-over-run and
    release-over-release; 'fast' runs the same loop in float32 over
    multiplicity-weighted unique training rows (capped at a seeded
    subsample) — deterministic under the seed, but probabilities (hence
    masks) may shift within the tolerance band recorded in
    tests/test_step34_engine.py; 'auto' resolves per table at detect
    time — 'fast' at >= AUTO_ENGINE_MIN_ROWS rows, 'exact' below."""

    # --- LLM ---
    llm_model: str = "qwen2.5-72b"
    """Profile name for the simulated backend (Table V)."""

    # --- LLM fault tolerance (resilience layer) ---
    llm_max_retries: int = 2
    """Retries per LLM call beyond the first attempt (0 disables).
    Transient failures only: timeouts, HTTP 408/429/5xx, malformed
    replies; other 4xx fail immediately."""

    llm_backoff_s: float = 0.5
    """Base retry sleep; retry ``k`` waits ``base * 2**(k-1)`` (plus
    deterministic seeded jitter), capped at ``llm_backoff_max_s``."""

    llm_backoff_max_s: float = 30.0

    llm_timeout_s: float | None = None
    """Per-attempt wall-clock bound enforced by the resilience layer
    (None trusts the client's own transport timeout)."""

    llm_breaker_threshold: int = 10
    """Consecutive failed attempts that open the circuit breaker
    (fail-fast until the cooldown); 0 disables the breaker."""

    llm_breaker_cooldown_s: float = 30.0

    degrade_on_failure: bool = True
    """Per-attribute graceful degradation: when an attribute's LLM
    stage exhausts its retries, fall back to pattern/frequency-only
    signals for that attribute (recorded in
    ``result.details["degraded_attrs"]``) instead of aborting the fit.
    False restores fail-fast: the first exhausted call raises."""

    checkpoint_dir: str | None = None
    """Directory for per-attribute fit checkpoints.  When set, every
    LLM response is persisted as it arrives and an interrupted fit
    rerun with the same table/seed/model resumes from disk without
    re-spending tokens (see :mod:`repro.llm.checkpoint`)."""

    # --- out-of-core execution (streaming layer) ---
    sample_rows: int | None = None
    """Fit-time row budget: when set and the training table is larger,
    :meth:`ZeroED.fit` draws a seeded reservoir sample of this many
    rows in one streaming pass and runs the LLM-guided phase on the
    sample only — the frozen statistics then score the full table
    out-of-core through the chunked scorer.  The sample is
    deterministic under ``seed`` and independent of how the row stream
    is chunked.  ``None`` (default) fits on every row."""

    chunk_rows: int | None = None
    """Preferred shard size for out-of-core scoring
    (``score-csv --chunk-rows`` / :mod:`repro.serving.streaming`).
    ``None`` leaves the choice to the call site
    (``streaming.DEFAULT_CHUNK_ROWS``); the chunked mask is
    byte-identical to the in-memory one for every value."""

    bad_rows: str = "fail"
    """Malformed-CSV-row policy for streamed scoring: ``"fail"``
    (default) raises on the first row longer than the header —
    the historical behaviour; ``"quarantine"`` records offenders in a
    JSONL sidecar and drops them from the stream, so one corrupt row
    deep in a large file becomes a repairable journal entry instead of
    a dead job (see :mod:`repro.data.csvio`)."""

    # --- execution ---
    n_jobs: int = 1
    """Worker threads for the per-attribute stages (Step-2 sampling,
    Step-3 verification + assembly, Step-4 detector train/predict).
    1 (default) runs the serial path bit-for-bit; -1 means one worker
    per CPU core.  Masks are byte-identical for every value — each
    per-attribute task is a pure function of (seed, attr) and results
    are collected in attribute order (see repro.parallel)."""

    n_worker_procs: int = 0
    """Scoring worker *processes* for the serving front (``repro serve
    --workers``).  0 (default) scores in-process — the single-process
    PR 8 behaviour; N >= 1 fans micro-batches to N spawn-started
    worker processes each holding the frozen scorer (see
    :mod:`repro.serving.workers`).  Masks are byte-identical for every
    value; only throughput changes.  Orthogonal to ``n_jobs``: workers
    score with ``n_jobs=1`` internally (one pool level)."""

    # --- observability (repro.obs) ---
    trace_out: str | None = None
    """Write a Chrome trace-event JSON file (loadable in Perfetto /
    ``chrome://tracing``) covering the fit's span tree — every stage
    plus the per-attribute fan-outs — to this path.  Tracing is
    observe-only: masks are byte-identical with it on or off.  ``None``
    (default) keeps the free no-op tracer."""

    log_json: bool = False
    """Emit structured JSON-lines logs on stderr (one object per
    record: timestamp, level, event, fields, trace/request-id
    correlation).  False keeps the library quiet unless the embedding
    application configured ``logging`` itself."""

    log_level: str | None = None
    """Log threshold for the ``repro`` logger hierarchy when set
    (``debug``/``info``/``warning``/``error``/``critical``); ``None``
    leaves logging unconfigured (quiet by default)."""

    # --- misc ---
    seed: int = 0
    min_cluster_count: int = 4
    max_cluster_count: int = 500
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.label_rate <= 1.0:
            raise ConfigError(f"label_rate {self.label_rate} outside (0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.n_correlated < 0:
            raise ConfigError("n_correlated must be >= 0")
        for name in ("mlp_hidden", "mlp_epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.mlp_lr) and self.mlp_lr > 0):
            raise ConfigError(
                f"mlp_lr must be finite and positive, got {self.mlp_lr}"
            )
        if self.clustering not in ("kmeans", "agglomerative", "random"):
            raise ConfigError(
                f"clustering must be kmeans/agglomerative/random, "
                f"got {self.clustering!r}"
            )
        if self.sampling_engine not in SAMPLING_ENGINE_CHOICES:
            raise ConfigError(
                f"sampling_engine must be one of {SAMPLING_ENGINE_CHOICES}, "
                f"got {self.sampling_engine!r}"
            )
        if self.detector_engine not in DETECTOR_ENGINE_CHOICES:
            raise ConfigError(
                f"detector_engine must be one of {DETECTOR_ENGINE_CHOICES}, "
                f"got {self.detector_engine!r}"
            )
        if self.n_jobs != -1 and self.n_jobs < 1:
            raise ConfigError(
                f"n_jobs must be >= 1 or -1 (all cores), got {self.n_jobs}"
            )
        if self.n_worker_procs < 0:
            raise ConfigError(
                f"n_worker_procs must be >= 0 (0 = in-process), "
                f"got {self.n_worker_procs}"
            )
        for name in ("criteria_accuracy_threshold", "data_pass_threshold"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        if self.llm_max_retries < 0:
            raise ConfigError(
                f"llm_max_retries must be >= 0, got {self.llm_max_retries}"
            )
        for name in ("llm_backoff_s", "llm_backoff_max_s",
                     "llm_breaker_cooldown_s"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.llm_timeout_s is not None and self.llm_timeout_s <= 0:
            raise ConfigError(
                f"llm_timeout_s must be positive or None, "
                f"got {self.llm_timeout_s}"
            )
        if self.llm_breaker_threshold < 0:
            raise ConfigError(
                f"llm_breaker_threshold must be >= 0, "
                f"got {self.llm_breaker_threshold}"
            )
        for name in ("sample_rows", "chunk_rows"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(
                    f"{name} must be >= 1 or None, got {value}"
                )
        if self.log_level is not None:
            from repro.obs.log import LEVELS

            if self.log_level.lower() not in LEVELS:
                raise ConfigError(
                    f"log_level must be one of {LEVELS} or None, "
                    f"got {self.log_level!r}"
                )
        if self.bad_rows not in ("fail", "quarantine"):
            raise ConfigError(
                f"bad_rows must be 'fail' or 'quarantine', "
                f"got {self.bad_rows!r}"
            )

    def resolve_sampling_engine(self, n_rows: int) -> str:
        """Concrete Step-2 engine for a table of ``n_rows`` rows."""
        if self.sampling_engine != "auto":
            return self.sampling_engine
        return "fast" if n_rows >= AUTO_ENGINE_MIN_ROWS else "exact"

    def resolve_detector_engine(self, n_rows: int) -> str:
        """Concrete Step-4 engine for a table of ``n_rows`` rows."""
        if self.detector_engine != "auto":
            return self.detector_engine
        return "fast" if n_rows >= AUTO_ENGINE_MIN_ROWS else "exact"

    def clusters_for(self, n_rows: int) -> int:
        """Cluster count for one attribute: data size × label rate."""
        k = int(round(n_rows * self.label_rate))
        return max(self.min_cluster_count, min(k, self.max_cluster_count, n_rows))

    def ablated(self, component: str) -> "ZeroEDConfig":
        """A copy with one paper ablation applied.

        ``component`` is one of ``guid``, ``crit``, ``corr``, ``veri``
        (Table IV's rows).
        """
        import dataclasses

        switches = {
            "guid": {"use_guidelines": False},
            "crit": {"use_criteria_features": False},
            "corr": {"use_correlated_features": False},
            "veri": {"use_verification": False},
        }
        if component not in switches:
            raise ConfigError(
                f"unknown ablation {component!r}; one of {sorted(switches)}"
            )
        return dataclasses.replace(self, **switches[component])
