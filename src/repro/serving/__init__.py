"""Serving subsystem: persistent detector artifacts + warm scoring.

The train-once / score-many layer over the ZeroED pipeline (PR 5):

* :mod:`repro.serving.artifact` — versioned, tamper-evident on-disk
  ``DetectorArtifact`` (``manifest.json`` + ``arrays.npz``);
* :mod:`repro.serving.scorer` — :class:`BatchScorer`, featurizing
  unseen tables/rows against frozen training statistics with zero LLM
  calls;
* :mod:`repro.serving.service` — :class:`ScoringService`, a stdlib
  ``ThreadingHTTPServer`` JSON API with micro-batched request handling,
  bounded-admission load shedding, per-request deadlines, graceful
  drain and hot artifact reload;
* :mod:`repro.serving.registry` — :class:`ArtifactRegistry`, the
  fingerprint-keyed LRU of fitted detectors behind every service: the
  scorer a service starts with is its pinned default tenant, so a
  service over one artifact is a registry of one;
* :mod:`repro.serving.workers` — the spawn-started process pool that
  scores micro-batches off the front process;
* :mod:`repro.serving.streaming` — out-of-core sharded scoring and
  sampled fitting (PR 7);
* :mod:`repro.serving.jobs` — :class:`ScoreJournal`, the crash-safe
  per-shard journal that makes streaming score jobs resumable (PR 8).
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    DetectorArtifact,
)
from repro.serving.jobs import JournalShard, ScoreJournal, job_fingerprint
from repro.serving.scorer import BatchScorer
from repro.serving.service import (
    DeadlineExceeded,
    ScoringService,
    ServiceOverloaded,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "BatchScorer",
    "DeadlineExceeded",
    "DetectorArtifact",
    "JournalShard",
    "ScoreJournal",
    "ScoringService",
    "ServiceOverloaded",
    "job_fingerprint",
]
