"""The artifact registry behind every scoring service.

ZeroED fits one detector per dataset, so a service hosts one or more
fitted datasets, and a service over one dataset is a registry of one.
:class:`ArtifactRegistry` holds them:

* **keyed by schema fingerprint** — the SHA-256 of the attribute list
  (the artifact manifest's ``schema_fingerprint``) is the tenant key;
  inserting a scorer whose fingerprint is already known *replaces*
  that tenant (that is exactly what a hot reload is), a new
  fingerprint *adds* a tenant.  ``dataset`` names resolve to
  fingerprints for every known tenant, resident or evicted, so clients
  can route by either.
* **one reload rule** — re-reading a path a tenant is known by must
  still yield that tenant's schema; otherwise the load fails with a
  ``schema mismatch`` :class:`ArtifactError` and the old scorer keeps
  serving, so no tenant's wire contract changes under its clients.
* **LRU within a memory budget** — each entry is charged its decoded
  array bytes (the dominant resident cost of a scorer; the v2
  compressed file on disk would *under*-charge).  Inserting past
  ``budget_bytes`` evicts least-recently-*scored* entries — never a
  pinned tenant (the service pins its default before inserting it),
  never the entry being inserted — and counts the eviction.  Evicted
  tenants are remembered by path: a later request for that fingerprint
  or dataset reloads transparently (a *miss*), so eviction degrades
  latency, not availability.
* **thread-safe, atomic swaps** — routing hands out immutable entry
  snapshots; an in-flight batch keeps scoring on the scorer it was
  routed to even if the tenant is replaced or evicted mid-batch (plain
  reference semantics).

``snapshot()`` feeds ``GET /healthz``: resident tenants (fingerprint,
dataset, bytes, path), the budget, and the hit/miss/eviction/load
counters an operator needs to size the budget.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ArtifactError
from repro.serving.artifact import schema_fingerprint
from repro.serving.scorer import BatchScorer


@dataclass(frozen=True)
class RegistryEntry:
    """One resident tenant: an immutable routing snapshot."""

    fingerprint: str
    dataset: str | None
    #: Where the scorer was loaded from; None for a live fit's scorer.
    path: Path | None
    scorer: BatchScorer
    arrays_sha256: str | None
    resident_bytes: int


class ArtifactRegistry:
    """LRU cache of fitted detectors, one service → many datasets."""

    def __init__(
        self,
        budget_bytes: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ArtifactError(
                f"registry budget must be >= 1 byte or None, "
                f"got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._n_jobs = n_jobs
        self._lock = threading.Lock()
        #: fingerprint -> entry, most recently *used* last.
        self._resident: dict[str, RegistryEntry] = {}
        self._last_used: dict[str, float] = {}
        #: fingerprint -> (artifact path, dataset) of every tenant ever
        #: inserted; survives eviction so a miss can reload
        #: transparently and a dataset name still routes.
        self._known: dict[str, tuple[Path | None, str | None]] = {}
        self._pinned: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.loads = 0

    # ------------------------------------------------------------------
    def insert(self, scorer, path: str | Path | None = None) -> RegistryEntry:
        """Make ``scorer`` resident under its schema fingerprint.

        Adds a tenant, or replaces the one with the same fingerprint.
        ``path`` is where the scorer was loaded from (None for a live
        fit's scorer, which must be pinned: it cannot reload).
        """
        info = scorer.info
        entry = RegistryEntry(
            fingerprint=schema_fingerprint(scorer.attributes),
            dataset=info.get("dataset"),
            path=Path(path) if path is not None else None,
            scorer=scorer,
            arrays_sha256=info.get("arrays_sha256"),
            resident_bytes=int(info.get("decoded_bytes") or 0),
        )
        with self._lock:
            self.loads += 1
            self._resident[entry.fingerprint] = entry
            self._known[entry.fingerprint] = (entry.path, entry.dataset)
            self._last_used[entry.fingerprint] = time.monotonic()
            self._evict_over_budget(keep=entry.fingerprint)
        return entry

    def upsert(self, path: str | Path) -> RegistryEntry:
        """Load an artifact and make it resident (add or replace).

        When a tenant is already known by ``path``, the artifact there
        must still carry that tenant's schema (see :meth:`_load`).
        Returns the new entry.
        """
        path = Path(path)
        with self._lock:
            expected = next(
                (fp for fp, (at, _) in self._known.items() if at == path),
                None,
            )
        return self.insert(self._load(path, expected), path)

    def pin(self, fingerprint: str) -> None:
        """Exempt a tenant (the service's default) from eviction."""
        with self._lock:
            self._pinned.add(fingerprint)

    def get(self, fingerprint: str) -> RegistryEntry:
        """Resolve a tenant; reloads from its known path on a miss.

        Raises :class:`ArtifactError` for a fingerprint the registry
        has never seen.
        """
        with self._lock:
            entry = self._resident.get(fingerprint)
            if entry is not None:
                self.hits += 1
                self._last_used[fingerprint] = time.monotonic()
                return entry
            known = self._known.get(fingerprint)
            if known is not None:
                self.misses += 1
        if known is None:
            raise ArtifactError(
                f"no artifact registered for schema fingerprint "
                f"{fingerprint!r}"
            )
        # Evicted tenant: reload outside the lock (disk IO), then race
        # benignly — last loader wins, both entries score identically.
        path = known[0]
        return self.insert(self._load(path, fingerprint), path)

    def by_dataset(self, dataset: str) -> RegistryEntry:
        """Resolve a tenant, resident or evicted, by its dataset name."""
        with self._lock:
            matches = [
                fp for fp, (_, name) in self._known.items() if name == dataset
            ]
        if not matches:
            raise ArtifactError(
                f"no resident artifact was fitted on dataset {dataset!r}"
            )
        if len(matches) > 1:
            raise ArtifactError(
                f"dataset {dataset!r} is ambiguous across "
                f"{len(matches)} artifacts; route by fingerprint instead"
            )
        return self.get(matches[0])

    def peek(self, fingerprint: str) -> RegistryEntry:
        """A resident tenant, without counting a hit or touching LRU
        order (the service reads its pinned default this way)."""
        with self._lock:
            return self._resident[fingerprint]

    def fingerprints(self) -> list[str]:
        with self._lock:
            return list(self._resident)

    # ------------------------------------------------------------------
    def _load(self, path: Path, expected: str | None) -> BatchScorer:
        """Load the artifact at ``path`` through :class:`BatchScorer`.

        With ``expected`` set, the artifact must carry that schema
        fingerprint.  It is checked before anything else is read from
        the loaded scorer.
        """
        scorer = BatchScorer.from_artifact(path, n_jobs=self._n_jobs)
        if (
            expected is not None
            and schema_fingerprint(scorer.attributes) != expected
        ):
            raise ArtifactError(
                f"reload schema mismatch: {path} serves schema "
                f"fingerprint {expected!r}, the artifact there now "
                f"carries {scorer.attributes!r}"
            )
        return scorer

    def _evict_over_budget(self, keep: str) -> None:
        """Drop LRU entries until within budget (caller holds lock)."""
        if self.budget_bytes is None:
            return
        def total() -> int:
            return sum(e.resident_bytes for e in self._resident.values())

        while total() > self.budget_bytes and len(self._resident) > 1:
            victims = sorted(
                (
                    fp
                    for fp in self._resident
                    if fp != keep and fp not in self._pinned
                ),
                key=lambda fp: self._last_used.get(fp, 0.0),
            )
            if not victims:
                return
            victim = victims[0]
            del self._resident[victim]
            self._last_used.pop(victim, None)
            self.evictions += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The /healthz view: residency + counters."""
        with self._lock:
            resident = [
                {
                    "fingerprint": entry.fingerprint,
                    "dataset": entry.dataset,
                    "path": (
                        str(entry.path) if entry.path is not None else None
                    ),
                    "resident_bytes": entry.resident_bytes,
                    "pinned": entry.fingerprint in self._pinned,
                }
                for entry in self._resident.values()
            ]
            return {
                "resident": resident,
                "resident_bytes": sum(
                    e["resident_bytes"] for e in resident
                ),
                "budget_bytes": self.budget_bytes,
                "known": len(self._known),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "loads": self.loads,
            }
