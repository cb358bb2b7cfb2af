"""Versioned on-disk detector artifacts (serving subsystem, PR 5).

A fitted ZeroED pipeline is an expensive object to produce — criteria
reasoning, representative sampling, holistic LLM labeling, mutual
verification, MLP training — but a cheap one to *describe*: everything
scoring needs is a handful of per-attribute facts.  An artifact
captures exactly those facts in two files under one directory::

    artifact/
      manifest.json   structure: schema, config, engines, per-attribute
                      criteria (source + accuracy), model kinds,
                      embedding parameters, integrity checksum
      arrays.npz      bulk data: value-frequency tables, vicinity
                      pair/lhs counts, MLP flat parameter vectors,
                      scaler statistics

Design points:

* **Versioned** — ``format``/``version`` fields gate loading; a future
  incompatible layout bumps :data:`ARTIFACT_VERSION` and old readers
  fail with a clean :class:`~repro.errors.ArtifactError` instead of
  garbage scores.
* **Integrity-checked** — the manifest records the SHA-256 of
  ``arrays.npz`` and a fingerprint of the schema; checksum or
  fingerprint mismatches, unreadable JSON, pickled arrays, and
  non-compiling criteria all raise :class:`ArtifactError`.  These are
  *corruption* checks (truncated copies, bit rot, mismatched file
  pairs), **not** an authentication boundary: the checksums are
  unkeyed, and restoring an artifact compiles its criteria sources
  (in the restricted :mod:`repro.criteria` namespace), so load
  artifacts only from sources you trust, exactly as you would a
  pickle.
* **Bitwise-faithful** — MLP parameters and scaler statistics are
  stored at full precision in their training dtype, and the frozen
  featurizer statistics restore the exact lookup tables the live
  featurizer consults, so a reloaded
  :class:`~repro.serving.scorer.BatchScorer` reproduces the in-memory
  scorer's masks bit for bit (pinned in ``tests/test_serving.py``).
* **Forward-compatible provenance** — later PRs append *optional*
  manifest keys that old artifacts simply lack; readers treat an
  absent key as "recorded before that PR" and never fail on it.
  Current optional keys: ``resilience`` (PR 6 — degraded attributes
  and retry accounting from the fitting run; absent = pre-PR-6) and
  ``sample`` (PR 7 — reservoir-sampling provenance when the fit ran
  on a sampled subset: method, requested/sampled/source row counts,
  seed and an index checksum; ``null`` = the fit saw every row,
  absent = pre-PR-7).  New provenance must follow the same pattern:
  optional key, documented null/absent semantics, no version bump.

Format v2 (PR 9) — compressed, deduplicated storage
---------------------------------------------------

Version 1 stored every array raw in an uncompressed ``arrays.npz``;
the bulk of a real artifact is *strings* — per-attribute vocabularies
plus vicinity pair tables that repeat the same values thousands of
times, each padded to the array's widest entry by NumPy's fixed-width
unicode dtype.  Version 2 keeps the exact same logical arrays (and
``restore()`` is untouched) but encodes them before writing:

* **shared string pool** — every unicode array becomes an ``int32``
  index array into one deduplicated ``__pool__`` of distinct strings
  (first-appearance order, so the encoding is deterministic);
* **lossless numeric downcasts** — ``int64`` count arrays shrink to
  the smallest integer dtype that holds their range; ``float64``
  arrays (MLP parameters, scaler statistics) are stored as
  ``float32`` *only* when every element survives the round-trip
  bitwise, so fast-engine models (trained in float32) always shrink
  while exact-engine float64 models keep full precision;
* **compressed container** — the encoded arrays are written with
  ``np.savez_compressed`` (deflate) instead of ``np.savez``.

Decoding restores the original arrays — values *and* dtypes —
bit-for-bit, so a v2 round-trip scores byte-identically to v1 and to
the in-memory scorer.  The ``encoding`` manifest key records which
keys were pooled/downcast; the SHA-256 integrity scheme is unchanged
(the checksum covers the on-disk payload).  Readers accept versions
1 and 2; ``save(..., version=1)`` still writes the v1 layout for
back-compat tooling and tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import time
import zipfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.config import ZeroEDConfig
from repro.core.detector import ErrorDetector
from repro.core.featurize import AttributeFeaturizer
from repro.criteria import Criterion
from repro.data.stats import AttributeStats
from repro.errors import ArtifactError, ReproError
from repro.text.embeddings import SubwordHashEmbedding
from repro.version import __version__

ARTIFACT_FORMAT = "zeroed-detector-artifact"
ARTIFACT_VERSION = 2
#: Versions this reader understands.  v1 = raw uncompressed arrays
#: (PR 5); v2 = pooled strings + lossless downcasts + deflate (PR 9).
SUPPORTED_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: v2 string-pool array name inside ``arrays.npz`` — reserved; never a
#: logical array key (those are all ``a{i}_...``).
POOL_KEY = "__pool__"


def schema_fingerprint(attributes: list[str]) -> str:
    """Stable fingerprint of an attribute schema (order-sensitive)."""
    joined = "\x1f".join(attributes)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _str_array(values: list[str]) -> np.ndarray:
    if not values:
        return np.zeros(0, dtype="<U1")
    return np.asarray(values, dtype=np.str_)


#: Signed integer dtypes tried smallest-first for the v2 downcast.
_INT_DOWNCASTS = (np.int8, np.int16, np.int32)


def _encode_v2(
    arrays: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], dict]:
    """Encode logical arrays into the v2 on-disk layout.

    Returns ``(encoded_arrays, encoding_meta)``; the meta dict lands in
    the manifest under ``"encoding"`` and drives :func:`_decode_v2`.
    Every transformation is lossless: pooled strings decode to the
    identical unicode arrays, and numeric downcasts are applied only
    when the round-trip back to the source dtype is bitwise exact.
    """
    pool_index: dict[str, int] = {}
    encoded: dict[str, np.ndarray] = {}
    pooled: list[str] = []
    int_cast: dict[str, str] = {}
    float_cast: dict[str, str] = {}
    for key, arr in arrays.items():
        if arr.dtype.kind == "U":
            indices = np.empty(arr.shape[0], dtype=np.int32)
            for pos, value in enumerate(arr.tolist()):
                slot = pool_index.get(value)
                if slot is None:
                    slot = pool_index[value] = len(pool_index)
                indices[pos] = slot
            encoded[key] = indices
            pooled.append(key)
        elif arr.dtype == np.int64 and arr.ndim == 1:
            target = arr
            if arr.size:
                lo, hi = int(arr.min()), int(arr.max())
                for small in _INT_DOWNCASTS:
                    info = np.iinfo(small)
                    if info.min <= lo and hi <= info.max:
                        target = arr.astype(small)
                        break
            else:
                target = arr.astype(np.int8)
            encoded[key] = target
            if target.dtype != np.int64:
                int_cast[key] = "int64"
        elif arr.dtype == np.float64:
            shrunk = arr.astype(np.float32)
            if np.array_equal(
                shrunk.astype(np.float64), arr
            ) and np.array_equal(
                np.signbit(shrunk.astype(np.float64)), np.signbit(arr)
            ):
                encoded[key] = shrunk
                float_cast[key] = "float64"
            else:
                encoded[key] = arr
        else:
            encoded[key] = arr
    encoded[POOL_KEY] = _str_array(list(pool_index))
    meta = {
        "scheme": "pool+downcast",
        "pooled_strings": pooled,
        "int_cast": int_cast,
        "float_cast": float_cast,
    }
    return encoded, meta


def _decode_v2(
    encoded: dict[str, np.ndarray], meta: dict
) -> dict[str, np.ndarray]:
    """Invert :func:`_encode_v2` back to the logical v1-shaped arrays."""
    if not isinstance(meta, dict) or meta.get("scheme") != "pool+downcast":
        raise ArtifactError(
            f"v2 artifact has an unknown encoding scheme: "
            f"{meta.get('scheme') if isinstance(meta, dict) else meta!r}"
        )
    if POOL_KEY not in encoded:
        raise ArtifactError(f"v2 artifact is missing its {POOL_KEY} array")
    pool = encoded[POOL_KEY].tolist()
    pooled = set(meta.get("pooled_strings") or [])
    int_cast = meta.get("int_cast") or {}
    float_cast = meta.get("float_cast") or {}
    arrays: dict[str, np.ndarray] = {}
    for key, arr in encoded.items():
        if key == POOL_KEY:
            continue
        if key in pooled:
            if arr.size and (arr.min() < 0 or arr.max() >= len(pool)):
                raise ArtifactError(
                    f"{key}: string-pool index out of range"
                )
            arrays[key] = _str_array([pool[i] for i in arr.tolist()])
        elif key in int_cast:
            arrays[key] = arr.astype(int_cast[key])
        elif key in float_cast:
            arrays[key] = arr.astype(float_cast[key])
        else:
            arrays[key] = arr
    return arrays


@dataclass
class RestoredState:
    """Everything a scorer needs, rebuilt from an artifact."""

    config: ZeroEDConfig
    engine: str
    detector: ErrorDetector
    featurizers: dict[str, AttributeFeaturizer]
    correlated: dict[str, list[str]]
    attributes: list[str]
    llm_model: str
    train_rows: int
    info: dict


class DetectorArtifact:
    """In-memory form of one saved (or about-to-be-saved) artifact.

    ``manifest`` holds the JSON-serialisable structure; ``arrays`` maps
    flat keys (``a{i}_...``, indexed by attribute position) to NumPy
    arrays destined for ``arrays.npz``.
    """

    def __init__(self, manifest: dict, arrays: dict[str, np.ndarray]) -> None:
        self.manifest = manifest
        self.arrays = arrays

    # ------------------------------------------------------------------
    # Construction from a fitted pipeline
    # ------------------------------------------------------------------
    @classmethod
    def from_fitted(cls, fitted) -> "DetectorArtifact":
        """Capture a :class:`~repro.core.pipeline.FittedZeroED`."""
        config = fitted.config
        attributes = fitted.attributes
        arrays: dict[str, np.ndarray] = {}
        per_attribute: list[dict] = []
        models = fitted.detector.export_models()
        for i, attr in enumerate(attributes):
            featurizer = fitted.featurizers[attr]
            value_counts = featurizer.stats.value_counts
            values = list(value_counts)
            arrays[f"a{i}_values"] = _str_array(values)
            arrays[f"a{i}_counts"] = np.asarray(
                [value_counts[v] for v in values], dtype=np.int64
            )
            vicinity_attrs = list(featurizer.vicinity)
            for j, q in enumerate(vicinity_attrs):
                pair_counts, lhs_counts = featurizer.vicinity[q]
                pairs = list(pair_counts)
                arrays[f"a{i}_v{j}_pair_lhs"] = _str_array(
                    [p[0] for p in pairs]
                )
                arrays[f"a{i}_v{j}_pair_rhs"] = _str_array(
                    [p[1] for p in pairs]
                )
                arrays[f"a{i}_v{j}_pair_count"] = np.asarray(
                    [pair_counts[p] for p in pairs], dtype=np.int64
                )
                lhs_values = list(lhs_counts)
                arrays[f"a{i}_v{j}_lhs_values"] = _str_array(lhs_values)
                arrays[f"a{i}_v{j}_lhs_counts"] = np.asarray(
                    [lhs_counts[v] for v in lhs_values], dtype=np.int64
                )
            accuracies = fitted.training[attr].criteria_accuracies
            criteria_spec = [
                {
                    "name": crit.name,
                    "source": crit.source,
                    "context_attrs": list(crit.context_attrs),
                    "accuracy": accuracies.get(crit.name),
                }
                for crit in featurizer.criteria
            ]
            model = models[attr]
            if model["kind"] == "constant":
                model_spec = {"kind": "constant", "constant": bool(model["constant"])}
            else:
                arrays[f"a{i}_mlp_flat"] = model["flat"]
                arrays[f"a{i}_scaler_mean"] = model["scaler_mean"]
                arrays[f"a{i}_scaler_scale"] = model["scaler_scale"]
                model_spec = {
                    "kind": "mlp",
                    "n_features": int(model["n_features"]),
                }
            per_attribute.append(
                {
                    "name": attr,
                    "correlated": list(featurizer.correlated),
                    "vicinity": vicinity_attrs,
                    "n_rows": int(featurizer.stats.n_rows),
                    "criteria": criteria_spec,
                    "model": model_spec,
                }
            )
        embedding = fitted.embedding
        manifest = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "created_at": time.time(),
            "package_version": __version__,
            "dataset": fitted.table.name,
            "train_rows": fitted.table.n_rows,
            "llm_model": fitted.llm.model_name,
            "attributes": attributes,
            "schema_fingerprint": schema_fingerprint(attributes),
            "config": dataclasses.asdict(config),
            "engines": {
                "sampling": config.sampling_engine,
                "detector": fitted.detector.engine,
            },
            "embedding": (
                {
                    "dim": embedding.dim,
                    "n_buckets": embedding.n_buckets,
                    "seed": config.seed,
                }
                if embedding is not None
                else None
            ),
            "per_attribute": per_attribute,
            # Fit-time degradation provenance (PR 6): which attributes
            # fell back to statistical signals, and at which stage.  An
            # operator deciding whether to trust or refit a detector
            # needs this next to the artifact, not in a lost fit log.
            "resilience": {
                "degraded_attrs": fitted.details.get("degraded_attrs", {}),
                # Retry/breaker accounting from the fitting run (PR 10):
                # feeds the serving layer's /metrics so operators see
                # how rough the fit was without digging up its logs.
                "fit_stats": fitted.details.get("resilience") or {},
            },
            # Fit-time token spend (PR 10): requests / input_tokens /
            # output_tokens / total_tokens from the fit's ledger.
            "tokens": dict(fitted.ledger_summary),
            # Fit-time sample provenance (PR 7): how the training rows
            # were chosen when the fit ran on a reservoir sample of a
            # larger table (null = the fit saw every row; key absent =
            # pre-PR-7 artifact, provenance unknown).  An operator
            # judging a detector against a million-row source needs
            # the sample budget/seed next to the artifact.
            "sample": fitted.details.get("sample"),
        }
        return cls(manifest, arrays)

    # ------------------------------------------------------------------
    # Disk round-trip
    # ------------------------------------------------------------------
    def save(self, path: str | Path, *, version: int | None = None) -> Path:
        """Write ``manifest.json`` + ``arrays.npz`` under ``path``.

        ``version`` picks the on-disk layout (default: the current
        :data:`ARTIFACT_VERSION`).  v2 pools strings, downcasts
        losslessly and compresses; v1 writes the historical raw
        uncompressed bundle — both decode to the same logical arrays,
        so the choice never changes scores, only bytes on disk.
        """
        version = ARTIFACT_VERSION if version is None else int(version)
        if version not in SUPPORTED_VERSIONS:
            raise ArtifactError(
                f"cannot write artifact version {version}; supported: "
                f"{SUPPORTED_VERSIONS}"
            )
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = dict(self.manifest)
        manifest["version"] = version
        buffer = io.BytesIO()
        if version == 1:
            manifest.pop("encoding", None)
            np.savez(buffer, **self.arrays)
        else:
            encoded, encoding_meta = _encode_v2(self.arrays)
            manifest["encoding"] = encoding_meta
            np.savez_compressed(buffer, **encoded)
        payload = buffer.getvalue()
        (directory / ARRAYS_NAME).write_bytes(payload)
        manifest["arrays_sha256"] = hashlib.sha256(payload).hexdigest()
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        self.manifest = manifest
        return directory

    @classmethod
    def load(cls, path: str | Path) -> "DetectorArtifact":
        """Read and integrity-check an artifact directory.

        Raises :class:`ArtifactError` for anything short of a pristine
        artifact: missing files, invalid JSON, unknown format, a
        version this reader does not understand, a schema fingerprint
        that does not match the manifest's attribute list, or an
        ``arrays.npz`` whose checksum disagrees with the manifest.

        The checks catch corruption, not malice (see the module
        docstring): only load artifacts you trust — restoring one
        compiles its stored criteria sources.
        """
        directory = Path(path)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ArtifactError(f"{directory} has no {MANIFEST_NAME}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"{manifest_path} is not a valid manifest: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise ArtifactError(f"{manifest_path} is not a JSON object")
        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ArtifactError(
                f"{directory} is not a {ARTIFACT_FORMAT} "
                f"(format={manifest.get('format')!r})"
            )
        version = manifest.get("version")
        if version not in SUPPORTED_VERSIONS:
            raise ArtifactError(
                f"artifact version {version!r} is not supported by this "
                f"reader (supported: {SUPPORTED_VERSIONS})"
            )
        attributes = manifest.get("attributes")
        if not isinstance(attributes, list) or not attributes:
            raise ArtifactError(f"{manifest_path} has no attribute schema")
        if manifest.get("schema_fingerprint") != schema_fingerprint(attributes):
            raise ArtifactError(
                f"{manifest_path}: schema fingerprint does not match the "
                "attribute list (manifest tampered?)"
            )
        arrays_path = directory / ARRAYS_NAME
        if not arrays_path.is_file():
            raise ArtifactError(f"{directory} has no {ARRAYS_NAME}")
        payload = arrays_path.read_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.get("arrays_sha256"):
            raise ArtifactError(
                f"{arrays_path}: checksum mismatch (tampered or truncated)"
            )
        try:
            with np.load(io.BytesIO(payload), allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
        # BadZipFile: a bundle truncated *before* it was signed passes
        # the checksum but still is not a readable zip.
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise ArtifactError(
                f"{arrays_path} is not a valid array bundle: {exc}"
            ) from exc
        if version >= 2:
            arrays = _decode_v2(arrays, manifest.get("encoding"))
        return cls(manifest, arrays)

    # ------------------------------------------------------------------
    # Restoration
    # ------------------------------------------------------------------
    def restore(self) -> RestoredState:
        """Rebuild featurizers and detector from this artifact.

        Structural problems — a config that fails validation, criteria
        sources that no longer compile, missing or misshapen arrays —
        surface as :class:`ArtifactError`.
        """
        manifest = self.manifest
        try:
            return self._restore()
        except ArtifactError:
            raise
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"artifact for {manifest.get('dataset', '?')!r} could not "
                f"be restored: {exc}"
            ) from exc

    def _restore(self) -> RestoredState:
        manifest = self.manifest
        arrays = self.arrays
        config = ZeroEDConfig(**manifest["config"])
        engine = manifest["engines"]["detector"]
        attributes = list(manifest["attributes"])
        embedding_spec = manifest.get("embedding")
        embedding = (
            SubwordHashEmbedding.shared(
                dim=int(embedding_spec["dim"]),
                n_buckets=int(embedding_spec["n_buckets"]),
                seed=int(embedding_spec["seed"]),
            )
            if embedding_spec is not None and config.use_semantic_features
            else None
        )
        featurizers: dict[str, AttributeFeaturizer] = {}
        correlated: dict[str, list[str]] = {}
        models: dict[str, dict] = {}
        per_attribute = manifest["per_attribute"]
        if len(per_attribute) != len(attributes):
            raise ArtifactError(
                "per-attribute entries do not align with the schema"
            )
        for i, (attr, spec) in enumerate(zip(attributes, per_attribute)):
            if spec["name"] != attr:
                raise ArtifactError(
                    f"per-attribute entry {i} names {spec['name']!r}, "
                    f"schema says {attr!r}"
                )
            criteria = [
                Criterion.from_spec(
                    attr,
                    {
                        "name": c["name"],
                        "source": c["source"],
                        "context_attrs": c.get("context_attrs", []),
                    },
                )
                for c in spec["criteria"]
            ]
            values = arrays[f"a{i}_values"].tolist()
            counts = arrays[f"a{i}_counts"].tolist()
            vicinity: dict[str, tuple[dict, dict]] = {}
            for j, q in enumerate(spec["vicinity"]):
                pair_lhs = arrays[f"a{i}_v{j}_pair_lhs"].tolist()
                pair_rhs = arrays[f"a{i}_v{j}_pair_rhs"].tolist()
                pair_count = arrays[f"a{i}_v{j}_pair_count"].tolist()
                lhs_values = arrays[f"a{i}_v{j}_lhs_values"].tolist()
                lhs_counts = arrays[f"a{i}_v{j}_lhs_counts"].tolist()
                vicinity[q] = (
                    dict(zip(zip(pair_lhs, pair_rhs), pair_count)),
                    dict(zip(lhs_values, lhs_counts)),
                )
            correlated[attr] = list(spec["correlated"])
            stats = AttributeStats(attr=attr, n_rows=int(spec["n_rows"]))
            stats.value_counts = Counter(dict(zip(values, counts)))
            featurizers[attr] = AttributeFeaturizer(
                attr=attr,
                stats=stats,
                correlated=correlated[attr],
                vicinity=vicinity,
                embedding=embedding,
                criteria=criteria,
                config=config,
            )
            model_spec = spec["model"]
            if model_spec["kind"] == "constant":
                models[attr] = {
                    "kind": "constant",
                    "constant": bool(model_spec["constant"]),
                }
            elif model_spec["kind"] == "mlp":
                models[attr] = {
                    "kind": "mlp",
                    "flat": arrays[f"a{i}_mlp_flat"],
                    "n_features": int(model_spec["n_features"]),
                    "scaler_mean": arrays[f"a{i}_scaler_mean"],
                    "scaler_scale": arrays[f"a{i}_scaler_scale"],
                }
            else:
                raise ArtifactError(
                    f"unknown model kind {model_spec['kind']!r} for "
                    f"attribute {attr!r}"
                )
        detector = ErrorDetector.from_models(config, engine, models)
        info = {
            "format": manifest["format"],
            "version": manifest["version"],
            "dataset": manifest.get("dataset"),
            "train_rows": manifest.get("train_rows"),
            "llm_model": manifest.get("llm_model"),
            "attributes": attributes,
            "engines": manifest["engines"],
            "package_version": manifest.get("package_version"),
            "created_at": manifest.get("created_at"),
            # Absent in pre-PR-6 artifacts: degradation state unknown.
            "resilience": manifest.get("resilience"),
            # Absent in pre-PR-10 artifacts: fit token spend unknown.
            "tokens": manifest.get("tokens"),
            # Absent in pre-PR-7 artifacts: sample provenance unknown;
            # None thereafter means the fit saw every row.
            "sample": manifest.get("sample"),
            # The saved arrays' checksum doubles as the artifact's
            # identity for resumable-job fingerprints (PR 8).
            "arrays_sha256": manifest.get("arrays_sha256"),
            # What the restored scorer keeps resident (the v2 file on
            # disk is deflate-compressed and would undercount); the
            # artifact registry charges its memory budget by it.
            "decoded_bytes": sum(arr.nbytes for arr in arrays.values()),
        }
        return RestoredState(
            config=config,
            engine=engine,
            detector=detector,
            featurizers=featurizers,
            correlated=correlated,
            attributes=attributes,
            llm_model=str(manifest.get("llm_model", "unknown")),
            train_rows=int(manifest.get("train_rows", 0)),
            info=info,
        )
