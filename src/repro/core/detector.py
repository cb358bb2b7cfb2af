"""Detector training and prediction (paper §III-D, final step).

One two-layer MLP per attribute, trained on the constructed training
data and applied to every cell of that attribute.  Attributes whose
training data is degenerate (empty, or single-class) fall back to a
constant prediction of that class — the honest behaviour when the LLM
labeled everything identically.

Prediction is one path for every engine: each attribute builds,
scales and predicts one unified row per unique key of the columns its
features read, ``PREDICT_BLOCK_ROWS`` rows at a time, and scatters the
probabilities back through the inverse, so its memory follows the
distinct keys and one block, not the row count.

The engine (``config.detector_engine``) picks the MLP's dtype and how
Step 4 trains:

* ``exact`` (default) — float64 in the historical operation order,
  trained on every training row;
* ``fast`` (opt-in) — float32, trained over *unique* rows: duplicate
  (features, label) rows collapse to multiplicity-weighted uniques —
  the same weighted cross-entropy objective on a fraction of the rows
  — capped at a seeded class-preserving subsample
  (``FAST_MAX_TRAIN_ROWS``, the MiniBatchKMeans subsample idea);
* ``auto`` — resolved against the table's row count at fit time
  (``ZeroEDConfig.resolve_detector_engine``).

With ``config.n_jobs > 1`` the per-attribute fits and prediction
passes fan across a worker-thread pool (the MLP GEMMs release the
GIL); each attribute owns its model, scaler and spawned seed, so masks
stay byte-identical to the serial path for any jobs count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ZeroEDConfig
from repro.core.featurize import FeatureSpace
from repro.core.training_data import AttributeTrainingData
from repro.data.encoding import fold_codes, unique_keys
from repro.data.mask import ErrorMask
from repro.data.table import Table
from repro.errors import NotFittedError
from repro.ml.distance import collapse_duplicate_rows
from repro.ml.mlp import MLPClassifier, Workspace
from repro.ml.rng import spawn
from repro.ml.scaler import StandardScaler
from repro.parallel import effective_jobs, parallel_map

#: Fast-engine training-set cap: unique training rows beyond this are
#: subsampled (seeded, class-preserving, multiplicities kept as
#: weights) before the MLP sees them — the MiniBatchKMeans seeded
#: subsample idea (PR 2) applied to the detector.  The exact engine
#: always trains on every row.
FAST_MAX_TRAIN_ROWS = 8_192

#: Prediction block: unique-key rows are gathered, scaled and predicted
#: this many at a time, so prediction memory is bounded by the block
#: rather than the table.
PREDICT_BLOCK_ROWS = 4_096


@dataclass
class _AttributeModel:
    scaler: StandardScaler | None
    mlp: MLPClassifier | None
    constant: bool | None  # fallback constant prediction


def _unified_key_columns(
    feature_space: FeatureSpace, table: Table, attr: str
) -> list[str]:
    """Columns that determine ``attr``'s unified feature row.

    Every feature block is a pure function of the cell value plus a
    few context cells: the owner column itself, its vicinity partners,
    and its criteria's context attributes — for the attribute's own
    block and (when correlated features are on) each concatenated
    correlated block.  Rows agreeing on all these columns are
    guaranteed byte-identical unified rows (extra columns only split
    groups, never merge them, so over-approximating stays exact).
    """
    valid = set(table.attributes)
    out: list[str] = []
    seen: set[str] = set()
    for owner in feature_space.unified_owners(attr):
        featurizer = feature_space.featurizers[owner]
        deps = [owner] + list(featurizer.correlated) + [
            a for crit in featurizer.criteria for a in crit.context_attrs
        ]
        for a in deps:
            if a not in seen and a in valid:
                seen.add(a)
                out.append(a)
    return out


def _subsample_rows(stacked, weights, cap, rng):
    """Seeded uniform subsample of ``cap`` rows, both classes kept.

    ``stacked`` carries the label in its last column; if the uniform
    draw would lose a class entirely (possible only when that class
    has a handful of unique rows), every row of the missing class is
    swapped in over the tail of the sample.
    """
    keep = np.sort(rng.choice(len(stacked), size=cap, replace=False))
    labels = stacked[:, -1]
    kept_labels = set(np.unique(labels[keep]).tolist())
    missing = [
        c for c in np.unique(labels).tolist() if c not in kept_labels
    ]
    if missing:
        rescue = np.nonzero(np.isin(labels, missing))[0][:cap // 2]
        keep = np.sort(
            np.concatenate([keep[: cap - len(rescue)], rescue])
        )
    return stacked[keep], weights[keep]


class ErrorDetector:
    """Per-attribute MLP ensemble over unified features."""

    def __init__(self, config: ZeroEDConfig) -> None:
        self.config = config
        self._models: dict[str, _AttributeModel] = {}
        # Concrete engine, owned by fit(): 'auto' resolves against the
        # training table's row count there; until then no engine
        # decision exists (predict before fit raises NotFittedError).
        self._engine: str | None = None

    def fit(
        self,
        training: dict[str, AttributeTrainingData],
        feature_space: FeatureSpace,
    ) -> "ErrorDetector":
        self._engine = self.config.resolve_detector_engine(
            feature_space.table.n_rows
        )
        attrs = list(training)
        # Per-attribute MLPs share nothing (each task spawns its own
        # seed and owns its model/scaler), so training fans across the
        # worker pool; attribute order of self._models is preserved.
        models = parallel_map(
            lambda attr: self._fit_attribute(attr, training[attr]),
            attrs,
            self.config.n_jobs,
        )
        for attr, model in zip(attrs, models):
            self._models[attr] = model
        return self

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str | None:
        """Concrete engine resolved at fit time (None before fit)."""
        return self._engine

    def with_config(self, config: ZeroEDConfig) -> "ErrorDetector":
        """A fitted view of this detector under a different config.

        Shares the per-attribute models and resolved engine; only the
        execution knobs prediction reads from ``config`` (``n_jobs``,
        ``decision_threshold``) change.  The sanctioned way to rebind a
        fitted detector — callers must not reach into ``_models``.
        """
        clone = ErrorDetector(config)
        clone._engine = self._engine
        clone._models = self._models
        return clone

    def export_models(self) -> dict[str, dict]:
        """Per-attribute fitted state as plain arrays/scalars.

        The serialization channel for detector artifacts: each entry is
        either ``{"kind": "constant", "constant": bool}`` (degenerate
        training data) or ``{"kind": "mlp", "flat": vector,
        "n_features": d, "scaler_mean": ..., "scaler_scale": ...}``.
        :meth:`from_models` restores a bitwise-identical detector.
        """
        if not self._models:
            raise NotFittedError("ErrorDetector.export_models before fit")
        out: dict[str, dict] = {}
        for attr, model in self._models.items():
            if model.constant is not None:
                out[attr] = {"kind": "constant", "constant": model.constant}
            else:
                out[attr] = {
                    "kind": "mlp",
                    "flat": model.mlp.export_flat_params(),
                    "n_features": model.mlp.n_features_,
                    "scaler_mean": model.scaler.mean_.copy(),
                    "scaler_scale": model.scaler.scale_.copy(),
                }
        return out

    @classmethod
    def from_models(
        cls,
        config: ZeroEDConfig,
        engine: str,
        models: dict[str, dict],
    ) -> "ErrorDetector":
        """Rebuild a fitted detector from :meth:`export_models` output."""
        detector = cls(config)
        detector._engine = engine
        for attr, state in models.items():
            if state["kind"] == "constant":
                detector._models[attr] = _AttributeModel(
                    scaler=None, mlp=None, constant=bool(state["constant"])
                )
                continue
            mlp = MLPClassifier(
                hidden=config.mlp_hidden,
                epochs=config.mlp_epochs,
                lr=config.mlp_lr,
                seed=spawn(config.seed, f"mlp/{attr}"),
                engine=engine,
            )
            mlp.load_flat_params(state["flat"], int(state["n_features"]))
            scaler = StandardScaler()
            scaler.mean_ = np.asarray(state["scaler_mean"], dtype=float)
            scaler.scale_ = np.asarray(state["scaler_scale"], dtype=float)
            detector._models[attr] = _AttributeModel(
                scaler=scaler, mlp=mlp, constant=None
            )
        return detector

    def _fit_attribute(
        self, attr: str, data: AttributeTrainingData
    ) -> _AttributeModel:
        y = data.labels
        if len(y) == 0:
            return _AttributeModel(scaler=None, mlp=None, constant=False)
        classes = set(np.unique(y).tolist())
        if len(classes) == 1:
            return _AttributeModel(
                scaler=None, mlp=None, constant=bool(classes.pop())
            )
        engine = self._engine
        fast = engine == "fast"
        mlp = MLPClassifier(
            hidden=self.config.mlp_hidden,
            epochs=self.config.mlp_epochs,
            lr=self.config.mlp_lr,
            seed=spawn(self.config.seed, f"mlp/{attr}"),
            engine=engine,
        )
        scaler = StandardScaler()
        if fast:
            # Interned training: collapse duplicate (features, label)
            # rows to uniques with multiplicity weights — the weighted
            # BCE objective matches the expanded set exactly, on a
            # fraction of the rows per epoch.  Scaling statistics still
            # come from the full (expanded) matrix.
            scaler.fit(data.features)
            stacked = np.column_stack([data.features, y])
            uniques, _, counts = collapse_duplicate_rows(stacked)
            weights = counts.astype(float)
            if len(uniques) > FAST_MAX_TRAIN_ROWS:
                uniques, weights = _subsample_rows(
                    uniques, weights, FAST_MAX_TRAIN_ROWS,
                    spawn(self.config.seed, f"mlp-subsample/{attr}"),
                )
            mlp.fit(
                scaler.transform(uniques[:, :-1]),
                uniques[:, -1],
                sample_weight=weights,
            )
        else:
            mlp.fit(scaler.fit_transform(data.features), y)
        return _AttributeModel(scaler=scaler, mlp=mlp, constant=None)

    def predict(self, table: Table, feature_space: FeatureSpace) -> ErrorMask:
        """Classify every cell of ``table`` as clean (False) or dirty.

        Each attribute predicts one feature row per unique key, in
        blocks of ``PREDICT_BLOCK_ROWS`` (see the module docstring).
        Serially, one workspace serves every attribute's forward pass:
        its activation buffers are keyed by shape, so full blocks — and
        attributes predicting equally many unique keys — reuse them.
        With ``config.n_jobs > 1`` the per-attribute passes fan across
        the worker pool instead (each with its own workspace — buffer
        reuse only affects allocation, never values) after the feature
        space's shared caches are warmed serially; every attribute
        writes a disjoint mask column, so the mask is byte-identical
        either way.
        """
        if not self._models:
            raise NotFittedError("ErrorDetector.predict called before fit")
        mask = ErrorMask.zeros(table.attributes, table.n_rows)
        attrs = table.attributes
        if effective_jobs(self.config.n_jobs, len(attrs)) > 1:
            feature_space.warm()
            parallel_map(
                lambda attr: self._predict_attribute(
                    attr, table, feature_space, mask, Workspace()
                ),
                attrs,
                self.config.n_jobs,
            )
        else:
            workspace = Workspace()
            for attr in attrs:
                self._predict_attribute(
                    attr, table, feature_space, mask, workspace
                )
        return mask

    def _predict_attribute(
        self,
        attr: str,
        table: Table,
        feature_space: FeatureSpace,
        mask: ErrorMask,
        workspace: Workspace,
    ) -> None:
        model = self._models.get(attr)
        if model is None:
            return
        if model.constant is not None:
            if model.constant:
                mask.matrix[:, table.attr_index(attr)] = True
            return
        # Equal feature rows get equal probabilities: predict once per
        # unique row, scatter back.  A unified row is a pure function
        # of its interned column codes, so the dedup key is one folded
        # int64 array (O(n)), found before any feature row exists; only
        # the unique-key rows are then built, scaled and predicted, a
        # fixed block at a time.
        key = fold_codes(
            [
                table.encoding(a)
                for a in _unified_key_columns(feature_space, table, attr)
            ]
        )
        _, first_rows, inverse, _ = unique_keys(key)
        proba = np.empty(len(first_rows))
        for start in range(0, len(first_rows), PREDICT_BLOCK_ROWS):
            rows = first_rows[start : start + PREDICT_BLOCK_ROWS]
            proba[start : start + len(rows)] = model.mlp.predict_proba(
                model.scaler.transform(
                    feature_space.unified_matrix(attr, rows)
                ),
                workspace=workspace,
            )
        mask.matrix[:, table.attr_index(attr)] = (
            proba[inverse] >= self.config.decision_threshold
        )
