"""PR 4: parallel per-attribute execution, batched assembly, engine=auto.

Three properties are pinned here:

* **Determinism under parallelism** — end-to-end masks are
  byte-identical for any ``n_jobs`` (the per-attribute tasks are pure
  functions of ``(seed, attr)`` and results are collected in attribute
  order), across datasets and across both concrete engines.
* **Batch/per-value equivalence** — ``Criterion.evaluate_values`` and
  ``FeatureSpace.unified_rows`` are bit-identical to the retained
  per-value reference loops (``tests/_reference_assembly.py``), and the
  batched ``assemble_training_data`` keeps exactly the candidates the
  per-value filter kept.
* **engine="auto"** — resolves to ``exact`` below the ~2k-row
  crossover and ``fast`` at/above it, through config, detector, and
  pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import (
    AUTO_ENGINE_MIN_ROWS,
    DETECTOR_ENGINE_CHOICES,
    SAMPLING_ENGINE_CHOICES,
    ZeroEDConfig,
)
from repro.core.detector import ErrorDetector
from repro.core.featurize import FeatureSpace
from repro.core.pipeline import ZeroED
from repro.core.training_data import (
    AUGMENT_PAYLOAD_CLEAN_VALUES,
    AUGMENT_PROMPT_CLEAN_VALUES,
    VerificationOutcome,
    assemble_training_data,
)
from repro.criteria import Criterion
from repro.data.stats import compute_all_stats
from repro.errors import ConfigError
from repro.parallel import effective_jobs, parallel_attr_map, parallel_map

from _reference_assembly import (
    reference_augment_vectors,
    reference_evaluate_values,
    reference_unified_vectors,
)


def _mask_hash(result) -> str:
    return hashlib.sha256(result.mask.matrix.tobytes()).hexdigest()


class TestParallelMap:
    def test_order_stable_and_equal_to_serial(self):
        items = list(range(40))
        serial = parallel_map(lambda x: x * x, items, n_jobs=1)
        threaded = parallel_map(lambda x: x * x, items, n_jobs=4)
        assert serial == threaded == [x * x for x in items]

    def test_attr_map_preserves_attribute_order(self):
        attrs = ["c", "a", "b"]
        out = parallel_attr_map(str.upper, attrs, n_jobs=3)
        assert list(out) == attrs
        assert out == {"c": "C", "a": "A", "b": "B"}

    def test_worker_exception_propagates(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError, match="bad"):
            parallel_map(boom, [1, 2, 3], n_jobs=2)

    def test_effective_jobs(self):
        assert effective_jobs(1) == 1
        assert effective_jobs(8, n_items=3) == 3
        assert effective_jobs(-1) >= 1
        with pytest.raises(ConfigError):
            effective_jobs(0)
        with pytest.raises(ConfigError):
            effective_jobs(-2)


class TestAutoEngine:
    def test_choices_include_auto(self):
        assert "auto" in SAMPLING_ENGINE_CHOICES
        assert "auto" in DETECTOR_ENGINE_CHOICES

    def test_config_accepts_auto_and_validates_n_jobs(self):
        cfg = ZeroEDConfig(sampling_engine="auto", detector_engine="auto")
        assert cfg.sampling_engine == "auto"
        with pytest.raises(ConfigError):
            ZeroEDConfig(n_jobs=0)
        with pytest.raises(ConfigError):
            ZeroEDConfig(n_jobs=-2)
        ZeroEDConfig(n_jobs=-1)  # all cores: valid

    def test_resolution_crosses_at_threshold(self):
        cfg = ZeroEDConfig(sampling_engine="auto", detector_engine="auto")
        below = AUTO_ENGINE_MIN_ROWS - 1
        assert cfg.resolve_sampling_engine(below) == "exact"
        assert cfg.resolve_detector_engine(below) == "exact"
        assert cfg.resolve_sampling_engine(AUTO_ENGINE_MIN_ROWS) == "fast"
        assert cfg.resolve_detector_engine(AUTO_ENGINE_MIN_ROWS) == "fast"

    def test_concrete_engines_pass_through(self):
        cfg = ZeroEDConfig(sampling_engine="fast", detector_engine="exact")
        assert cfg.resolve_sampling_engine(10) == "fast"
        assert cfg.resolve_detector_engine(1_000_000) == "exact"

    def test_pipeline_records_resolved_engines(self, small_hospital, fast_config):
        cfg = dataclasses.replace(
            fast_config, sampling_engine="auto", detector_engine="auto"
        )
        result = ZeroED(cfg).detect(small_hospital.dirty)
        # 150 rows: auto resolves below the crossover.
        assert result.details["engines"] == {
            "sampling": "exact",
            "detector": "exact",
        }

    def test_auto_matches_exact_below_crossover(
        self, small_hospital, fast_config
    ):
        auto = dataclasses.replace(
            fast_config, sampling_engine="auto", detector_engine="auto"
        )
        exact = fast_config
        h_auto = _mask_hash(ZeroED(auto).detect(small_hospital.dirty))
        h_exact = _mask_hash(ZeroED(exact).detect(small_hospital.dirty))
        assert h_auto == h_exact

    def test_detector_resolves_engine_at_fit(self, small_hospital, fast_config):
        cfg = dataclasses.replace(fast_config, detector_engine="auto")
        detector = ErrorDetector(cfg)
        assert detector._engine is None
        table = small_hospital.dirty
        stats = compute_all_stats(table)
        correlated = {a: [] for a in table.attributes}
        fs = FeatureSpace.from_table(table, stats, correlated, {}, cfg)
        detector.fit({}, fs)
        assert detector._engine == "exact"

    def test_cli_accepts_auto_and_jobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["detect", "hospital", "--sampling-engine", "auto",
             "--detector-engine", "auto", "--jobs", "4"]
        )
        assert args.sampling_engine == "auto"
        assert args.detector_engine == "auto"
        assert args.jobs == 4


@pytest.mark.parametrize("engine", ["exact", "fast"])
@pytest.mark.parametrize("dataset_fixture", ["small_hospital", "small_beers"])
def test_masks_byte_identical_across_jobs(
    request, dataset_fixture, engine, fast_config
):
    """End-to-end masks: n_jobs=4 == n_jobs=1, both engines, 2 datasets."""
    data = request.getfixturevalue(dataset_fixture)
    base = dataclasses.replace(
        fast_config, sampling_engine=engine, detector_engine=engine
    )
    serial = ZeroED(dataclasses.replace(base, n_jobs=1)).detect(data.dirty)
    threaded = ZeroED(dataclasses.replace(base, n_jobs=4)).detect(data.dirty)
    assert _mask_hash(serial) == _mask_hash(threaded)
    # Token accounting is order-independent and lock-protected, so the
    # totals agree too.
    assert serial.input_tokens == threaded.input_tokens
    assert serial.output_tokens == threaded.output_tokens


def _small_feature_state(data, config):
    table = data.dirty
    stats = compute_all_stats(table)
    attrs = table.attributes
    correlated = {a: [q for q in attrs[:2] if q != a][:1] for a in attrs}
    criteria = {a: [] for a in attrs}
    attr = attrs[0]
    criteria[attr] = [
        Criterion.from_spec(
            attr,
            {
                "name": "check_nonempty",
                "source": (
                    "def check_nonempty(row, attr):\n"
                    "    return bool(str(row.get(attr, '')).strip())\n"
                ),
            },
        ),
        Criterion.from_spec(
            attr,
            {
                "name": "check_short",
                "source": (
                    "def check_short(row, attr):\n"
                    "    return len(str(row.get(attr, ''))) < 40\n"
                ),
            },
        ),
    ]
    fs = FeatureSpace.from_table(table, stats, correlated, criteria, config)
    return table, fs, correlated, attr


class TestBatchEquivalence:
    def test_evaluate_values_matches_reference(self, small_hospital):
        table = small_hospital.dirty
        attr = table.attributes[0]
        other = table.attributes[1]
        crit = Criterion.from_spec(
            attr,
            {
                "name": "check_pair",
                "source": (
                    "def check_pair(row, attr):\n"
                    "    return len(str(row.get(attr, ''))) >= 2\n"
                ),
                "context_attrs": [other],
            },
        )
        col = table.column_view(attr)
        ctx = table.column_view(other)
        values = [col[i] + suffix for i in range(40) for suffix in ("", "!")]
        rows = [
            {attr: col[i], other: ctx[i]} for i in range(40) for _ in range(2)
        ]
        batch = crit.evaluate_values(values, rows)
        ref = reference_evaluate_values(crit, values, rows)
        assert batch.dtype == np.bool_
        np.testing.assert_array_equal(batch, ref)

    def test_evaluate_values_empty(self):
        crit = Criterion.from_spec(
            "a",
            {
                "name": "check_any",
                "source": "def check_any(row, attr):\n    return True\n",
            },
        )
        out = crit.evaluate_values([], [])
        assert out.shape == (0,)

    def test_unified_rows_bit_identical(self, small_hospital, fast_config):
        table, fs, correlated, attr = _small_feature_state(
            small_hospital, fast_config
        )
        col = table.column_view(attr)
        rng = np.random.default_rng(5)
        indices = rng.integers(0, table.n_rows, size=60)
        values, rows = [], []
        for k, i in enumerate(indices.tolist()):
            value = col[i] + ("x" if k % 3 == 0 else "")
            row = {attr: value}
            for q in correlated[attr]:
                row[q] = table.cell(i, q)
            values.append(value)
            rows.append(row)
        batch = fs.unified_rows(attr, values, rows, indices.tolist())
        ref = reference_unified_vectors(fs, attr, values, rows, indices)
        assert batch.shape == ref.shape
        assert batch.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(batch, ref)

    def test_base_rows_all_blocks_disabled(self, small_hospital):
        config = ZeroEDConfig(
            use_statistical_features=False,
            use_semantic_features=False,
            use_criteria_features=False,
            use_correlated_features=False,
        )
        table, fs, _, attr = (
            small_hospital.dirty,
            None,
            None,
            small_hospital.dirty.attributes[0],
        )
        stats = compute_all_stats(table)
        fs = FeatureSpace.from_table(
            table, stats, {a: [] for a in table.attributes}, {}, config
        )
        out = fs.unified_rows(attr, ["a", "b"], [{attr: "a"}, {attr: "b"}], [0, 1])
        ref = reference_unified_vectors(
            fs, attr, ["a", "b"], [{attr: "a"}, {attr: "b"}], [0, 1]
        )
        np.testing.assert_array_equal(out, ref)

    def test_assembly_matches_reference_loop(self, small_hospital, llm, fast_config):
        table, fs, correlated, attr = _small_feature_state(
            small_hospital, fast_config
        )
        col = table.column_view(attr)
        # A synthetic verification outcome with enough clean rows to
        # trigger augmentation; the batched assemble_training_data must
        # keep exactly the candidates the per-value reference keeps and
        # produce bitwise-identical feature rows for them.
        propagated = {i: 0 for i in range(0, 100)}
        propagated[3] = 1
        outcome = VerificationOutcome(
            attr=attr,
            propagated=propagated,
            refined_criteria=list(fs.featurizers[attr].criteria),
            n_propagated=len(propagated),
        )
        data = assemble_training_data(
            llm=llm,
            table=table,
            attr=attr,
            feature_space=fs,
            outcome=outcome,
            correlated=correlated[attr],
            config=fast_config,
        )
        assert data.n_augmented > 0
        # Reproduce the augment request exactly as assemble did.
        from repro.llm.client import LLMRequest
        from repro.ml.rng import spawn

        row_indices = sorted(propagated)
        n_err = sum(propagated[i] for i in row_indices)
        n_right = len(row_indices) - n_err
        needed = min(
            int((n_right - n_err) * fast_config.augment_ratio),
            4 * max(n_right, 1),
        )
        clean_indices = [i for i in row_indices if propagated[i] == 0]
        rng = spawn(fast_config.seed, f"augment/{attr}")
        source_rows = [
            int(clean_indices[int(k)])
            for k in rng.integers(0, len(clean_indices), size=needed)
        ]
        clean_values = [
            col[i] for i in clean_indices[:AUGMENT_PAYLOAD_CLEAN_VALUES]
        ]
        response = llm.complete(
            LLMRequest(
                kind="augment",
                prompt="",
                payload={
                    "dataset": table.name,
                    "attr": attr,
                    "clean_values": clean_values,
                    "n": needed,
                },
            )
        )
        generated = list(response.payload or [])
        aug_vectors, _ = reference_augment_vectors(
            table,
            attr,
            fs,
            outcome.refined_criteria,
            generated,
            source_rows,
            correlated[attr],
        )
        assert data.n_augmented == len(aug_vectors)
        batch_block = data.features[len(row_indices):]
        np.testing.assert_array_equal(batch_block, np.stack(aug_vectors))
        # Labels: propagated block then the all-ones augmented block.
        np.testing.assert_array_equal(
            data.labels,
            np.concatenate(
                [
                    np.array([propagated[i] for i in row_indices], float),
                    np.ones(len(aug_vectors)),
                ]
            ),
        )

    def test_prompt_slice_is_prefix_of_payload(self):
        assert AUGMENT_PROMPT_CLEAN_VALUES < AUGMENT_PAYLOAD_CLEAN_VALUES

    def test_empty_propagated_symmetric(self, small_hospital, fast_config):
        table, fs, correlated, attr = _small_feature_state(
            small_hospital, fast_config
        )
        outcome = VerificationOutcome(attr=attr, propagated={})
        data = assemble_training_data(
            llm=None,  # never consulted: no rows, no augmentation
            table=table,
            attr=attr,
            feature_space=fs,
            outcome=outcome,
            correlated=correlated[attr],
            config=fast_config,
        )
        expected_dim = fs.unified_matrix(attr).shape[1]
        assert data.features.shape == (0, expected_dim)
        assert data.labels.shape == (0,)
        assert data.row_indices == []
