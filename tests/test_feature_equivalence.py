"""Equivalence suite for the columnar (interned) feature pipeline.

Three layers of protection for the vectorized rewrite:

* the unique-value base blocks / ``unified_matrix`` must reproduce
  the retained per-row reference implementation exactly, on every
  registered dataset generator and under every feature-block ablation,
  and the vicinity ratios looked up in the frozen string-keyed tables
  must equal the code-level ratios bit for bit, whether the featurizer
  was built by a fit or restored from an artifact;
* ``Criterion.evaluate_column`` must match per-row ``check`` calls;
* end-to-end ``ZeroED.detect`` masks must stay byte-identical to the
  recorded seed behaviour for fixed seeds (hashes recorded from the
  pre-interning implementation).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import ZeroEDConfig
from repro.core.correlation import correlated_attributes
from repro.core.criteria_step import generate_initial_criteria
from repro.core.featurize import FeatureSpace
from repro.core.pipeline import ZeroED
from repro.data.registry import dataset_names, make_dataset
from repro.data.stats import compute_all_stats
from repro.llm.simulated.engine import SimulatedLLM
from repro.serving.artifact import DetectorArtifact

from _reference_featurize import (
    reference_base_matrix,
    reference_unified_matrix,
    reference_vicinity_columns,
)


def build_feature_space(
    dataset: str, n_rows: int, config: ZeroEDConfig
) -> FeatureSpace:
    table = make_dataset(dataset, n_rows=n_rows, seed=config.seed).dirty
    llm = SimulatedLLM(seed=config.seed)
    stats = compute_all_stats(table)
    correlated = (
        correlated_attributes(table, config.n_correlated, seed=config.seed)
        if config.use_correlated_features
        else {a: [] for a in table.attributes}
    )
    criteria = (
        generate_initial_criteria(llm, table, correlated, config)
        if config.use_criteria_features
        else {a: [] for a in table.attributes}
    )
    return FeatureSpace.from_table(table, stats, correlated, criteria, config)


@pytest.mark.parametrize("dataset", sorted(dataset_names()))
def test_matrices_match_reference_on_all_generators(dataset):
    config = ZeroEDConfig(embedding_dim=8, criteria_sample_size=15, seed=0)
    fs = build_feature_space(dataset, n_rows=80, config=config)
    for attr in fs.table.attributes:
        fast = fs.blocks(attr).take()
        slow = reference_base_matrix(fs.featurizers[attr], fs.table)
        np.testing.assert_allclose(fast, slow, atol=1e-9, rtol=0)
        fast_u = fs.unified_matrix(attr)
        slow_u = reference_unified_matrix(fs, attr)
        np.testing.assert_allclose(fast_u, slow_u, atol=1e-9, rtol=0)


@pytest.mark.parametrize(
    "ablation",
    [
        {"use_statistical_features": False},
        {"use_semantic_features": False},
        {"use_criteria_features": False},
        {"use_correlated_features": False},
        {
            "use_statistical_features": False,
            "use_semantic_features": False,
            "use_criteria_features": False,
        },
    ],
)
def test_matrices_match_reference_under_ablations(ablation):
    config = ZeroEDConfig(
        embedding_dim=8, criteria_sample_size=15, seed=0, **ablation
    )
    fs = build_feature_space("beers", n_rows=60, config=config)
    for attr in fs.table.attributes:
        np.testing.assert_allclose(
            fs.blocks(attr).take(),
            reference_base_matrix(fs.featurizers[attr], fs.table),
            atol=1e-9,
            rtol=0,
        )
        np.testing.assert_allclose(
            fs.unified_matrix(attr),
            reference_unified_matrix(fs, attr),
            atol=1e-9,
            rtol=0,
        )


def test_base_matrix_on_foreign_table_uses_construction_statistics():
    # Featurising a table other than the construction table (e.g. after
    # a mutation) must keep using the construction table's counters —
    # the seed semantics — via the generic unique-level fallback.
    config = ZeroEDConfig(embedding_dim=8, criteria_sample_size=15, seed=0)
    fs = build_feature_space("beers", n_rows=60, config=config)
    attr = fs.table.attributes[0]
    featurizer = fs.featurizers[attr]
    other = fs.table.copy()
    donor = other.attributes[1]
    other.set_cell(0, attr, "a brand-new value")
    other.set_cell(1, donor, "unseen context")
    fast = featurizer.base_matrix(other)
    # Per-row expectation from the featurizer's own string-keyed maps
    # (construction-table counters) applied to the mutated column.
    col = other.column_view(attr)
    for i in (0, 1, 2):
        expected = featurizer._frequency_features(col[i])
        np.testing.assert_allclose(fast[i, :4], expected, atol=1e-9, rtol=0)
    for k, (q, (pair_counts, lhs_counts)) in enumerate(
        featurizer.vicinity.items()
    ):
        q_col = other.column_view(q)
        for i in range(other.n_rows):
            denom = lhs_counts.get(q_col[i], 0)
            expected = (
                pair_counts.get((q_col[i], col[i]), 0) / denom
                if denom
                else 0.0
            )
            assert abs(fast[i, 4 + k] - expected) <= 1e-9


@pytest.mark.parametrize("dataset", sorted(dataset_names()))
def test_vicinity_columns_bitwise_equal_code_level_ratios(dataset, tmp_path):
    config = ZeroEDConfig(
        label_rate=0.1,
        mlp_epochs=8,
        criteria_sample_size=20,
        embedding_dim=8,
        seed=0,
    )
    table = make_dataset(dataset, n_rows=80, seed=0).dirty
    fitted = ZeroED(config).fit(table)
    restored = DetectorArtifact.load(fitted.save(tmp_path / "a")).restore()
    for featurizers in (fitted.featurizers, restored.featurizers):
        for attr, featurizer in featurizers.items():
            blocks = featurizer.base_blocks(table)
            expected = reference_vicinity_columns(
                table, attr, fitted.correlated[attr]
            )
            assert blocks.n_vicinity == len(expected) > 0
            for k, column in enumerate(expected):
                assert np.array_equal(blocks.per_row[:, k], column)


def test_evaluate_column_matches_per_row_check():
    config = ZeroEDConfig(criteria_sample_size=15, seed=0)
    table = make_dataset("hospital", n_rows=70, seed=0).dirty
    llm = SimulatedLLM(seed=0)
    correlated = correlated_attributes(table, 2, seed=0)
    criteria = generate_initial_criteria(llm, table, correlated, config)
    for attr, crits in criteria.items():
        for crit in crits:
            fast = crit.evaluate_column(table)
            slow = np.array(
                [
                    crit.check(
                        {
                            attr: table.cell(i, attr),
                            **{
                                q: table.cell(i, q)
                                for q in crit.context_attrs
                                if q in table.attributes
                            },
                        }
                    )
                    for i in range(table.n_rows)
                ],
                dtype=bool,
            )
            assert (fast == slow).all(), f"{attr}/{crit.name} diverged"


# SHA-256 of the detection mask (uint8 bytes) produced by the seed
# (pre-interning, per-row) implementation for each fixed-seed case.
SEED_MASK_HASHES = {
    ("hospital", 200, 0, ()): (
        "ed220ecfe462ac5be03d048902f4be93551d65e304c3f73d5322a220b8632d1d"
    ),
    ("beers", 200, 1, ()): (
        "bf815e7d54344e5d19d719b349628a18f4bf9fec2c8a60a91056eea148455112"
    ),
    ("flights", 200, 0, (("use_criteria_features", False),)): (
        "2f19421e5b72c0de17872bfe554617feb27ffab0fd62903653534c992de6b86a"
    ),
    ("tax", 300, 0, (("label_rate", 0.04),)): (
        "58dcf6a0d77ca5add2bfc8020ef84236a274bb658b62247d6076ff302aaacf7c"
    ),
}


@pytest.mark.parametrize("case", sorted(SEED_MASK_HASHES))
def test_detect_masks_byte_identical_to_seed(case):
    dataset, n_rows, seed, overrides = case
    table = make_dataset(dataset, n_rows=n_rows, seed=seed).dirty
    result = ZeroED(seed=seed, **dict(overrides)).detect(table)
    digest = hashlib.sha256(
        result.mask.matrix.astype(np.uint8).tobytes()
    ).hexdigest()
    assert digest == SEED_MASK_HASHES[case]
