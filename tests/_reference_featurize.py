"""Retained per-row reference implementation of the feature pipeline.

This is the pre-interning (seed) implementation of
``AttributeFeaturizer.base_matrix`` / ``FeatureSpace.unified_matrix``,
kept verbatim as an executable specification: every value is
featurised cell-by-cell with Counter-based statistics rebuilt by a
full row scan.  The equivalence suite asserts that the vectorized
unique-value implementation in :mod:`repro.core.featurize` reproduces
these matrices exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.featurize import AttributeFeaturizer, FeatureSpace
from repro.data.encoding import joint_counts
from repro.data.table import Table
from repro.text.patterns import generalize


def reference_base_matrix(
    featurizer: AttributeFeaturizer, table: Table
) -> np.ndarray:
    """Seed per-row ``base_matrix`` for ``featurizer`` over ``table``."""
    config = featurizer.config
    attr = featurizer.attr
    stats = featurizer.stats
    n = table.n_rows
    n_stats = max(stats.n_rows, 1)
    blocks: list[np.ndarray] = []
    col = table.column_view(attr)

    # Pattern frequency tables, rebuilt from the attribute stats the
    # way the seed constructor did.
    pattern_counts: list[Counter] = []
    for level in (1, 2, 3):
        counter: Counter = Counter()
        for value, count in stats.value_counts.items():
            counter[generalize(value, level)] += count
        pattern_counts.append(counter)

    def frequency_features(value: str) -> tuple[float, float, float, float]:
        value_freq = stats.value_counts.get(value, 0) / n_stats
        pattern_freqs = tuple(
            pattern_counts[level - 1].get(generalize(value, level), 0)
            / n_stats
            for level in (1, 2, 3)
        )
        return (value_freq, *pattern_freqs)

    # Vicinity co-occurrence counters, rebuilt by a full row scan of
    # the construction table (the featurizer's table).
    vicinity: dict[str, tuple[Counter, Counter]] = {}
    if config.use_statistical_features and config.use_correlated_features:
        for q in featurizer.correlated:
            pair_counts: Counter = Counter()
            lhs_counts: Counter = Counter()
            for vq, vj in zip(table.column_view(q), col):
                pair_counts[(vq, vj)] += 1
                lhs_counts[vq] += 1
            vicinity[q] = (pair_counts, lhs_counts)

    if config.use_statistical_features:
        stat = np.empty((n, 4 + len(vicinity)))
        for i, value in enumerate(col):
            stat[i, :4] = frequency_features(value)
        for k, q in enumerate(vicinity):
            pair_counts, lhs_counts = vicinity[q]
            q_col = table.column_view(q)
            for i in range(n):
                lhs = q_col[i]
                denom = lhs_counts.get(lhs, 0)
                stat[i, 4 + k] = (
                    pair_counts.get((lhs, col[i]), 0) / denom if denom else 0.0
                )
        blocks.append(stat)
    if config.use_semantic_features and featurizer.embedding is not None:
        emb = np.empty((n, featurizer.embedding.dim))
        for i, value in enumerate(col):
            emb[i] = featurizer.embedding.embed(value)
        blocks.append(emb)
    if config.use_criteria_features:
        if featurizer.criteria:
            crit = np.empty((n, len(featurizer.criteria)))
            for j, criterion in enumerate(featurizer.criteria):
                for i in range(n):
                    row = {attr: col[i]}
                    for name in criterion.context_attrs:
                        if name in table.attributes:
                            row[name] = table.cell(i, name)
                    crit[i, j] = float(criterion.check(row))
        else:
            crit = np.zeros((n, 0))
        blocks.append(crit)
    if not blocks:
        return np.zeros((n, 1))
    return np.hstack(blocks)


def reference_unified_matrix(
    feature_space: FeatureSpace, attr: str
) -> np.ndarray:
    """Seed ``unified_matrix``: base ⊕ correlated base matrices."""
    table = feature_space.table
    parts = [reference_base_matrix(feature_space.featurizers[attr], table)]
    if feature_space.config.use_correlated_features:
        for q in feature_space.correlated.get(attr, []):
            parts.append(
                reference_base_matrix(feature_space.featurizers[q], table)
            )
    return np.hstack(parts)


def reference_vicinity_columns(
    table: Table, attr: str, correlated: list[str]
) -> list[np.ndarray]:
    """Code-level vicinity ratios P(attr value | q value) per row of
    ``table``, one column per correlated ``q``: the table's own joint
    counts ``counts[inverse] / enc_q.counts[enc_q.codes]``, as the
    fit-time featurizer once precomputed them for its construction
    table."""
    enc_a = table.encoding(attr)
    columns = []
    for q in correlated:
        enc_q = table.encoding(q)
        _, _, counts, inverse = joint_counts(enc_q, enc_a)
        denom = enc_q.counts[enc_q.codes].astype(float)
        columns.append(counts[inverse] / denom)
    return columns
