"""Retained per-value reference for Step-3 assembly (pre-PR 4).

Verbatim copy of the augmentation filter + featurisation loop that
``assemble_training_data`` ran before it was batched.  Today the
candidates form one table, filtered through
``Criterion.evaluate_column`` and featurized by
``FeatureSpace.unified_rows`` (``base_blocks`` of that table), and the
batch path is pinned against the historical per-value behaviour:
identical kept candidates (same order) and bitwise-identical feature
vectors.  The loop builds each candidate's row context from the
correlated attributes, which is every context the simulated LLM's
criteria read; a criterion reading another attribute is evaluated on
that attribute's cell by the batch path, as scoring does.  The
per-value featurizers themselves — ``reference_base_vector`` /
``reference_unified_vector``, formerly
``AttributeFeaturizer.base_vector`` / ``FeatureSpace.unified_vector``
— live here too, since only tests call them.
"""

from __future__ import annotations

import numpy as np


def reference_base_vector(featurizer, value, row):
    """Base features for an ad-hoc value in a row context, one
    concatenate per value (the batch form is ``base_blocks`` of a
    table of such values)."""
    config = featurizer.config
    blocks = []
    if config.use_statistical_features:
        stat = list(featurizer._frequency_features(value))
        for q, (pair_counts, lhs_counts) in featurizer.vicinity.items():
            lhs = row.get(q, "")
            denom = lhs_counts.get(lhs, 0)
            stat.append(
                pair_counts.get((lhs, value), 0) / denom if denom else 0.0
            )
        blocks.append(np.array(stat))
    if config.use_semantic_features and featurizer.embedding is not None:
        blocks.append(featurizer.embedding.embed(value))
    if config.use_criteria_features:
        context = dict(row)
        context[featurizer.attr] = value
        blocks.append(
            np.array([float(c.check(context)) for c in featurizer.criteria])
        )
    if not blocks:
        return np.zeros(1)
    return np.concatenate(blocks)


def reference_unified_vector(feature_space, attr, value, row, row_index):
    """Unified features for an ad-hoc value standing in for ``attr``'s
    cell of row ``row_index``: its base vector, then that row's own
    base features of each correlated attribute."""
    featurizer = feature_space.featurizers[attr]
    parts = [reference_base_vector(featurizer, value, row)]
    if feature_space.config.use_correlated_features:
        for q in feature_space.correlated.get(attr, []):
            blocks = feature_space.blocks(q)
            parts.append(blocks.take(np.array([row_index]))[0])
    return np.concatenate(parts)


def reference_context_row(table, i, attr, correlated):
    row = {attr: table.cell(i, attr)}
    for q in correlated:
        row[q] = table.cell(i, q)
    return row


def reference_augment_vectors(
    table,
    attr,
    feature_space,
    check_criteria,
    generated,
    source_rows,
    correlated,
):
    """The seed per-value filter/featurise loop (Algorithm 1 line 27).

    Returns ``(aug_vectors, kept_values)``: the per-value unified
    vectors of the surviving augmented examples, in generation order,
    plus the surviving values themselves.
    """
    col = table.column_view(attr)
    featurizer = feature_space.featurizers[attr]
    rare = max(2, round(0.002 * table.n_rows))
    aug_vectors = []
    kept_values = []
    for value, src in zip(generated, source_rows):
        if value == col[src]:
            continue
        row = reference_context_row(table, src, attr, correlated)
        row[attr] = value
        fails_criterion = any(not c.check(row) for c in check_criteria)
        is_rare = featurizer.stats.value_counts.get(value, 0) <= rare
        if not fails_criterion and not is_rare:
            continue
        aug_vectors.append(
            reference_unified_vector(feature_space, attr, value, row, src)
        )
        kept_values.append(value)
    return aug_vectors, kept_values


def reference_unified_vectors(feature_space, attr, values, rows, row_indices):
    """Per-pair ``reference_unified_vector`` calls, stacked (the
    pre-batch path)."""
    return np.stack(
        [
            reference_unified_vector(
                feature_space, attr, value, dict(row), src
            )
            for value, row, src in zip(values, rows, row_indices)
        ]
    )


def reference_evaluate_values(criterion, values, rows):
    """Per-pair ``Criterion.check`` calls (the pre-batch path)."""
    out = np.empty(len(values), dtype=bool)
    for i, (value, row) in enumerate(zip(values, rows)):
        context = dict(row)
        context[criterion.attr] = value
        out[i] = criterion.check(context)
    return out
