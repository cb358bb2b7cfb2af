"""Training data construction with mutual verification (Algorithm 1).

Per attribute: propagate LLM labels within clusters; refine criteria by
contrastive in-context prompting over the labeled clean/error values;
mutually verify — criteria must reach the accuracy threshold on
right-labeled data, then right-labeled data must pass the surviving
criteria; finally augment the minority error class with LLM-generated
semantic errors.  Outputs a balanced feature/label training set and the
refined criteria (which also replace the attribute's criteria feature
block, Fig. 3's "update criteria feat").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.config import ZeroEDConfig
from repro.criteria import Criterion, compile_criteria
from repro.core.featurize import FeatureSpace
from repro.core.sampling import SamplingResult
from repro.data.encoding import fold_codes
from repro.data.table import Table
from repro.errors import LLMError
from repro.llm.client import LLMClient, LLMRequest
from repro.llm.prompts import AUGMENT_PROMPT, CONTRASTIVE_CRITERIA_PROMPT
from repro.ml.rng import spawn


#: Clean-value slices for the augmentation request.  The *payload*
#: carries a wide sample — the (simulated) model's basis for drawing
#: realistic error variants, where more coverage means more diverse
#: augmentations — while the *prompt* embeds only a short prefix of
#: the same list: prompt text is token-billed per request, and thirty
#: examples are plenty for a real model to pick up the value format.
AUGMENT_PAYLOAD_CLEAN_VALUES = 200
AUGMENT_PROMPT_CLEAN_VALUES = 30


@dataclass
class VerificationOutcome:
    """Result of Algorithm 1's verification phase for one attribute."""

    attr: str
    propagated: dict[int, int]
    refined_criteria: list[Criterion] = field(default_factory=list)
    criteria_accuracies: dict[str, float] = field(default_factory=dict)
    """Accuracy on right-labeled data per *kept* criterion (by name) —
    the trust signal serving artifacts persist alongside the source."""

    n_propagated: int = 0
    n_removed: int = 0
    n_criteria_kept: int = 0
    n_criteria_dropped: int = 0


@dataclass
class AttributeTrainingData:
    """Balanced training set and provenance counters for one attribute."""

    attr: str
    features: np.ndarray
    labels: np.ndarray
    row_indices: list[int]
    """Source row per non-augmented example (aligned prefix of labels)."""

    n_propagated: int = 0
    n_removed_by_verification: int = 0
    n_augmented: int = 0
    n_criteria_kept: int = 0
    n_criteria_dropped: int = 0
    refined_criteria: list[Criterion] = field(default_factory=list)
    criteria_accuracies: dict[str, float] = field(default_factory=dict)


def propagate_labels(
    sampling: SamplingResult,
    llm_labels: dict[int, int],
    evidence: np.ndarray | list | None = None,
) -> dict[int, int]:
    """Spread each representative's label within its cluster (line 1).

    Clean labels propagate cluster-wide (and are subsequently checked by
    the mutual-verification step).  Error labels propagate only to
    cluster members carrying the *same evidence* — the same cell value
    and correlated-attribute context — when ``evidence`` keys are given:
    identical evidence forces an identical verdict, whereas an erroneous
    representative says little about differently-valued neighbours, and
    Algorithm 1 never re-verifies propagated *error* labels, so
    unrestricted error propagation poisons the minority class on
    high-cardinality attributes (and mislabels context-dependent errors,
    where one value is clean in one row and a rule violation in
    another).

    Cluster membership comes from one stable argsort group-by over
    ``cluster_labels`` (members in ascending row order, matching the
    historical per-cluster ``nonzero`` scan) instead of k full-column
    scans.  ``evidence`` is ideally an int64 code array (see
    ``fold_codes``) so the equality filter is one vectorized compare;
    any other sequence falls back to per-member Python equality.
    """
    labels_arr = sampling.cluster_labels
    order = np.argsort(labels_arr, kind="stable")
    sorted_labels = labels_arr[order]
    group_ids, starts = np.unique(sorted_labels, return_index=True)
    ends = np.append(starts[1:], len(order))
    groups = {
        int(cid): order[start:end]
        for cid, start, end in zip(
            group_ids.tolist(), starts.tolist(), ends.tolist()
        )
    }
    vector_evidence = isinstance(evidence, np.ndarray)
    out: dict[int, int] = {}
    for cluster_id, rep_index in sampling.representative_of.items():
        label = llm_labels.get(rep_index)
        if label is None:
            continue
        members = groups.get(int(cluster_id))
        if members is None:
            continue
        if label == 1 and evidence is not None:
            if vector_evidence:
                members = members[
                    evidence[members] == evidence[rep_index]
                ].tolist()
            else:
                rep_key = evidence[rep_index]
                members = [
                    i for i in members.tolist() if evidence[i] == rep_key
                ]
        else:
            members = members.tolist()
        for i in members:
            out[i] = label
    out.update(llm_labels)  # LLM labels take precedence over propagation
    return out


def context_row(
    table: Table, i: int, attr: str, correlated: list[str]
) -> dict[str, str]:
    """Row ``i``'s ``attr`` cell and its correlated cells, the context
    an LLM prompt shows for one example (guidelines, contrastive
    refinement)."""
    row = {attr: table.cell(i, attr)}
    for q in correlated:
        row[q] = table.cell(i, q)
    return row


def refine_criteria(
    llm: LLMClient,
    table: Table,
    attr: str,
    error_rows: list[dict[str, str]],
    clean_rows: list[dict[str, str]],
    correlated: list[str],
) -> list[Criterion]:
    """Contrastive in-context criteria refinement (lines 4-7).

    Both sides carry their correlated-attribute context: a criterion
    like "brewery_id determines brewery_name" can only be judged
    against errors *in their rows*, not as bare values.
    """
    error_values = [row.get(attr, "") for row in error_rows]
    clean_values = [row.get(attr, "") for row in clean_rows]
    prompt = CONTRASTIVE_CRITERIA_PROMPT.format(
        attr=attr,
        dataset=table.name,
        error_values=error_values[:50],
        clean_values=clean_values[:50],
    )
    response = llm.complete(
        LLMRequest(
            kind="contrastive_criteria",
            prompt=prompt,
            payload={
                "dataset": table.name,
                "attr": attr,
                "error_values": error_values,
                "error_rows": error_rows,
                "clean_rows": clean_rows,
                "correlated": correlated,
            },
        )
    )
    return compile_criteria(attr, response.payload or [])


def verify_attribute(
    llm: LLMClient,
    table: Table,
    attr: str,
    feature_space: FeatureSpace,
    sampling: SamplingResult,
    llm_labels: dict[int, int],
    correlated: list[str],
    config: ZeroEDConfig,
    on_failure: Callable[[str, LLMError], None] | None = None,
) -> VerificationOutcome:
    """Algorithm 1's verification phase (lines 1-24) for one attribute.

    Mutates the feature space (refined criteria replace the attribute's
    criteria block), so run this for *every* attribute before assembling
    any training features — unified representations concatenate other
    attributes' base features, and their dimensions must be final.

    ``on_failure`` enables graceful degradation: a failed contrastive
    refinement (retries already exhausted underneath) proceeds with no
    refinement candidates — the initial criteria still go through the
    verification gauntlet, so the attribute keeps its verified feature
    block.  Without the callback the failure propagates.
    """
    if config.propagate_labels:
        # Evidence keys only need equality semantics, so one folded
        # int64 code array stands in for the (value, context...) string
        # tuples and the same-evidence filter becomes a vectorized
        # compare.
        evidence = fold_codes(
            [table.encoding(attr)]
            + [
                table.encoding(q)
                for q in correlated
                if q in table.attributes
            ]
        )
        propagated = propagate_labels(sampling, llm_labels, evidence=evidence)
    else:
        propagated = dict(llm_labels)
    outcome = VerificationOutcome(
        attr=attr, propagated=propagated, n_propagated=len(propagated)
    )
    if not (config.use_verification and propagated):
        return outcome
    error_rows = [
        context_row(table, i, attr, correlated)
        for i, lab in sorted(llm_labels.items())
        if lab == 1
    ]
    # Contrastive basis: the propagated right-labeled rows ("the
    # propagated labeled samples" the paper cross-checks the evolving
    # criteria against).  The raw LLM-labeled sample is too small to
    # cover cross-attribute mappings (tens of rows for hundreds of
    # lhs groups), which would leave consistency criteria blind.
    clean_sample = [i for i, lab in propagated.items() if lab == 0]
    if len(clean_sample) > 400:
        rng = spawn(config.seed, f"contrastive/{attr}")
        picked = rng.choice(len(clean_sample), size=400, replace=False)
        clean_sample = [clean_sample[int(k)] for k in sorted(picked)]
    clean_rows = [
        context_row(table, i, attr, correlated) for i in clean_sample
    ]
    if error_rows and clean_rows:
        try:
            candidates = refine_criteria(
                llm, table, attr, error_rows, clean_rows, correlated
            )
        except LLMError as exc:
            if on_failure is None:
                raise
            on_failure(attr, exc)
            candidates = []
    else:
        candidates = []
    # Verify criteria against propagated right labels (lines 8-14):
    # each criterion evaluates once per distinct (value, context)
    # combo over the right-labeled rows — on the same cells scoring
    # reads — and its accuracy is the mean of the scattered verdicts.
    right_idx = [i for i, lab in propagated.items() if lab == 0]
    # The evolving criteria set = contrastive refinements plus the
    # surviving initial criteria (deduplicated by name, refinements
    # first), all verified against the right-labeled data.
    initial = (
        feature_space.featurizers[attr].criteria
        if config.use_criteria_features
        else []
    )
    merged: dict[str, Criterion] = {}
    for crit in list(candidates) + list(initial):
        merged.setdefault(crit.name, crit)
    refined: list[Criterion] = []
    trusted_verdicts: list[np.ndarray] = []
    for crit in merged.values():
        verdicts = crit.evaluate_column(table, right_idx)
        accuracy = float(verdicts.mean()) if right_idx else 0.0
        if accuracy >= config.criteria_accuracy_threshold:
            refined.append(crit)
            outcome.criteria_accuracies[crit.name] = accuracy
            outcome.n_criteria_kept += 1
            if accuracy >= config.data_verify_accuracy:
                trusted_verdicts.append(verdicts)
        else:
            outcome.n_criteria_dropped += 1
    # Verify right-labeled data against the *trusted* criteria
    # (lines 15-20): drop rows failing most checks.  Noisier criteria
    # stay as features but must not delete training rows.  One stacked
    # boolean matrix reduction replaces the per-row re-checks (the
    # verdicts are already in hand from the accuracy pass).
    if trusted_verdicts:
        pass_counts = np.sum(trusted_verdicts, axis=0)
        n_trusted = len(trusted_verdicts)
        for pos, i in enumerate(right_idx):
            if int(pass_counts[pos]) / n_trusted < config.data_pass_threshold:
                del propagated[i]
                outcome.n_removed += 1
    # Fig. 3: refined criteria replace the criteria feature block.
    if refined and config.use_criteria_features:
        feature_space.featurizers[attr].set_criteria(refined)
        feature_space.invalidate(attr)
    outcome.refined_criteria = refined
    return outcome


def assemble_training_data(
    llm: LLMClient,
    table: Table,
    attr: str,
    feature_space: FeatureSpace,
    outcome: VerificationOutcome,
    correlated: list[str],
    config: ZeroEDConfig,
    on_failure: Callable[[str, LLMError], None] | None = None,
) -> AttributeTrainingData:
    """Assemble features/labels and augment (Algorithm 1 lines 25-27).

    ``on_failure`` enables graceful degradation: a failed augmentation
    request trains on the unaugmented (imbalanced) propagated set
    instead of aborting.  Without the callback the failure propagates.
    """
    propagated = outcome.propagated
    col = table.column_view(attr)
    row_indices = sorted(propagated)
    # Only the labelled rows' unified features are built.
    features = [
        feature_space.unified_matrix(
            attr, np.asarray(row_indices, dtype=np.intp)
        )
    ]
    labels = [np.array([propagated[i] for i in row_indices], dtype=float)]
    n_augmented = 0
    if config.use_verification and row_indices:
        n_err = int(sum(propagated[i] for i in row_indices))
        n_right = len(row_indices) - n_err
        needed = int(max(0, (n_right - n_err)) * config.augment_ratio)
        needed = min(needed, 4 * max(n_right, 1))
        if needed > 0 and n_right > 0:
            clean_indices = [i for i in row_indices if propagated[i] == 0]
            rng = spawn(config.seed, f"augment/{attr}")
            source_rows = [
                int(clean_indices[int(k)])
                for k in rng.integers(0, len(clean_indices), size=needed)
            ]
            clean_values = [
                col[i]
                for i in clean_indices[:AUGMENT_PAYLOAD_CLEAN_VALUES]
            ]
            try:
                response = llm.complete(
                    LLMRequest(
                        kind="augment",
                        prompt=AUGMENT_PROMPT.format(
                            attr=attr,
                            dataset=table.name,
                            n=needed,
                            clean_values=clean_values[
                                :AUGMENT_PROMPT_CLEAN_VALUES
                            ],
                            error_desc="typos, format breaks, magnitude "
                            "shifts, placeholders observed in the labeled "
                            "errors",
                        ),
                        payload={
                            "dataset": table.name,
                            "attr": attr,
                            "clean_values": clean_values,
                            "n": needed,
                        },
                    )
                )
                generated = list(response.payload or [])
            except LLMError as exc:
                if on_failure is None:
                    raise
                on_failure(attr, exc)
                generated = []
            featurizer = feature_space.featurizers[attr]
            check_criteria = outcome.refined_criteria or featurizer.criteria
            rare = max(2, round(0.002 * table.n_rows))
            # Verify augmented errors before use: the variant must
            # differ from its source, and must actually *look*
            # erroneous — fail at least one criterion or be rare in
            # the column.  A frequent value passing every check is a
            # failed augmentation (the LLM returned clean data).  The
            # candidates form one table — each value in ``attr``'s
            # column, its source row's cells in the columns the
            # features and checks read — so the checks and the
            # featurization are the scoring paths: criteria evaluate
            # once per distinct (value, context) combo and features
            # fold per unique value, bit-identical to the retained
            # per-value loop (tests/_reference_assembly.py).
            cand_values: list[str] = []
            cand_srcs: list[int] = []
            for value, src in zip(generated, source_rows):
                if value != col[src]:
                    cand_values.append(value)
                    cand_srcs.append(src)
            read = list(correlated)
            for c in [*check_criteria, *featurizer.criteria]:
                read += c.context_attrs
            columns = {attr: cand_values}
            for q in dict.fromkeys(read):
                if q not in columns and q in table.attributes:
                    q_col = table.column_view(q)
                    columns[q] = [q_col[src] for src in cand_srcs]
            cands = Table(list(columns), columns, name=table.name)
            n_cand = len(cand_values)
            keep = np.zeros(n_cand, dtype=bool)
            if check_criteria and n_cand:
                # Short-circuit like the per-value ``any(not c.check)``:
                # a candidate failing a criterion is kept and never
                # consults later criteria, so the batch evaluates the
                # same (criterion, combo) pairs as the per-value loop.
                pending = np.arange(n_cand)
                for c in check_criteria:
                    passed = c.evaluate_column(cands, pending)
                    keep[pending[~passed]] = True
                    pending = pending[passed]
                    if pending.size == 0:
                        break
            counts = featurizer.stats.value_counts
            for pos in np.nonzero(~keep)[0].tolist():
                if counts.get(cand_values[pos], 0) <= rare:
                    keep[pos] = True
            kept = np.nonzero(keep)[0].tolist()
            if kept:
                features.append(
                    feature_space.unified_rows(
                        attr,
                        cands.select_rows(kept),
                        [cand_srcs[k] for k in kept],
                    )
                )
                labels.append(np.ones(len(kept)))
                n_augmented = len(kept)

    return AttributeTrainingData(
        attr=attr,
        features=np.concatenate(features),
        labels=np.concatenate(labels),
        row_indices=row_indices,
        n_propagated=outcome.n_propagated,
        n_removed_by_verification=outcome.n_removed,
        n_augmented=n_augmented,
        n_criteria_kept=outcome.n_criteria_kept,
        n_criteria_dropped=outcome.n_criteria_dropped,
        refined_criteria=outcome.refined_criteria,
        criteria_accuracies=dict(outcome.criteria_accuracies),
    )


def construct_training_data(
    llm: LLMClient,
    table: Table,
    attr: str,
    feature_space: FeatureSpace,
    sampling: SamplingResult,
    llm_labels: dict[int, int],
    correlated: list[str],
    config: ZeroEDConfig,
) -> AttributeTrainingData:
    """Run the full Algorithm 1 for a *single* attribute.

    Convenience wrapper for tests and single-attribute use.  The
    pipeline itself runs :func:`verify_attribute` for every attribute
    first and only then :func:`assemble_training_data`, because
    verification mutates feature dimensions that other attributes'
    unified representations depend on.
    """
    outcome = verify_attribute(
        llm, table, attr, feature_space, sampling, llm_labels,
        correlated, config,
    )
    return assemble_training_data(
        llm, table, attr, feature_space, outcome, correlated, config
    )
