"""Feature representation with criteria reasoning (paper §III-B).

Each cell value gets a *base* feature vector with three blocks:

* **statistics** — value frequency, the three pattern-generalisation
  frequencies (L1/L2/L3), and vicinity frequencies P(value | correlated
  attribute's value) for each correlated attribute;
* **semantic** — a subword-hash embedding (FastText substitute);
* **criteria** — one binary feature per LLM-generated error-checking
  criterion, the value's adherence after execution.

The *unified* representation concatenates a cell's base vector with the
base vectors of its top-k NMI-correlated attributes' values in the same
tuple.  Ablation switches on :class:`~repro.config.ZeroEDConfig`
disable individual blocks (Table IV's w/o Crit. / w/o Corr., plus
extension switches for the other blocks).

Every block is a pure function of the cell value (plus a few context
cells), so the whole-column fast path works at *unique-value* level on
the table's interned codes (:mod:`repro.data.encoding`): frequency and
pattern features are computed once per distinct value and scattered to
rows with ``feats[codes]``, vicinity frequencies come from sparse
joint counts over ``(codes_q, codes_attr)`` pairs, and embeddings and
criteria likewise evaluate distinct values/combos only.

An attribute's base features over a table are held as
:class:`BaseBlocks`: the value-only columns once per distinct value,
the row-dependent columns (vicinity, criteria) once per row.  Full
``n × width`` base rows are assembled from the blocks only where a
consumer reads them, and every consumer — fit-time base matrices,
ad-hoc augmented examples, score-time unified rows — goes through the
same assembly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ZeroEDConfig
from repro.criteria import Criterion
from repro.data.encoding import ColumnEncoding, joint_counts
from repro.data.stats import AttributeStats
from repro.data.table import Table
from repro.text.embeddings import SubwordHashEmbedding
from repro.text.patterns import all_levels


@dataclass(frozen=True, eq=False)
class BaseBlocks:
    """One attribute's base features over one table, in two blocks.

    Base rows lay out ``frequency (4) | vicinity (k) | embedding (dim) |
    criteria (c)``.  Frequency/pattern and embedding columns are pure
    functions of the cell value, so ``per_value`` holds them once per
    distinct value and rows pick theirs through ``codes``; vicinity
    ratios and criteria verdicts read the row's other cells, so
    ``per_row`` holds them for every row.  A disabled block contributes
    no columns; with every block disabled ``per_row`` is the single
    zero column that keeps downstream shapes valid.
    """

    codes: np.ndarray
    per_value: np.ndarray
    per_row: np.ndarray
    n_freq: int
    n_vicinity: int

    def parts(self, rows: np.ndarray | None = None) -> list[np.ndarray]:
        """The base columns of ``rows`` (every row when ``None``) as
        four column groups in base order; concatenated along axis 1
        they are the base rows."""
        if rows is None:
            codes, per_row = self.codes, self.per_row
        else:
            codes = self.codes[rows]
            per_row = self.per_row.take(rows, axis=0)
        per_value = self.per_value.take(codes, axis=0)
        f, v = self.n_freq, self.n_vicinity
        return [
            per_value[:, :f], per_row[:, :v], per_value[:, f:], per_row[:, v:]
        ]

    def take(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Base rows for ``rows`` (every row when ``None``)."""
        return np.concatenate(self.parts(rows), axis=1)


def unified_owners(feature_space, attr: str) -> list[str]:
    """Attributes whose base rows make up ``attr``'s unified row, in
    column order: ``attr`` itself, then its correlated attributes."""
    owners = [attr]
    if feature_space.config.use_correlated_features:
        owners += feature_space.correlated.get(attr, [])
    return owners


class AttributeFeaturizer:
    """Base-feature computation for one attribute.

    Built from the dirty table itself (frequencies, patterns) plus the
    compiled criteria; can featurise both existing cells (fast path,
    whole-column) and ad-hoc values (augmented training examples).
    """

    def __init__(
        self,
        table: Table,
        attr: str,
        stats: AttributeStats,
        correlated: list[str],
        embedding: SubwordHashEmbedding | None,
        criteria: list[Criterion],
        config: ZeroEDConfig,
    ) -> None:
        self.attr = attr
        self.stats = stats
        self.correlated = list(correlated)
        self.embedding = embedding
        self.criteria = list(criteria)
        self.config = config
        self._n_rows = table.n_rows
        # Pattern frequency tables at the three generalisation levels,
        # accumulated over distinct values in one pass.
        counters: tuple[Counter, Counter, Counter] = (Counter(), Counter(), Counter())
        for value, count in stats.value_counts.items():
            for counter, pattern in zip(counters, all_levels(value)):
                counter[pattern] += count
        self._pattern_counts: list[Counter] = list(counters)
        # Vicinity co-occurrence: for each correlated attribute q,
        # count(v_attr | v_q) and count(v_q), derived from the sparse
        # joint counts of the interned (codes_q, codes_attr) pairs.
        # `_vicinity_joint` holds the code-level facts; the per-row
        # ratio columns for the construction table are precomputed in
        # `_vicinity_fast` (`counts[inverse] / counts_of_lhs`); the
        # string-keyed lookup dicts that ad-hoc values and foreign
        # tables need are built lazily in `_vicinity`.
        self._enc_a = table.encoding(attr)
        self._vicinity_joint: dict[str, tuple] = {}
        self._vicinity_fast: dict[str, np.ndarray] = {}
        self._vicinity_dicts: dict[str, tuple[dict, dict]] | None = None
        if config.use_statistical_features and config.use_correlated_features:
            enc_a = self._enc_a
            for q in self.correlated:
                enc_q = table.encoding(q)
                q_codes, a_codes, counts, inverse = joint_counts(enc_q, enc_a)
                self._vicinity_joint[q] = (enc_q, q_codes, a_codes, counts)
                denom = enc_q.counts[enc_q.codes].astype(float)
                self._vicinity_fast[q] = counts[inverse] / denom

    @classmethod
    def from_frozen(
        cls,
        attr: str,
        value_counts: Mapping[str, int],
        n_rows: int,
        correlated: list[str],
        vicinity: Mapping[str, tuple[Mapping, Mapping]],
        embedding: SubwordHashEmbedding | None,
        criteria: list[Criterion],
        config: ZeroEDConfig,
    ) -> "AttributeFeaturizer":
        """Rebuild a featurizer from frozen training statistics.

        The serving path: no training table exists, only the facts a
        fitted featurizer derived from one — the value frequency table,
        the training row count, and the string-keyed vicinity lookup
        dicts (``q -> (pair_counts, lhs_counts)``).  The result
        featurizes *foreign* tables and ad-hoc values exactly like the
        original featurizer does (the original also falls back to the
        string-keyed vicinity tables whenever a table's encodings are
        not the construction table's own), so scores are bit-identical.
        """
        self = cls.__new__(cls)
        self.attr = attr
        stats = AttributeStats(attr=attr, n_rows=n_rows)
        stats.value_counts = Counter(dict(value_counts))
        self.stats = stats
        self.correlated = list(correlated)
        self.embedding = embedding
        self.criteria = list(criteria)
        self.config = config
        self._n_rows = n_rows
        counters: tuple[Counter, Counter, Counter] = (
            Counter(), Counter(), Counter(),
        )
        for value, count in stats.value_counts.items():
            for counter, pattern in zip(counters, all_levels(value)):
                counter[pattern] += count
        self._pattern_counts = list(counters)
        # No construction-table encodings exist, so the whole-column
        # vicinity fast path can never trigger (`enc_a is self._enc_a`
        # short-circuits on None) and every evaluation routes through
        # the string-keyed `_vicinity` tables.  `_vicinity_joint` keeps
        # the vicinity attribute *order* (it drives column layout) with
        # placeholder values that the fast path never dereferences.
        self._enc_a = None
        self._vicinity_joint = {q: None for q in vicinity}
        self._vicinity_fast = {}
        self._vicinity_dicts = {
            q: (dict(pair_counts), dict(lhs_counts))
            for q, (pair_counts, lhs_counts) in vicinity.items()
        }
        return self

    def export_frozen(self) -> dict:
        """The statistics :meth:`from_frozen` needs, as plain dicts."""
        return {
            "value_counts": dict(self.stats.value_counts),
            "n_rows": self._n_rows,
            "correlated": list(self.correlated),
            "vicinity": {
                q: (dict(pair_counts), dict(lhs_counts))
                for q, (pair_counts, lhs_counts) in self._vicinity.items()
            },
        }

    @property
    def _vicinity(self) -> dict[str, tuple[dict, dict]]:
        """String-keyed vicinity tables ``q -> (pair_counts, lhs_counts)``.

        Built on first use from the code-level joint counts; only
        ad-hoc featurisation (`base_vector`) and foreign tables need
        these — whole-column calls on the construction table stay at
        code level.
        """
        if self._vicinity_dicts is None:
            enc_a = self._enc_a
            out: dict[str, tuple[dict, dict]] = {}
            for q, (enc_q, q_codes, a_codes, counts) in self._vicinity_joint.items():
                pair_counts = {
                    (enc_q.uniques[qc], enc_a.uniques[ac]): c
                    for qc, ac, c in zip(
                        q_codes.tolist(), a_codes.tolist(), counts.tolist()
                    )
                }
                lhs_counts = dict(zip(enc_q.uniques, enc_q.counts.tolist()))
                out[q] = (pair_counts, lhs_counts)
            self._vicinity_dicts = out
        return self._vicinity_dicts

    # ------------------------------------------------------------------
    @property
    def base_dim(self) -> int:
        dim = 0
        if self.config.use_statistical_features:
            dim += 4 + len(self._vicinity_joint)
        if self.config.use_semantic_features and self.embedding is not None:
            dim += self.embedding.dim
        if self.config.use_criteria_features:
            dim += len(self.criteria)
        # With every block disabled, base_matrix emits a single zero
        # column so downstream shapes stay valid; mirror that here.
        return max(dim, 1)

    def set_criteria(self, criteria: list[Criterion]) -> None:
        """Swap in refined criteria (Algorithm 1's 'update criteria feat')."""
        self.criteria = list(criteria)

    # ------------------------------------------------------------------
    def base_blocks(self, table: Table) -> BaseBlocks:
        """Base features of ``table``'s ``attr`` column, as two blocks.

        Works per *unique* value on the table's interned codes —
        O(n_unique) Python work plus O(n_rows) NumPy gathers for the
        narrow per-row block.  The frequency/vicinity statistics always
        come from the construction table; ``table``'s codes only say
        which rows carry which value.
        """
        enc_a = table.encoding(self.attr)
        row_columns: list[np.ndarray] = []
        if self.config.use_statistical_features:
            for q in self._vicinity_joint:
                same_encodings = (
                    enc_a is self._enc_a
                    and table.encoding(q) is self._vicinity_joint[q][0]
                )
                row_columns.append(
                    self._vicinity_fast[q]
                    if same_encodings
                    else self._vicinity_column(table, q, enc_a)
                )
        if self.config.use_criteria_features:
            row_columns += [c.evaluate_column(table) for c in self.criteria]
        return self._blocks(enc_a, row_columns)

    def base_matrix(self, table: Table) -> np.ndarray:
        """Base features for every row of ``table``'s ``attr`` column
        (:meth:`base_blocks`, assembled)."""
        return self.base_blocks(table).take()

    def _blocks(
        self, enc: ColumnEncoding, row_columns: list[np.ndarray]
    ) -> BaseBlocks:
        """Blocks over ``enc``'s values plus the given per-row columns
        (vicinity ratios, then criteria verdicts)."""
        config = self.config
        value_blocks = []
        if config.use_statistical_features:
            value_blocks.append(
                np.asarray(
                    [self._frequency_features(u) for u in enc.uniques]
                ).reshape(enc.n_unique, 4)
            )
        if config.use_semantic_features and self.embedding is not None:
            value_blocks.append(self.embedding.embed_uniques(enc.uniques))
        if not (value_blocks or row_columns):
            row_columns = [np.zeros(enc.n_rows)]
        per_row = np.empty((enc.n_rows, len(row_columns)))
        for k, column in enumerate(row_columns):
            per_row[:, k] = column
        stats = config.use_statistical_features
        return BaseBlocks(
            codes=enc.codes,
            per_value=(
                np.hstack(value_blocks)
                if value_blocks
                else np.empty((enc.n_unique, 0))
            ),
            per_row=per_row,
            n_freq=4 if stats else 0,
            n_vicinity=len(self._vicinity_joint) if stats else 0,
        )

    def _vicinity_column(self, table: Table, q: str, enc_a) -> np.ndarray:
        """P(value | q's value) per row, via distinct (q, attr) pairs."""
        pair_counts, lhs_counts = self._vicinity[q]
        enc_q = table.encoding(q)
        q_codes, a_codes, _, inverse = joint_counts(enc_q, enc_a)
        numer = np.asarray(
            [
                pair_counts.get((enc_q.uniques[qc], enc_a.uniques[ac]), 0)
                for qc, ac in zip(q_codes.tolist(), a_codes.tolist())
            ],
            dtype=float,
        )
        denom_u = np.asarray(
            [lhs_counts.get(u, 0) for u in enc_q.uniques], dtype=float
        )
        denom = denom_u[enc_q.codes]
        safe = denom > 0
        out = np.zeros(table.n_rows)
        np.divide(numer[inverse], denom, out=out, where=safe)
        return out

    def base_vector(self, value: str, row: dict[str, str]) -> np.ndarray:
        """Base features for an ad-hoc value in a row context."""
        blocks: list[np.ndarray] = []
        if self.config.use_statistical_features:
            stat = list(self._frequency_features(value))
            for q in self._vicinity:
                pair_counts, lhs_counts = self._vicinity[q]
                lhs = row.get(q, "")
                denom = lhs_counts.get(lhs, 0)
                stat.append(
                    pair_counts.get((lhs, value), 0) / denom if denom else 0.0
                )
            blocks.append(np.array(stat))
        if self.config.use_semantic_features and self.embedding is not None:
            blocks.append(self.embedding.embed(value))
        if self.config.use_criteria_features:
            context = dict(row)
            context[self.attr] = value
            blocks.append(
                np.array([float(c.check(context)) for c in self.criteria])
            )
        if not blocks:
            return np.zeros(1)
        return np.concatenate(blocks)

    def base_rows(
        self,
        values: Sequence[str],
        rows: Sequence[Mapping[str, str]],
    ) -> np.ndarray:
        """Base features for ad-hoc ``(value, row-context)`` pairs.

        The batch form of :meth:`base_vector` — bit-identical output,
        assembled from :class:`BaseBlocks` like a table column instead
        of one concatenate per pair: the ad-hoc values are factorized,
        frequency/pattern and embedding features are computed once per
        *unique* value; vicinity ratios depend on the row context and
        stay per-pair (two dict lookups each); criteria evaluate
        through :meth:`~repro.criteria.Criterion.evaluate_values`, once
        per distinct (value, context) combo.
        """
        if len(values) != len(rows):
            raise ValueError("values and rows must align")
        row_columns: list[np.ndarray] = []
        if self.config.use_statistical_features:
            for q, (pair_counts, lhs_counts) in self._vicinity.items():
                ratios = []
                for value, row in zip(values, rows):
                    lhs = row.get(q, "")
                    denom = lhs_counts.get(lhs, 0)
                    ratios.append(
                        pair_counts.get((lhs, value), 0) / denom
                        if denom
                        else 0.0
                    )
                row_columns.append(np.asarray(ratios, dtype=float))
        if self.config.use_criteria_features:
            row_columns += [
                c.evaluate_values(values, rows) for c in self.criteria
            ]
        enc = ColumnEncoding.from_values(list(values))
        return self._blocks(enc, row_columns).take()

    def _frequency_features(
        self, value: str
    ) -> tuple[float, float, float, float]:
        n = max(self._n_rows, 1)
        p1, p2, p3 = all_levels(value)
        c1, c2, c3 = self._pattern_counts
        return (
            self.stats.value_counts.get(value, 0) / n,
            c1.get(p1, 0) / n,
            c2.get(p2, 0) / n,
            c3.get(p3, 0) / n,
        )


class FeatureSpace:
    """Unified feature representations for every attribute of a table.

    Caches each attribute's full base matrix: fitting reads them many
    times (clustering, verification, assembly) on a table it holds
    anyway.  Scoring uses :class:`repro.serving.scorer.FrozenFeatureSpace`,
    which caches only :class:`BaseBlocks`.
    """

    def __init__(
        self,
        table: Table,
        stats: dict[str, AttributeStats],
        correlated: dict[str, list[str]],
        criteria: dict[str, list[Criterion]],
        config: ZeroEDConfig,
    ) -> None:
        self.table = table
        self.config = config
        self.correlated = correlated
        # The embedding model is immutable for a given (dim, seed), so
        # repeated pipeline runs share one instance and its warm caches.
        self.embedding = (
            SubwordHashEmbedding.shared(
                dim=config.embedding_dim, seed=config.seed
            )
            if config.use_semantic_features
            else None
        )
        self.featurizers: dict[str, AttributeFeaturizer] = {
            attr: AttributeFeaturizer(
                table=table,
                attr=attr,
                stats=stats[attr],
                correlated=correlated.get(attr, []),
                embedding=self.embedding,
                criteria=criteria.get(attr, []),
                config=config,
            )
            for attr in table.attributes
        }
        self._base_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def base_matrix(self, attr: str) -> np.ndarray:
        cached = self._base_cache.get(attr)
        if cached is None:
            cached = self.featurizers[attr].base_matrix(self.table)
            self._base_cache[attr] = cached
        return cached

    def invalidate(self, attr: str) -> None:
        """Drop the cached base matrix (after criteria refinement)."""
        self._base_cache.pop(attr, None)

    def warm(self) -> None:
        """Build every attribute's encoding and base matrix serially, so
        a thread fan-out over attributes only reads the shared caches
        (unified matrices concatenate other attributes' base rows)."""
        for attr in self.table.attributes:
            self.table.encoding(attr)
            self.base_matrix(attr)

    def unified_matrix(
        self, attr: str, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``f_base(cell) ⊕ f_base(correlated cells)`` for every row, or
        for ``rows`` only."""
        parts = [self.base_matrix(a) for a in unified_owners(self, attr)]
        if rows is not None:
            parts = [part[rows] for part in parts]
        return np.hstack(parts)

    def unified_rows(
        self,
        attr: str,
        values: Sequence[str],
        rows: Sequence[Mapping[str, str]],
        row_indices: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Unified features for ad-hoc values within known row contexts.

        The batch form of :meth:`unified_vector` with ``row_index``
        known for every pair (Step-3 assembly's augmented examples):
        the attribute's own base block folds per unique value through
        :meth:`AttributeFeaturizer.base_rows`, and each correlated
        block is one fancy-indexed gather from the cached
        ``base_matrix`` instead of a per-pair row copy.  Bit-identical
        to stacking the per-pair vectors.
        """
        base = self.featurizers[attr].base_rows(values, rows)
        parts = [base]
        if self.config.use_correlated_features:
            idx = np.asarray(row_indices, dtype=np.intp)
            if len(idx) != len(base):
                raise ValueError("row_indices must align with values")
            for q in self.correlated.get(attr, []):
                parts.append(self.base_matrix(q)[idx])
        return np.hstack(parts)

    def unified_vector(
        self, attr: str, value: str, row: dict[str, str], row_index: int | None
    ) -> np.ndarray:
        """Unified features for an ad-hoc value within a row context.

        For the correlated blocks, uses the row's existing base features
        when ``row_index`` is known (fast), otherwise recomputes from
        the row dict.
        """
        parts = [self.featurizers[attr].base_vector(value, row)]
        if self.config.use_correlated_features:
            for q in self.correlated.get(attr, []):
                if row_index is not None:
                    parts.append(self.base_matrix(q)[row_index])
                else:
                    parts.append(
                        self.featurizers[q].base_vector(row.get(q, ""), row)
                    )
        return np.concatenate(parts)
