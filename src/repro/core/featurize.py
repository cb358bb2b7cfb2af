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

Featurization is *frozen statistics → features*, the same for every
table.  An :class:`AttributeFeaturizer` holds an attribute's frozen
statistics — value counts, the string-keyed vicinity tables
``q -> (pair_counts, lhs_counts)``, compiled criteria — counted by a
fit from its own table or restored from an artifact; the table it
featurizes only says which rows carry which values.

Every block is a pure function of the cell value (plus a few context
cells), so the whole-column path works at *unique-value* level on the
table's interned codes (:mod:`repro.data.encoding`): frequency and
pattern features are computed once per distinct value and scattered to
rows with ``feats[codes]``, vicinity ratios are looked up once per
distinct ``(q value, attr value)`` pair in the frozen tables, and
embeddings and criteria likewise evaluate distinct values/combos only.
The pair and combo folds go through
:func:`~repro.data.encoding.unique_keys`, so a one-row table (a
one-row request) is folded without a sort.

An attribute's base features over a table are held as
:class:`BaseBlocks`: the value-only columns once per distinct value,
the row-dependent columns (vicinity, criteria) once per row.  A
:class:`FeatureSpace` caches only blocks, and every consumer — fit-time
sampling and assembly, score-time unified rows — assembles base rows
from them.  Augmented examples are a table too (the generated values
in the attribute's column, their source rows' context cells in the
others), so :meth:`AttributeFeaturizer.base_blocks` is the one way to
featurize a value.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.config import ZeroEDConfig
from repro.criteria import Criterion
from repro.data.encoding import joint_counts
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


class AttributeFeaturizer:
    """Base-feature computation for one attribute over frozen statistics.

    Everything it knows about the data is frozen: the attribute's value
    counts and row count (``stats``), the string-keyed vicinity tables
    ``q -> (pair_counts, lhs_counts)`` of each correlated attribute
    ``q``, and the compiled criteria.  A fit counts these from its own
    table (:meth:`from_table`); a scorer restores them from an artifact.
    Either way the featurizer treats every table alike: it featurizes
    a table's column (:meth:`base_blocks`) against the same frozen
    counts, whether the table is the fit's own, a scored one, or
    Step-3's table of augmented training examples.
    """

    def __init__(
        self,
        attr: str,
        stats: AttributeStats,
        correlated: list[str],
        vicinity: Mapping[str, tuple[Mapping, Mapping]],
        embedding: SubwordHashEmbedding | None,
        criteria: list[Criterion],
        config: ZeroEDConfig,
    ) -> None:
        self.attr = attr
        self.stats = stats
        self.correlated = list(correlated)
        # Key order is the vicinity column order.
        self.vicinity = dict(vicinity)
        self.embedding = embedding
        self.criteria = list(criteria)
        self.config = config
        # Pattern frequency tables at the three generalisation levels,
        # accumulated over distinct values in one pass.
        counters: tuple[Counter, Counter, Counter] = (Counter(), Counter(), Counter())
        for value, count in stats.value_counts.items():
            for counter, pattern in zip(counters, all_levels(value)):
                counter[pattern] += count
        self._pattern_counts: list[Counter] = list(counters)

    @classmethod
    def from_table(
        cls,
        table: Table,
        attr: str,
        stats: AttributeStats,
        correlated: list[str],
        embedding: SubwordHashEmbedding | None,
        criteria: list[Criterion],
        config: ZeroEDConfig,
    ) -> "AttributeFeaturizer":
        """A featurizer over ``table``'s own statistics (the fit path).

        Counts the vicinity tables once from the sparse joint counts of
        the interned ``(codes_q, codes_attr)`` pairs: how often each
        ``(q value, attr value)`` pair and each ``q`` value occurs.
        """
        vicinity: dict[str, tuple[dict, dict]] = {}
        if config.use_statistical_features and config.use_correlated_features:
            enc_a = table.encoding(attr)
            for q in correlated:
                enc_q = table.encoding(q)
                q_codes, a_codes, counts, _ = joint_counts(enc_q, enc_a)
                pair_counts = {
                    (enc_q.uniques[qc], enc_a.uniques[ac]): c
                    for qc, ac, c in zip(
                        q_codes.tolist(), a_codes.tolist(), counts.tolist()
                    )
                }
                lhs_counts = dict(zip(enc_q.uniques, enc_q.counts.tolist()))
                vicinity[q] = (pair_counts, lhs_counts)
        return cls(
            attr, stats, correlated, vicinity, embedding, criteria, config
        )

    # ------------------------------------------------------------------
    @property
    def base_dim(self) -> int:
        dim = 0
        if self.config.use_statistical_features:
            dim += 4 + len(self.vicinity)
        if self.config.use_semantic_features and self.embedding is not None:
            dim += self.embedding.dim
        if self.config.use_criteria_features:
            dim += len(self.criteria)
        # With every block disabled, base rows are a single zero
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
        narrow per-row block.  The frequency/vicinity statistics are
        always the frozen ones; ``table``'s codes only say which rows
        carry which value.
        """
        config = self.config
        enc_a = table.encoding(self.attr)
        row_columns: list[np.ndarray] = []
        if config.use_statistical_features:
            row_columns += [
                self._vicinity_column(table, q, enc_a) for q in self.vicinity
            ]
        if config.use_criteria_features:
            row_columns += [c.evaluate_column(table) for c in self.criteria]
        value_blocks = []
        if config.use_statistical_features:
            value_blocks.append(
                np.asarray(
                    [self._frequency_features(u) for u in enc_a.uniques]
                ).reshape(enc_a.n_unique, 4)
            )
        if config.use_semantic_features and self.embedding is not None:
            value_blocks.append(self.embedding.embed_uniques(enc_a.uniques))
        if not (value_blocks or row_columns):
            row_columns = [np.zeros(enc_a.n_rows)]
        per_row = np.empty((enc_a.n_rows, len(row_columns)))
        for k, column in enumerate(row_columns):
            per_row[:, k] = column
        stats = config.use_statistical_features
        return BaseBlocks(
            codes=enc_a.codes,
            per_value=(
                np.hstack(value_blocks)
                if value_blocks
                else np.empty((enc_a.n_unique, 0))
            ),
            per_row=per_row,
            n_freq=4 if stats else 0,
            n_vicinity=len(self.vicinity) if stats else 0,
        )

    def base_matrix(self, table: Table) -> np.ndarray:
        """Base features for every row of ``table``'s ``attr`` column
        (:meth:`base_blocks`, assembled)."""
        return self.base_blocks(table).take()

    def _vicinity_column(self, table: Table, q: str, enc_a) -> np.ndarray:
        """P(value | q's value) per row, via distinct (q, attr) pairs:
        the frozen integer counts divided in float64."""
        pair_counts, lhs_counts = self.vicinity[q]
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

    def _frequency_features(
        self, value: str
    ) -> tuple[float, float, float, float]:
        n = max(self.stats.n_rows, 1)
        p1, p2, p3 = all_levels(value)
        c1, c2, c3 = self._pattern_counts
        return (
            self.stats.value_counts.get(value, 0) / n,
            c1.get(p1, 0) / n,
            c2.get(p2, 0) / n,
            c3.get(p3, 0) / n,
        )


def shared_embedding(config: ZeroEDConfig) -> SubwordHashEmbedding | None:
    """The embedding model ``config`` asks for, or None with semantic
    features off.  The model is immutable for a given (dim, seed), so
    repeated fits share one instance and its warm caches."""
    if not config.use_semantic_features:
        return None
    return SubwordHashEmbedding.shared(
        dim=config.embedding_dim, seed=config.seed
    )


class FeatureSpace:
    """Unified feature representations for every attribute of a table.

    Built from per-attribute featurizers over frozen statistics: a fit
    counts them from the table itself (:meth:`from_table`), a scorer
    takes them from the fit or from an artifact.  The table only says
    which rows carry which values.

    Caches each attribute's :class:`BaseBlocks` — value-only features
    once per distinct value plus a narrow per-row vicinity/criteria
    block — and never an ``n × width`` base matrix.  Unified rows are
    assembled from the blocks on demand, only for the rows asked for —
    the detector's unique-key row blocks, Step-3's labelled rows — or
    for every row, which only Step-2 clustering asks for.
    :meth:`unified_rows` gives another table's rows (Step-3's augmented
    examples) the correlated blocks of their source rows.
    """

    def __init__(
        self,
        table: Table,
        featurizers: dict[str, AttributeFeaturizer],
        correlated: dict[str, list[str]],
        config: ZeroEDConfig,
    ) -> None:
        self.table = table
        self.featurizers = featurizers
        self.correlated = correlated
        self.config = config
        self._blocks: dict[str, BaseBlocks] = {}

    @classmethod
    def from_table(
        cls,
        table: Table,
        stats: dict[str, AttributeStats],
        correlated: dict[str, list[str]],
        criteria: dict[str, list[Criterion]],
        config: ZeroEDConfig,
    ) -> "FeatureSpace":
        """A fit-time space: featurizers over ``table``'s own statistics."""
        embedding = shared_embedding(config)
        featurizers = {
            attr: AttributeFeaturizer.from_table(
                table,
                attr,
                stats[attr],
                correlated.get(attr, []),
                embedding,
                criteria.get(attr, []),
                config,
            )
            for attr in table.attributes
        }
        return cls(table, featurizers, correlated, config)

    # ------------------------------------------------------------------
    def blocks(self, attr: str) -> BaseBlocks:
        cached = self._blocks.get(attr)
        if cached is None:
            cached = self.featurizers[attr].base_blocks(self.table)
            self._blocks[attr] = cached
        return cached

    def invalidate(self, attr: str) -> None:
        """Drop the cached blocks (after criteria refinement)."""
        self._blocks.pop(attr, None)

    def warm(self) -> None:
        """Build every attribute's encoding and blocks serially, so a
        thread fan-out over attributes only reads the shared caches
        (unified rows gather other attributes' blocks)."""
        for attr in self.table.attributes:
            self.table.encoding(attr)
            self.blocks(attr)

    def unified_owners(self, attr: str) -> list[str]:
        """Attributes whose base rows make up ``attr``'s unified row, in
        column order: ``attr`` itself, then its correlated attributes."""
        owners = [attr]
        if self.config.use_correlated_features:
            owners += self.correlated.get(attr, [])
        return owners

    def unified_matrix(
        self, attr: str, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """``f_base(cell) ⊕ f_base(correlated cells)`` for every row, or
        for ``rows`` only."""
        return np.concatenate(
            [
                part
                for owner in self.unified_owners(attr)
                for part in self.blocks(owner).parts(rows)
            ],
            axis=1,
        )

    def unified_rows(
        self,
        attr: str,
        table: Table,
        row_indices: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Unified features for ``table``'s rows, each standing in for
        row ``row_indices[i]`` of this space's table.

        Step-3 assembly's augmented examples: ``table`` holds the
        generated values in ``attr``'s column and their source rows'
        context cells.  The attribute's own base block comes from
        :meth:`AttributeFeaturizer.base_blocks` of ``table``, and each
        correlated block is gathered from the source row's cached
        blocks.
        """
        parts = [self.featurizers[attr].base_blocks(table).take()]
        if self.config.use_correlated_features:
            idx = np.asarray(row_indices, dtype=np.intp)
            if len(idx) != table.n_rows:
                raise ValueError("row_indices must align with table rows")
            for q in self.correlated.get(attr, []):
                parts.append(self.blocks(q).take(idx))
        return np.hstack(parts)
