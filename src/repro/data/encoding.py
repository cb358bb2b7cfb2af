"""Columnar value interning: factorize a column once, work per unique.

Real tabular columns are highly repetitive — a 200k-row Tax column
holds a few hundred distinct strings.  Every hot stage of the pipeline
(frequency features, pattern generalisation, vicinity co-occurrence,
embeddings, criteria execution) is a pure function of the cell *value*
(plus the values of a few context cells), so computing it per row is
O(n_rows) wasted work.

:class:`ColumnEncoding` interns a string column into

* ``codes`` — an ``int64`` array assigning each row the integer id of
  its value, ids issued in order of first appearance;
* ``uniques`` — the distinct values, indexed by id;
* ``counts`` — occurrences per distinct value (``np.bincount(codes)``).

Downstream stages then evaluate per *unique* value and scatter back
with ``result[codes]`` (a single NumPy gather), and joint statistics
between two columns become integer-array problems: the pair id
``codes_q * n_unique_a + codes_a`` turns co-occurrence counting into
one unique-key fold over the distinct pairs actually present —
equivalent to a dense ``np.add.at`` joint-count matrix but without
materialising the ``n_unique_q × n_unique_a`` grid, which
high-cardinality pairs would blow up.

Every unique-combo fold (joint counts, criteria combos, the fast
detector's unique keys) goes through :func:`unique_keys`: it returns
what ``np.unique`` returns with all four outputs, but answers a key of
at most one row — a one-row request is its own unique — without a
sort.

Encodings are cached on :class:`~repro.data.table.Table` (see
``Table.encoding``) and invalidated by ``set_cell``, the table's only
mutator.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ColumnEncoding:
    """Integer factorization of one string column.

    Attributes
    ----------
    codes:
        ``int64`` array of shape ``(n_rows,)``; ``uniques[codes[i]]``
        is row ``i``'s value.  Ids follow first-appearance order, so
        iterating ``uniques`` reproduces the column's first-occurrence
        order (the same order ``Counter(column)`` iterates).
    uniques:
        Distinct values in first-appearance order.
    counts:
        ``int64`` array aligned with ``uniques``: occurrences of each
        distinct value.
    """

    codes: np.ndarray
    uniques: list[str]
    counts: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[str]) -> "ColumnEncoding":
        """Factorize ``values`` in one pass (first-appearance ids)."""
        code_of: dict[str, int] = {}
        codes = np.fromiter(
            (code_of.setdefault(v, len(code_of)) for v in values),
            dtype=np.int64,
            count=len(values),
        )
        counts = np.bincount(codes, minlength=len(code_of)).astype(np.int64)
        return cls(codes=codes, uniques=list(code_of), counts=counts)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_unique(self) -> int:
        return len(self.uniques)


def fold_codes(
    encodings: Sequence[ColumnEncoding],
    row_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Injective int64 key per row for a tuple of aligned columns.

    Two rows get equal keys iff their value tuples over ``encodings``
    are equal — the array form of ``tuple(row values)``.  When the
    combined cardinality fits in int64 the key is the mixed-radix fold
    ``((c0 * n1 + c1) * n2 + c2) ...`` (the common case: one or two
    context columns); otherwise the stacked codes are re-interned with
    one ``np.unique(axis=0)`` pass, which preserves equality semantics
    at the cost of a lexsort.

    ``row_indices`` restricts the fold to those rows (keys are then
    aligned with ``row_indices``, not with the full column).

    The result may alias the first encoding's live ``codes`` array
    (single-encoding passthrough) — treat it as read-only.
    """
    if not encodings:
        raise ValueError("fold_codes needs at least one encoding")

    def col(enc: ColumnEncoding) -> np.ndarray:
        return enc.codes if row_indices is None else enc.codes[row_indices]

    capacity = 1
    for enc in encodings:
        capacity *= max(enc.n_unique, 1)
    if capacity < 2**62:
        key = col(encodings[0])
        for enc in encodings[1:]:
            key = key * np.int64(max(enc.n_unique, 1)) + col(enc)
        return key
    stacked = np.stack([col(enc) for enc in encodings], axis=1)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    return inverse.astype(np.int64, copy=False)


def unique_keys(
    key: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fold of a 1-D key array into its distinct keys.

    Returns exactly ``np.unique(key, return_index=True,
    return_inverse=True, return_counts=True)``, values and dtypes: the
    sorted distinct keys, the first row of each, each row's slot among
    them and each key's count.  A key of length 0 or 1 already is its
    own fold, so it is answered without sorting.
    """
    if len(key) > 1:
        return np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
    rows = np.arange(len(key), dtype=np.intp)
    return key.copy(), rows, rows.copy(), np.ones(len(key), dtype=np.intp)


def joint_counts(
    lhs: ColumnEncoding, rhs: ColumnEncoding, return_index: bool = False
) -> tuple[np.ndarray, ...]:
    """Sparse co-occurrence counts between two aligned columns.

    Returns ``(lhs_codes, rhs_codes, counts, inverse)`` where the first
    three are aligned over the distinct ``(lhs, rhs)`` pairs present
    and ``counts[inverse]`` is the per-row count of the row's own pair.
    With ``return_index`` a fifth array is appended: the row index of
    each distinct pair's first occurrence.
    """
    if lhs.n_rows != rhs.n_rows:
        raise ValueError("joint_counts needs equally long columns")
    pair = lhs.codes * np.int64(max(rhs.n_unique, 1)) + rhs.codes
    pairs, first_rows, inverse, counts = unique_keys(pair)
    lhs_codes, rhs_codes = np.divmod(pairs, max(rhs.n_unique, 1))
    out = (lhs_codes, rhs_codes, counts.astype(np.int64), inverse)
    return out + (first_rows,) if return_index else out
