"""A minimal typed column-store for tabular string data.

The paper treats every cell as a string drawn from a dirty relational
table ``D`` with schema ``Attrs``; error detection is a binary decision
per cell.  :class:`Table` stores cells as Python strings column-wise,
which is what every downstream step (featurisation, serialization,
injection) consumes.  Missing values are represented by the empty
string, matching the paper's serialization rule ("in cases where an
attribute value is NULL, it is represented as an empty string").
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.data.encoding import ColumnEncoding
from repro.errors import DataError, SchemaError


class Table:
    """An immutable-shape, mutable-content table of string cells.

    Parameters
    ----------
    attributes:
        Ordered attribute (column) names.  Must be unique and non-empty.
    columns:
        Mapping from attribute name to a list of string cell values.  All
        columns must have equal length.
    name:
        Optional dataset name used in prompts and reports.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        columns: Mapping[str, Sequence[str]],
        name: str = "table",
    ) -> None:
        attrs = list(attributes)
        if not attrs:
            raise SchemaError("a table needs at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in {attrs!r}")
        missing = [a for a in attrs if a not in columns]
        if missing:
            raise SchemaError(f"columns missing for attributes {missing!r}")
        data: dict[str, list[str]] = {}
        n_rows: int | None = None
        for attr in attrs:
            col = [_coerce_cell(v) for v in columns[attr]]
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise DataError(
                    f"column {attr!r} has {len(col)} rows, expected {n_rows}"
                )
            data[attr] = col
        self._attrs = attrs
        self._attr_index = {a: i for i, a in enumerate(attrs)}
        self._data = data
        self._n_rows = n_rows or 0
        self._encodings: dict[str, ColumnEncoding] = {}
        self._pair_stats: dict[tuple[str, str], object] = {}
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        attributes: Sequence[str],
        rows: Iterable[Sequence[str]],
        name: str = "table",
    ) -> "Table":
        """Build a table from an iterable of row tuples."""
        attrs = list(attributes)
        cols: dict[str, list[str]] = {a: [] for a in attrs}
        for i, row in enumerate(rows):
            if len(row) != len(attrs):
                raise DataError(
                    f"row {i} has {len(row)} cells, expected {len(attrs)}"
                )
            for a, v in zip(attrs, row):
                cols[a].append(_coerce_cell(v))
        return cls(attrs, cols, name=name)

    def copy(self) -> "Table":
        """Return a deep copy (cell lists are copied)."""
        return Table(
            self._attrs,
            {a: list(self._data[a]) for a in self._attrs},
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Shape and access
    # ------------------------------------------------------------------
    @property
    def attributes(self) -> list[str]:
        """Ordered attribute names (a copy; mutation-safe)."""
        return list(self._attrs)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_attributes(self) -> int:
        return len(self._attrs)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_attributes)."""
        return (self._n_rows, len(self._attrs))

    def column(self, attr: str) -> list[str]:
        """Return the cells of ``attr`` (a copy)."""
        self._check_attr(attr)
        return list(self._data[attr])

    def column_view(self, attr: str) -> Sequence[str]:
        """Return the live cell list of ``attr`` without copying.

        Callers must not mutate the returned list; use :meth:`set_cell`.
        """
        self._check_attr(attr)
        return self._data[attr]

    def row(self, i: int) -> dict[str, str]:
        """Return row ``i`` as an attribute→value dict."""
        self._check_row(i)
        return {a: self._data[a][i] for a in self._attrs}

    def row_tuple(self, i: int) -> tuple[str, ...]:
        self._check_row(i)
        return tuple(self._data[a][i] for a in self._attrs)

    def cell(self, i: int, attr: str) -> str:
        self._check_row(i)
        self._check_attr(attr)
        return self._data[attr][i]

    def set_cell(self, i: int, attr: str, value: str) -> None:
        self._check_row(i)
        self._check_attr(attr)
        self._data[attr][i] = _coerce_cell(value)
        self._encodings.pop(attr, None)
        if self._pair_stats:
            self._pair_stats = {
                key: ps for key, ps in self._pair_stats.items()
                if attr not in key
            }

    def attr_index(self, attr: str) -> int:
        self._check_attr(attr)
        return self._attr_index[attr]

    def encoding(self, attr: str) -> ColumnEncoding:
        """Cached integer factorization of ``attr``'s column.

        Computed lazily on first use and invalidated by
        :meth:`set_cell` (the only content mutator), so repeated
        consumers — stats, features, criteria, sampling — share one
        factorization pass per column.
        """
        self._check_attr(attr)
        enc = self._encodings.get(attr)
        if enc is None:
            enc = ColumnEncoding.from_values(self._data[attr])
            self._encodings[attr] = enc
        return enc

    def pair_stats(self, lhs: str, rhs: str):
        """Cached dependency statistics for the ``(lhs, rhs)`` pair.

        Memoizes :meth:`repro.data.stats.PairStats.compute` per ordered
        pair, invalidated by :meth:`set_cell` for entries touching the
        mutated attribute — the same lifecycle as :meth:`encoding`.
        The labeling, repair and profiling stages all consult the same
        correlated pairs, so one computation pass serves them all.
        (Imported lazily: ``stats`` builds on this module.)
        """
        self._check_attr(lhs)
        self._check_attr(rhs)
        key = (lhs, rhs)
        ps = self._pair_stats.get(key)
        if ps is None:
            from repro.data.stats import PairStats

            ps = PairStats.compute(self, lhs, rhs)
            self._pair_stats[key] = ps
        return ps

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def head(self, n: int) -> "Table":
        """Return a new table with the first ``n`` rows."""
        return self.select_rows(range(min(n, self._n_rows)))

    def select_rows(self, indices: Iterable[int]) -> "Table":
        """Return a new table containing the given rows, in order."""
        idx = list(indices)
        for i in idx:
            self._check_row(i)
        cols = {a: [self._data[a][i] for i in idx] for a in self._attrs}
        return Table(self._attrs, cols, name=self.name)

    def select_attributes(self, attrs: Sequence[str]) -> "Table":
        """Return a new table with only the given attributes."""
        for a in attrs:
            self._check_attr(a)
        return Table(
            list(attrs), {a: list(self._data[a]) for a in attrs}, name=self.name
        )

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def diff_mask(self, other: "Table") -> list[list[bool]]:
        """Cell-wise inequality against ``other`` (row-major nested lists).

        Used to derive ground-truth error masks: the paper defines a cell
        as erroneous iff it differs from the clean table's cell.
        """
        if other.attributes != self._attrs or other.n_rows != self._n_rows:
            raise SchemaError("tables must share schema and row count to diff")
        per_attr = [
            [mine != theirs
             for mine, theirs in zip(self._data[a], other._data[a])]
            for a in self._attrs
        ]
        return [list(row) for row in zip(*per_attr)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self._attrs == other._attrs
            and all(self._data[a] == other._data[a] for a in self._attrs)
        )

    def __len__(self) -> int:
        return self._n_rows

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, rows={self._n_rows}, "
            f"attrs={len(self._attrs)})"
        )

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_attr(self, attr: str) -> None:
        if attr not in self._data:
            raise SchemaError(f"unknown attribute {attr!r}")

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self._n_rows:
            raise SchemaError(f"row index {i} out of range [0, {self._n_rows})")


def _coerce_cell(value: object) -> str:
    """Normalise a raw cell to the library's string representation."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return str(value)
