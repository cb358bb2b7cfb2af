"""Compilation and execution of LLM-generated error-checking criteria.

The LLM emits criteria as Python *source strings* (Fig. 4).  This
module turns them into safe callables and evaluates them over tables:

* compilation runs in a restricted namespace (fresh builtins, no
  access to the caller's globals);
* a criterion that raises counts as "not clean" for that key (its
  verdict is cached like any other);
* :meth:`Criterion.evaluate_column` is the one fold over a table:
  every caller — scoring, verification on right-labeled rows, the
  augmentation filter, pass rates over row dicts — hands it a table,
  and a criterion's context is its ``context_attrs`` present in that
  table;
* per-value caching exploits ``context_attrs`` metadata: a criterion
  that reads only ``row[attr]`` is evaluated once per distinct value,
  which keeps the 200k-row Tax workload tractable.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.data.encoding import fold_codes, unique_keys
from repro.data.table import Table
from repro.errors import CriteriaError

_ALLOWED_IMPORT_ROOTS = {
    "re", "math", "string", "datetime", "collections", "itertools",
    "functools", "statistics",
}


def _restricted_import(name, globals=None, locals=None, fromlist=(), level=0):
    root = name.split(".")[0]
    if root not in _ALLOWED_IMPORT_ROOTS:
        raise ImportError(f"import of {name!r} not allowed in criteria code")
    return __import__(name, globals, locals, fromlist, level)


def compile_function(source: str, name: str):
    """Compile ``source`` and return the function called ``name``."""
    import builtins as _builtins

    safe_builtins = {
        k: getattr(_builtins, k)
        for k in (
            "abs", "all", "any", "bool", "dict", "enumerate", "float",
            "int", "len", "list", "max", "min", "range", "round", "set",
            "sorted", "str", "sum", "tuple", "zip", "isinstance", "repr",
            "ValueError", "TypeError", "IndexError", "KeyError",
            "Exception", "ImportError", "AttributeError", "ZeroDivisionError",
        )
    }
    safe_builtins["__import__"] = _restricted_import
    namespace: dict = {"__builtins__": safe_builtins}
    try:
        exec(compile(source, f"<criterion:{name}>", "exec"), namespace)
    except SyntaxError as exc:
        raise CriteriaError(f"criterion {name!r} failed to compile: {exc}") from exc
    fn = namespace.get(name)
    if not callable(fn):
        raise CriteriaError(f"criterion source does not define {name!r}")
    return fn


@dataclass
class Criterion:
    """One compiled error-checking criterion for a specific attribute."""

    attr: str
    name: str
    source: str
    context_attrs: list[str] = field(default_factory=list)
    _fn: object = None
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_spec(cls, attr: str, spec: Mapping) -> "Criterion":
        """Build from the LLM's ``{name, source, context_attrs}`` dict."""
        crit = cls(
            attr=attr,
            name=str(spec["name"]),
            source=str(spec["source"]),
            context_attrs=list(spec.get("context_attrs", [])),
        )
        crit._fn = compile_function(crit.source, crit.name)
        return crit

    def _row_key(self, row: Mapping[str, str]) -> tuple:
        return (row.get(self.attr, ""),) + tuple(
            row.get(a, "") for a in self.context_attrs
        )

    def _check_consumable(self, row: dict, key: tuple) -> bool:
        """Cached evaluation of a row dict the criterion may mutate."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        try:
            result = bool(self._fn(row, self.attr))
        except Exception:
            result = False
        if len(self._cache) < 500_000:
            self._cache[key] = result
        return result

    def check(self, row: Mapping[str, str]) -> bool:
        """Evaluate on one row; runtime errors count as 'not clean'."""
        return self._check_consumable(dict(row), self._row_key(row))

    def evaluate_column(
        self,
        table: Table,
        rows: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean pass-vector over ``rows`` (every row when ``None``),
        aligned with them.

        The criterion's context is its ``context_attrs`` present in
        ``table``: each row dict carries ``attr`` plus those cells, so
        scoring, verification and the augmentation filter all evaluate
        a criterion on the same cells.  The criterion is a pure function
        of them, so it runs once per distinct value-combination (found
        via the table's interned column codes), on the combo's first
        row, and the verdicts are scattered back with one gather.  With
        no context column in the table the value alone decides: the
        criterion runs once per value code present in ``rows`` and the
        verdicts gather by those codes, at any table size.  Each verdict
        is cached under :meth:`_row_key`'s tuple — the value, then each
        ``context_attrs`` cell, ``""`` where the table has none — so
        :meth:`check` shares the cache.
        """
        enc = table.encoding(self.attr)
        idx = None if rows is None else np.asarray(rows, dtype=np.int64)
        context_names = [a for a in self.context_attrs if a in table.attributes]
        # Each row dict built here is fresh and discarded, so it can go
        # to the compiled function without `check`'s defensive copy.
        if not context_names:
            # The value codes already are the fold: the loop visits
            # them in ascending order, as a sorted fold would.
            blanks = ("",) * len(self.context_attrs)
            if idx is None:
                codes, present = enc.codes, enumerate(enc.uniques)
            else:
                codes = enc.codes[idx]
                seen = np.zeros(enc.n_unique, dtype=bool)
                seen[codes] = True
                present = [
                    (j, enc.uniques[j]) for j in np.flatnonzero(seen).tolist()
                ]
            verdicts = np.empty(enc.n_unique, dtype=bool)
            for j, value in present:
                verdicts[j] = self._check_consumable(
                    {self.attr: value}, (value, *blanks)
                )
            return verdicts[codes]
        # One int64 key per row for the (value, context...) combo; a
        # 1-D fold is much cheaper than an axis=0 lexsort (fold_codes
        # falls back to one only when the combined cardinality
        # overflows int64).
        key = fold_codes(
            [enc] + [table.encoding(a) for a in context_names],
            row_indices=idx,
        )
        _, first_pos, inverse, _ = unique_keys(key)
        if idx is not None:
            first_pos = idx[first_pos]
        first = first_pos.tolist()
        value_col = table.column_view(self.attr)
        cells = {}
        for name in context_names:
            col = table.column_view(name)
            cells[name] = [col[i] for i in first]
        blank_cells = [""] * len(first)
        key_columns = [[value_col[i] for i in first]] + [
            cells.get(a, blank_cells) for a in self.context_attrs
        ]
        verdicts = np.empty(len(first), dtype=bool)
        for j, cell_key in enumerate(zip(*key_columns)):
            row = {self.attr: cell_key[0]}
            for name in context_names:
                row[name] = cells[name][j]
            verdicts[j] = self._check_consumable(row, cell_key)
        return verdicts[inverse]

    def evaluate_values(
        self,
        values: Sequence[str],
        rows: Sequence[Mapping[str, str]],
    ) -> np.ndarray:
        """Boolean pass-vector for ad-hoc ``(value, row-context)`` pairs:
        :meth:`evaluate_column` over a table of ``values`` and the
        rows' context cells (a missing cell reads as empty)."""
        if len(values) != len(rows):
            raise CriteriaError("values and rows must align")
        return self.evaluate_column(self._table_of(rows, values))

    def accuracy_on(self, rows: Sequence[Mapping[str, str]]) -> float:
        """Fraction of ``rows`` this criterion accepts (pass rate).

        One :meth:`evaluate_column` over a table of the rows' cells: the
        criterion runs once per distinct cache key, where a per-row
        :meth:`check` loop would copy and key every row.
        """
        if not rows:
            return 0.0
        verdicts = self.evaluate_column(self._table_of(rows))
        return int(np.count_nonzero(verdicts)) / len(rows)

    def _table_of(
        self,
        rows: Sequence[Mapping[str, str]],
        values: Sequence[str] | None = None,
    ) -> Table:
        """The rows' ``attr`` (or ``values``) and ``context_attrs``
        cells as a table; a missing cell reads as empty, as in
        :meth:`_row_key`."""
        names = list(dict.fromkeys([self.attr, *self.context_attrs]))
        columns = {a: [row.get(a, "") for row in rows] for a in names}
        if values is not None:
            columns[self.attr] = list(values)
        return Table(names, columns)


def compile_criteria(attr: str, specs: Sequence[Mapping]) -> list[Criterion]:
    """Compile a list of LLM criterion specs, skipping broken sources."""
    out = []
    for spec in specs:
        try:
            out.append(Criterion.from_spec(attr, spec))
        except CriteriaError:
            continue  # a real LLM also emits the occasional broken function
    return out
