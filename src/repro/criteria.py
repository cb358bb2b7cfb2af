"""Compilation and execution of LLM-generated error-checking criteria.

The LLM emits criteria as Python *source strings* (Fig. 4).  This
module turns them into safe callables and evaluates them over tables:

* compilation runs in a restricted namespace (fresh builtins, no
  access to the caller's globals);
* a criterion that raises counts as "not clean" for that key (its
  verdict is cached like any other);
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

    def evaluate_column(self, table: Table) -> np.ndarray:
        """Boolean pass-vector for this criterion over every row.

        The criterion is a pure function of ``row[attr]`` and the
        ``context_attrs`` cells, so it runs once per distinct
        value-combination (found via the table's interned column codes)
        and the verdicts are scattered back to rows with one gather.
        With no context column in the table the value alone decides:
        the criterion runs once per ``enc.uniques`` and the verdicts
        gather by ``enc.codes``, at any table size.
        """
        enc = table.encoding(self.attr)
        context_names = [a for a in self.context_attrs if a in table.attributes]
        # Each row dict built here is fresh and discarded, so it can go
        # to the compiled function without `check`'s defensive copy.
        if not context_names:
            # The codes already are the fold: ids follow first
            # appearance, the order a sorted fold visits first rows in.
            verdicts = np.empty(enc.n_unique, dtype=bool)
            for j, value in enumerate(enc.uniques):
                row = {self.attr: value}
                verdicts[j] = self._check_consumable(row, self._row_key(row))
            return verdicts[enc.codes]
        value_col = table.column_view(self.attr)
        context_cols = [table.column_view(a) for a in context_names]
        # One int64 key per row for the (value, context...) combo; a
        # 1-D fold is much cheaper than an axis=0 lexsort (fold_codes
        # falls back to one only when the combined cardinality
        # overflows int64).
        key = fold_codes([enc] + [table.encoding(a) for a in context_names])
        _, first_rows, inverse, _ = unique_keys(key)
        verdicts = np.empty(len(first_rows), dtype=bool)
        for j, i in enumerate(first_rows.tolist()):
            row = {self.attr: value_col[i]}
            for name, col in zip(context_names, context_cols):
                row[name] = col[i]
            verdicts[j] = self._check_consumable(row, self._row_key(row))
        return verdicts[inverse]

    def evaluate_rows(
        self,
        table: Table,
        row_indices: Sequence[int] | np.ndarray,
        context: Sequence[str] = (),
    ) -> np.ndarray:
        """Boolean pass-vector over ``row_indices`` (aligned with them).

        The vectorized form of calling :meth:`check` on
        ``{attr: cell, q: cell for q in context}`` dicts row by row:
        the unique-combo fold of :meth:`evaluate_column` restricted to
        the given rows.  The cache key only involves ``attr`` and the
        ``context_attrs`` present among ``context``, so the criterion
        runs once per distinct key — on the key's *first* row in
        ``row_indices`` order, with the full context dict, exactly the
        row the per-row loop's first cache miss would have evaluated —
        and shares its verdict cache with every other entry point.
        """
        idx = np.asarray(row_indices, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        value_col = table.column_view(self.attr)
        context_names = [q for q in context if q != self.attr]
        context_cols = {a: table.column_view(a) for a in context_names}
        # Only columns that feed `_row_key` partition the rows; context
        # attrs absent from the row dicts contribute a constant "".
        key_names = [a for a in self.context_attrs if a in context_cols]
        key = fold_codes(
            [table.encoding(self.attr)]
            + [table.encoding(a) for a in key_names],
            row_indices=idx,
        )
        _, first_pos, inverse, _ = unique_keys(key)
        verdicts = np.empty(len(first_pos), dtype=bool)
        for j, p in enumerate(first_pos.tolist()):
            i = int(idx[p])
            row = {self.attr: value_col[i]}
            for name, col in context_cols.items():
                row[name] = col[i]
            verdicts[j] = self._check_consumable(row, self._row_key(row))
        return verdicts[inverse]

    def evaluate_values(
        self,
        values: Sequence[str],
        rows: Sequence[Mapping[str, str]],
    ) -> np.ndarray:
        """Boolean pass-vector for ad-hoc ``(value, row-context)`` pairs.

        The batch form of calling :meth:`check` on ``{**row, attr:
        value}`` pair by pair — the :meth:`evaluate_column` unique-combo
        fold applied to *ad-hoc* values (augmented training examples),
        where no interned codes exist so the fold groups on the string
        key itself.  The criterion runs once per distinct ``(value,
        context...)`` key — on the key's first pair in input order, the
        pair the per-value loop's first cache miss would have evaluated
        — and shares its verdict cache with every other entry point, so
        the scattered verdicts are bit-identical to the per-value loop.
        """
        if len(values) != len(rows):
            raise CriteriaError("values and rows must align")
        # Keys are built inline from (value, context cells) — the same
        # tuple ``_row_key`` would produce for ``{**row, attr: value}``
        # — so the per-pair cost is one tuple, not a dict copy; the
        # full context dict is only materialised for each key's first
        # pair (the one actually evaluated).  The no-context and
        # single-context shapes cover nearly every LLM-emitted
        # criterion, so they skip the inner generator.
        attr = self.attr
        ctx = self.context_attrs
        if not ctx:
            keys = [(value,) for value in values]
        elif len(ctx) == 1 and ctx[0] != attr:
            a0 = ctx[0]
            keys = [
                (value, row.get(a0, ""))
                for value, row in zip(values, rows)
            ]
        else:
            keys = [
                (value,)
                + tuple(
                    value if a == attr else row.get(a, "") for a in ctx
                )
                for value, row in zip(values, rows)
            ]
        inverse = np.empty(len(values), dtype=np.intp)
        slots: dict[tuple, int] = {}
        firsts: list[int] = []
        for pos, key in enumerate(keys):
            slot = slots.get(key)
            if slot is None:
                slot = len(firsts)
                slots[key] = slot
                firsts.append(pos)
            inverse[pos] = slot
        verdicts = np.empty(len(firsts), dtype=bool)
        for j, pos in enumerate(firsts):
            # Fresh dicts built here, so no defensive copy is needed
            # before handing them to the compiled function.
            context = dict(rows[pos])
            context[attr] = values[pos]
            verdicts[j] = self._check_consumable(context, keys[pos])
        return verdicts[inverse]

    def accuracy_on(self, rows: Sequence[Mapping[str, str]]) -> float:
        """Fraction of ``rows`` this criterion accepts (pass rate)."""
        if not rows:
            return 0.0
        passed = sum(1 for row in rows if self.check(row))
        return passed / len(rows)


def compile_criteria(attr: str, specs: Sequence[Mapping]) -> list[Criterion]:
    """Compile a list of LLM criterion specs, skipping broken sources."""
    out = []
    for spec in specs:
        try:
            out.append(Criterion.from_spec(attr, spec))
        except CriteriaError:
            continue  # a real LLM also emits the occasional broken function
    return out
