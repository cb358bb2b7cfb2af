"""Tests for repro.criteria: compilation, sandboxing, caching."""

import pytest

from repro.criteria import Criterion, compile_criteria, compile_function
from repro.data.table import Table
from repro.errors import CriteriaError

GOOD = '''
def is_clean_upper(row, attr):
    value = row[attr]
    return bool(value) and value == value.upper()
'''

USES_IMPORT = '''
def is_clean_digits(row, attr):
    import re
    return re.fullmatch(r"\\d+", row[attr]) is not None
'''

BROKEN_SYNTAX = "def is_clean_x(row, attr) return True"

RAISES = '''
def is_clean_boom(row, attr):
    raise ValueError("boom")
'''

FORBIDDEN_IMPORT = '''
def is_clean_evil(row, attr):
    import os
    return True
'''


class TestCompileFunction:
    def test_good_source(self):
        fn = compile_function(GOOD, "is_clean_upper")
        assert fn({"x": "ABC"}, "x") is True
        assert fn({"x": "abc"}, "x") is False

    def test_allowed_import(self):
        fn = compile_function(USES_IMPORT, "is_clean_digits")
        assert fn({"x": "123"}, "x")

    def test_syntax_error(self):
        with pytest.raises(CriteriaError):
            compile_function(BROKEN_SYNTAX, "is_clean_x")

    def test_wrong_name(self):
        with pytest.raises(CriteriaError):
            compile_function(GOOD, "not_defined")

    def test_forbidden_import_fails_at_runtime(self):
        fn = compile_function(FORBIDDEN_IMPORT, "is_clean_evil")
        with pytest.raises(ImportError):
            fn({"x": "1"}, "x")

    def test_no_builtins_leakage(self):
        source = '''
def is_clean_sneaky(row, attr):
    return open("/etc/passwd")
'''
        fn = compile_function(source, "is_clean_sneaky")
        with pytest.raises(Exception):
            fn({"x": "1"}, "x")


class TestCriterion:
    def spec(self, source=GOOD, name="is_clean_upper", context=()):
        return {"name": name, "source": source, "context_attrs": list(context)}

    def test_from_spec_and_check(self):
        crit = Criterion.from_spec("x", self.spec())
        assert crit.check({"x": "GOOD"})
        assert not crit.check({"x": "bad"})

    def test_runtime_error_counts_not_clean(self):
        crit = Criterion.from_spec("x", self.spec(RAISES, "is_clean_boom"))
        assert crit.check({"x": "anything"}) is False

    def test_cache_by_value(self):
        crit = Criterion.from_spec("x", self.spec())
        assert crit.check({"x": "AA"}) is True
        # Same value hits the cache (and still returns True).
        assert crit.check({"x": "AA"}) is True
        assert len(crit._cache) == 1

    def test_context_attr_in_cache_key(self):
        source = '''
def is_clean_match(row, attr):
    return row[attr] == row.get("other", "")
'''
        crit = Criterion.from_spec(
            "x", {"name": "is_clean_match", "source": source,
                  "context_attrs": ["other"]},
        )
        assert crit.check({"x": "a", "other": "a"})
        assert not crit.check({"x": "a", "other": "b"})

    def test_evaluate_column(self):
        t = Table.from_rows(["x"], [["AB"], ["cd"], ["EF"]])
        crit = Criterion.from_spec("x", self.spec())
        assert crit.evaluate_column(t).tolist() == [True, False, True]

    def test_accuracy_on(self):
        crit = Criterion.from_spec("x", self.spec())
        rows = [{"x": "AA"}, {"x": "bb"}]
        assert crit.accuracy_on(rows) == pytest.approx(0.5)
        assert crit.accuracy_on([]) == 0.0


MATCHES_OTHER = '''
def is_clean_match(row, attr):
    return row.get(attr, "") == row.get("other", "")
'''

POSITIVE_INT = '''
def is_clean_positive(row, attr):
    return int(row[attr]) > 0
'''


class TestAccuracyOnFold:
    """``accuracy_on`` is one ``evaluate_column`` fold; it must equal
    the per-row ``check`` loop it replaced."""

    ROWS = [
        {"x": "a", "other": "a"},
        {"x": "a", "other": "b"},
        {"x": "b", "other": "b", "unrelated": "z"},
        {"x": ""},                          # no context cell: reads ""
        {"x": "a"},
        {"x": "a", "other": "a"},
        {"x": "7", "other": ""},
    ]

    @staticmethod
    def make(name, source, context=()):
        return Criterion.from_spec(
            "x",
            {"name": name, "source": source, "context_attrs": list(context)},
        )

    @staticmethod
    def per_row(crit, rows):
        return sum(1 for r in rows if crit.check(r)) / len(rows)

    @pytest.mark.parametrize(
        "name,source,context",
        [
            ("is_clean_match", MATCHES_OTHER, ["other"]),
            ("is_clean_upper", GOOD, []),
            ("is_clean_positive", POSITIVE_INT, []),   # raises on most
            ("is_clean_boom", RAISES, ["other"]),      # always raises
        ],
    )
    def test_equals_per_row_loop(self, name, source, context):
        rows = [dict(r) for r in self.ROWS]
        folded = self.make(name, source, context).accuracy_on(rows)
        looped = self.per_row(self.make(name, source, context), rows)
        assert folded == looped
        assert rows == self.ROWS                     # rows not mutated

    def test_empty_rows(self):
        assert self.make("is_clean_upper", GOOD).accuracy_on([]) == 0.0

    def test_runs_once_per_distinct_key_without_per_row_checks(self):
        crit = self.make("is_clean_match", MATCHES_OTHER, ["other"])
        calls, checks = [], []
        fn = crit._fn
        crit._fn = lambda row, attr: calls.append(1) or fn(row, attr)
        crit.check = lambda row: checks.append(1) or Criterion.check(crit, row)
        rows = self.ROWS * 50
        expected = self.per_row(
            self.make("is_clean_match", MATCHES_OTHER, ["other"]), rows
        )
        assert crit.accuracy_on(rows) == expected
        keys = {(r.get("x", ""), r.get("other", "")) for r in rows}
        assert len(calls) == len(keys)
        assert checks == []                          # no row-by-row pass
        crit.accuracy_on(rows)                       # cached verdicts
        assert len(calls) == len(keys)


class TestCompileCriteria:
    def test_skips_broken_sources(self):
        specs = [
            {"name": "is_clean_upper", "source": GOOD},
            {"name": "is_clean_x", "source": BROKEN_SYNTAX},
        ]
        crits = compile_criteria("x", specs)
        assert [c.name for c in crits] == ["is_clean_upper"]
