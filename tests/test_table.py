"""Tests for repro.data.table."""

import pytest

from repro.data.table import Table
from repro.errors import DataError, SchemaError


def make(rows=None):
    rows = rows or [["a", "1"], ["b", "2"], ["c", "3"]]
    return Table.from_rows(["x", "y"], rows)


class TestConstruction:
    def test_from_rows_shape(self):
        t = make()
        assert t.shape == (3, 2)
        assert t.attributes == ["x", "y"]

    def test_from_columns(self):
        t = Table(["x", "y"], {"x": ["a"], "y": ["b"]})
        assert t.row(0) == {"x": "a", "y": "b"}

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Table([], {})

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Table(["x", "x"], {"x": ["a"]})

    def test_missing_column_rejected(self):
        with pytest.raises(SchemaError):
            Table(["x", "y"], {"x": ["a"]})

    def test_ragged_columns_rejected(self):
        with pytest.raises(DataError):
            Table(["x", "y"], {"x": ["a"], "y": ["b", "c"]})

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            Table.from_rows(["x", "y"], [["a"]])

    def test_none_coerced_to_empty_string(self):
        t = Table.from_rows(["x"], [[None]])
        assert t.cell(0, "x") == ""

    def test_non_string_coerced(self):
        t = Table.from_rows(["x"], [[42]])
        assert t.cell(0, "x") == "42"


class TestAccess:
    def test_cell_and_set_cell(self):
        t = make()
        t.set_cell(1, "y", "99")
        assert t.cell(1, "y") == "99"

    def test_column_returns_copy(self):
        t = make()
        col = t.column("x")
        col[0] = "mutated"
        assert t.cell(0, "x") == "a"

    def test_column_view_is_live(self):
        t = make()
        view = t.column_view("x")
        t.set_cell(0, "x", "z")
        assert view[0] == "z"

    def test_row_tuple(self):
        assert make().row_tuple(0) == ("a", "1")

    def test_unknown_attr_raises(self):
        with pytest.raises(SchemaError):
            make().cell(0, "nope")

    def test_row_out_of_range(self):
        with pytest.raises(SchemaError):
            make().row(3)

    def test_attr_index(self):
        assert make().attr_index("y") == 1


class TestSlicing:
    def test_head(self):
        assert make().head(2).n_rows == 2

    def test_head_beyond_length(self):
        assert make().head(10).n_rows == 3

    def test_select_rows_order(self):
        t = make().select_rows([2, 0])
        assert t.column("x") == ["c", "a"]

    def test_select_attributes(self):
        t = make().select_attributes(["y"])
        assert t.attributes == ["y"]
        assert t.n_rows == 3

    def test_copy_is_deep(self):
        t = make()
        c = t.copy()
        c.set_cell(0, "x", "changed")
        assert t.cell(0, "x") == "a"


class TestDiff:
    def test_diff_mask_marks_changes(self):
        a = make()
        b = make()
        b.set_cell(1, "x", "changed")
        mask = b.diff_mask(a)
        assert mask[1][0] is True
        assert sum(sum(r) for r in mask) == 1

    def test_diff_requires_same_schema(self):
        other = Table.from_rows(["z"], [["1"], ["2"], ["3"]])
        with pytest.raises(SchemaError):
            make().diff_mask(other)

    def test_equality(self):
        assert make() == make()
        changed = make()
        changed.set_cell(0, "x", "q")
        assert make() != changed
