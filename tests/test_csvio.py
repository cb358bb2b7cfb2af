"""Tests for repro.data.csvio."""

import pytest

from repro.data.csvio import (
    append_csv_rows,
    iter_csv_chunks,
    read_csv,
    write_csv,
)
from repro.data.table import Table
from repro.errors import DataError


def test_roundtrip(tmp_path):
    t = Table.from_rows(
        ["a", "b"], [["x", "1"], ["has,comma", 'has"quote'], ["", "empty ok"]]
    )
    path = tmp_path / "t.csv"
    write_csv(t, path)
    back = read_csv(path)
    assert back == t


def test_name_defaults_to_stem(tmp_path):
    t = Table.from_rows(["a"], [["1"]])
    path = tmp_path / "mydata.csv"
    write_csv(t, path)
    assert read_csv(path).name == "mydata"


def test_short_rows_padded(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\nonly_one\n")
    t = read_csv(path)
    assert t.row(0) == {"a": "only_one", "b": ""}


def test_long_rows_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2,3\n")
    with pytest.raises(DataError):
        read_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError):
        read_csv(path)


def test_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n")
    t = read_csv(path)
    assert t.n_rows == 0
    assert t.attributes == ["a", "b"]


class TestIterCsvChunks:
    def _write(self, tmp_path, rows):
        t = Table.from_rows(["a", "b"], rows)
        path = tmp_path / "t.csv"
        write_csv(t, path)
        return t, path

    def test_chunks_concatenate_to_read_csv(self, tmp_path):
        rows = [[f"v{i % 3}", str(i)] for i in range(10)]
        t, path = self._write(tmp_path, rows)
        for chunk_rows in (1, 3, 4, 10, 99):
            chunks = list(iter_csv_chunks(path, chunk_rows))
            got = [
                c.row_tuple(i) for c in chunks for i in range(c.n_rows)
            ]
            assert got == [t.row_tuple(i) for i in range(t.n_rows)]
            assert all(c.attributes == t.attributes for c in chunks)
            assert all(c.n_rows <= chunk_rows for c in chunks)

    def test_chunk_name_and_sizes(self, tmp_path):
        _, path = self._write(tmp_path, [["x", str(i)] for i in range(7)])
        chunks = list(iter_csv_chunks(path, 3))
        assert [c.n_rows for c in chunks] == [3, 3, 1]
        assert all(c.name == "t" for c in chunks)

    def test_header_only_yields_nothing(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        assert list(iter_csv_chunks(path, 5)) == []

    def test_validation_matches_read_csv(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\nshort\nx,y\n")
        (chunk,) = iter_csv_chunks(path, 10)
        assert chunk.row(0) == {"a": "short", "b": ""}
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(DataError):
            list(iter_csv_chunks(path, 10))

    def test_bad_chunk_rows_rejected(self, tmp_path):
        _, path = self._write(tmp_path, [["x", "1"]])
        with pytest.raises(DataError):
            list(iter_csv_chunks(path, 0))


class TestAppendCsvRows:
    def test_append_extends_file(self, tmp_path):
        first = Table.from_rows(["a", "b"], [["1", "2"]])
        more = Table.from_rows(["a", "b"], [["3", "4"], ["5,6", '7"8']])
        path = tmp_path / "t.csv"
        write_csv(first, path)
        append_csv_rows(more, path)
        back = read_csv(path)
        assert back.n_rows == 3
        assert back.row_tuple(2) == ("5,6", '7"8')

    def test_schema_mismatch_rejected(self, tmp_path):
        write_csv(Table.from_rows(["a"], [["1"]]), tmp_path / "t.csv")
        with pytest.raises(DataError):
            append_csv_rows(
                Table.from_rows(["other"], [["x"]]), tmp_path / "t.csv"
            )

    def test_empty_target_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            append_csv_rows(Table.from_rows(["a"], [["1"]]), path)
