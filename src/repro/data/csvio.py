"""CSV reading and writing for :class:`~repro.data.table.Table`.

Thin wrappers around :mod:`csv` that keep every cell a string and treat
the first row as the header, matching how the cleaning benchmarks
(Hospital, Flights, ...) are distributed.

Two readers share one row-validation pass:

* :func:`read_csv` materializes the whole file as a single table;
* :func:`iter_csv_chunks` streams the same file as a sequence of
  bounded-size tables — at no point does more than one chunk of rows
  live in memory, which is what the out-of-core scoring path
  (:mod:`repro.serving.streaming`) builds on.  Concatenating the
  chunks reproduces :func:`read_csv` exactly, including the
  short-row padding and long-row rejection rules.

Malformed rows (more cells than the header) default to the historical
fail-fast :class:`DataError`; the streaming reader alternatively
**quarantines** them (``bad_rows="quarantine"``): each offender lands
in a :class:`QuarantineWriter` sidecar (JSONL: original line number +
raw cells) and is dropped from the stream, so one corrupt row 4 GB
into a file surfaces as a journal entry instead of killing the whole
scoring job.  The sidecar is idempotent across resumes — a line number
already recorded is never written twice.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator
from pathlib import Path

from repro.data.table import Table
from repro.errors import DataError

#: Accepted malformed-row policies for the streaming reader.
BAD_ROW_POLICIES = ("fail", "quarantine")


def _open_rows(path: Path):
    """Open ``path`` and return ``(file_handle, reader, header)``."""
    fh = path.open(newline="", encoding="utf-8")
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        fh.close()
        raise DataError(f"{path} is empty") from None
    except Exception:
        fh.close()
        raise
    return fh, reader, header


def _validate_row(
    path: Path, lineno: int, row: list[str], header: list[str]
) -> list[str]:
    """The one row rule: pad short rows, reject long ones."""
    if len(row) > len(header):
        raise DataError(
            f"{path}:{lineno} has {len(row)} cells, header has "
            f"{len(header)}"
        )
    if len(row) < len(header):
        row = row + [""] * (len(header) - len(row))
    return row


def read_csv(path: str | Path, name: str | None = None) -> Table:
    """Load a CSV file into a :class:`Table`.

    The first row is the header.  Rows shorter than the header are padded
    with empty strings; longer rows raise :class:`DataError`.
    """
    path = Path(path)
    fh, reader, header = _open_rows(path)
    with fh:
        rows = [
            _validate_row(path, lineno, row, header)
            for lineno, row in enumerate(reader, start=2)
        ]
    return Table.from_rows(header, rows, name=name or path.stem)


class QuarantineWriter:
    """Idempotent JSONL sidecar for rows a streaming job rejected.

    Each quarantined row is one line ``{"lineno": N, "cells": [...]}``
    — the original 1-based file line and the raw parsed cells, enough
    to repair and re-submit the row later.  Opening an existing sidecar
    loads its recorded line numbers, so a resumed job re-encountering
    the same bad rows never duplicates entries (the journal replays the
    stream from row 0; the sidecar must not grow on replay).
    """

    def __init__(self, path: str | Path, *, opener=None) -> None:
        self.path = Path(path)
        self._opener = opener or open
        self._seen: set[int] = set()
        if self.path.is_file():
            with self._opener(self.path, "r", encoding="utf-8") as fh:
                for line in fh.read().splitlines():
                    try:
                        record = json.loads(line)
                        self._seen.add(int(record["lineno"]))
                    except (ValueError, KeyError, TypeError):
                        continue  # torn tail from a killed run
        self._fh = self._opener(self.path, "a", encoding="utf-8")

    @property
    def total(self) -> int:
        """Distinct quarantined rows (including prior runs')."""
        return len(self._seen)

    def write(self, lineno: int, cells: list[str]) -> None:
        if lineno in self._seen:
            return
        self._seen.add(lineno)
        self._fh.write(
            json.dumps({"lineno": lineno, "cells": cells}) + "\n"
        )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "QuarantineWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def iter_csv_chunks(
    path: str | Path,
    chunk_rows: int,
    name: str | None = None,
    *,
    bad_rows: str = "fail",
    quarantine: QuarantineWriter | None = None,
) -> Iterator[Table]:
    """Stream a CSV file as :class:`Table` chunks of ``chunk_rows`` rows.

    A generator over the same file :func:`read_csv` would load, with
    identical validation (header from the first row, short rows padded,
    long rows rejected with :class:`DataError`) — but holding at most
    one chunk of rows at a time.  Every chunk carries the full header
    and the same ``name`` (default: the file stem), so each is
    independently scoreable; concatenating all chunks in order yields
    exactly ``read_csv(path)``.  The final chunk may be shorter; a
    header-only file yields no chunks at all.

    ``bad_rows`` picks the malformed-row policy: ``"fail"`` (default)
    keeps the historical fail-fast :class:`DataError` on a row longer
    than the header; ``"quarantine"`` records the offender in the
    ``quarantine`` sidecar and drops it from the stream, so the chunk
    row offsets count *kept* rows only.
    """
    if chunk_rows < 1:
        raise DataError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if bad_rows not in BAD_ROW_POLICIES:
        raise DataError(
            f"bad_rows must be one of {BAD_ROW_POLICIES}, got {bad_rows!r}"
        )
    path = Path(path)
    name = name or path.stem
    fh, reader, header = _open_rows(path)
    with fh:
        rows: list[list[str]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) > len(header) and bad_rows == "quarantine":
                if quarantine is not None:
                    quarantine.write(lineno, row)
                continue
            rows.append(_validate_row(path, lineno, row, header))
            if len(rows) == chunk_rows:
                yield Table.from_rows(header, rows, name=name)
                rows = []
        if rows:
            yield Table.from_rows(header, rows, name=name)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a :class:`Table` to CSV with a header row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.attributes)
        for i in range(table.n_rows):
            writer.writerow(table.row_tuple(i))


def append_csv_rows(table: Table, path: str | Path) -> None:
    """Append a :class:`Table`'s rows (no header) to an existing CSV.

    The chunked *writer* counterpart of :func:`iter_csv_chunks`: large
    synthetic datasets are produced shard-by-shard without ever holding
    the full table (``perfbench`` builds its streamed CSV this way).
    The table's schema must match the file's header.
    """
    path = Path(path)
    header = None
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path} is empty; write a header first") from None
    if header != table.attributes:
        raise DataError(
            f"{path} header {header!r} does not match table schema "
            f"{table.attributes!r}"
        )
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for i in range(table.n_rows):
            writer.writerow(table.row_tuple(i))
