"""Columnar record tables: the storage behind every metrics table.

Every table of :class:`~repro.metrics.collector.MetricsCollector` is a
:class:`RecordTable`.  A table knows its row type and field names and
stores one column per field.  Scalar code appends rows, which split
into the columns; the array tick appends each site's per-tick arrays as
one column chunk, and a chunk stays an array until someone reads it.
Rows are built only when a reader iterates or indexes the table.
Readers that scan a whole table (summaries, the decision digest, the
checkpoint codec, export) read :meth:`RecordTable.column` and build no
rows at all.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from functools import partial
from itertools import islice, repeat
from operator import attrgetter, index
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["RecordTable"]

#: Chunk columns that hold one value per row.  Any other column value
#: is one value broadcast over its chunk.
_SEQUENCES = (np.ndarray, list, tuple)


def _values(column, lo: int, hi: int):
    """Values ``lo:hi`` of one chunk column, as Python objects."""
    if isinstance(column, np.ndarray):
        return column[lo:hi].tolist()
    if isinstance(column, (list, tuple)):
        return column[lo:hi]
    return repeat(column, hi - lo)


class RecordTable:
    """An append-only table of ``record`` rows, stored as columns.

    ``record`` is a dataclass, whose fields name the columns, or
    ``tuple`` with explicit ``fields``.  ``len``, iteration, int and
    slice indexing and ``==`` behave as on the list of rows, which is
    built from the columns on every read.
    """

    __slots__ = ("record", "fields", "_get", "_chunks", "_ends", "_tail")

    def __init__(self, record: type, fields: Optional[Sequence[str]] = None):
        self.record = record
        self.fields = (
            tuple(f.name for f in dataclasses.fields(record))
            if fields is None
            else tuple(fields)
        )
        self._get = tuple if record is tuple else attrgetter(*self.fields)
        self.clear()

    # ------------------------------------------------------------ writes
    def clear(self) -> None:
        """Remove every row."""
        # Closed chunks, ``(length, columns)``, and the row count
        # through each.  Rows appended since the last chunk collect in
        # one flat list, field after field, which makes an append one
        # ``extend``; ``tail[k::len(fields)]`` is field ``k``'s column.
        self._chunks: List[Tuple[int, tuple]] = []
        self._ends: List[int] = []
        self._tail: list = []

    def append(self, row) -> None:
        values = self._get(row)
        if len(values) != len(self.fields):
            raise ValueError(
                f"a {self.record.__name__} row has {len(self.fields)} "
                f"fields, got {len(values)} values"
            )
        self._tail.extend(values)

    def extend(self, rows: Iterable) -> None:
        for row in rows:
            self.append(row)

    def append_columns(self, *columns) -> None:
        """Append one chunk of rows: one column per field, in field order.

        A column is an array or a sequence with one value per row, or a
        single value broadcast over the chunk.  The table keeps the
        arrays and sequences it is given, so callers must not change
        them afterwards.
        """
        if len(columns) != len(self.fields):
            raise ValueError(
                f"{self.record.__name__} rows have {len(self.fields)} "
                f"fields, got {len(columns)} columns"
            )
        lengths = {len(c) for c in columns if isinstance(c, _SEQUENCES)}
        if len(lengths) != 1:
            raise ValueError(
                "a chunk needs columns of one length, got lengths "
                f"{sorted(lengths)}"
            )
        (n,) = lengths
        if not n:
            return
        n_tail = len(self._tail) // len(self.fields)
        if n_tail:
            self._push(n_tail, self._tail_columns(0, n_tail))
            self._tail = []
        self._push(n, columns)

    def _push(self, n: int, columns: tuple) -> None:
        self._chunks.append((n, columns))
        self._ends.append((self._ends[-1] if self._ends else 0) + n)

    # ------------------------------------------------------------- reads
    def _tail_columns(self, lo: int, hi: int) -> tuple:
        """Columns of the appended rows ``lo:hi`` after the last chunk."""
        width = len(self.fields)
        return tuple(
            self._tail[lo * width + k : hi * width : width]
            for k in range(width)
        )

    def column(self, name: str, start: int = 0) -> list:
        """One field's values in row order from row ``start`` on, as
        Python objects."""
        k = self.fields.index(name)
        i = bisect_right(self._ends, start)
        begin = self._ends[i - 1] if i else 0
        out: list = []
        for n, columns in islice(self._chunks, i, None):
            out += _values(columns[k], max(start - begin, 0), n)
            begin += n
        width = len(self.fields)
        out += self._tail[k + max(start - begin, 0) * width :: width]
        return out

    def _rows(self, start: int, stop: int) -> Iterator:
        """Rows ``start:stop``, built from the columns: the one place a
        table builds rows."""
        build = zip if self.record is tuple else partial(map, self.record)
        k = bisect_right(self._ends, start)
        begin = self._ends[k - 1] if k else 0
        for n, columns in islice(self._chunks, k, None):
            if begin >= stop:
                return
            lo, hi = max(start - begin, 0), min(stop - begin, n)
            yield from build(*(_values(c, lo, hi) for c in columns))
            begin += n
        if stop > begin:
            yield from build(
                *self._tail_columns(max(start - begin, 0), stop - begin)
            )

    def __len__(self) -> int:
        n_tail = len(self._tail) // len(self.fields)
        return (self._ends[-1] if self._ends else 0) + n_tail

    def __iter__(self) -> Iterator:
        return self._rows(0, len(self))

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = range(len(self))[key]
            if not rows:
                return []
            lo = min(rows[0], rows[-1])
            block = list(self._rows(lo, max(rows[0], rows[-1]) + 1))
            return block[rows[0] - lo :: rows.step]
        i = index(key)
        n = len(self)
        if not -n <= i < n:
            raise IndexError("table index out of range")
        i %= n
        return next(self._rows(i, i + 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordTable) and (
            other.record is self.record and other.fields == self.fields
        ):
            # Rows of one type are equal iff every field is: compare
            # the columns without building a row.
            return len(self) == len(other) and all(
                self.column(name) == other.column(name)
                for name in self.fields
            )
        if isinstance(other, (RecordTable, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RecordTable({self.record.__name__}, {len(self)} rows)"
