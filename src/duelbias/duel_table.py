"""``DuelTable``: duel records held as columns of integer codes.

Imported by the numeric layers, and by ``datasets.parse_duels`` when it
runs, so that ``duelbias tags`` neither loads numpy nor compiles this
module.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter, eq
from typing import Iterable

import numpy as np

from .records import GROUP_B, GROUPS, DuelRecord, ItemCatalog

_CODED = DuelRecord.__slots__[1:]  # all but duel_id


class Codes(dict):
    """A code book: a new value's code is the number of values before it."""

    def __missing__(self, value):
        self[value] = code = len(self)
        return code


class CodedColumn:
    """A column read as codes: each value's code in ``book``, as C ints."""

    __slots__ = ("book", "codes")

    def __init__(self, book: Codes):
        self.book, self.codes = book, array("i")

    def extend(self, values: Iterable[str]) -> None:
        self.codes.extend(map(self.book.__getitem__, values))


class TextColumn:
    """A column read as the UTF-8 text of its values joined, in ``pieces``,
    and each value's length in bytes: no object is kept per value."""

    __slots__ = ("pieces", "lengths")

    def __init__(self):
        self.pieces, self.lengths = [], array("i")

    def extend(self, values: Sequence[str]) -> None:
        text = "".join(values)
        data = text.encode("utf-8")
        self.pieces.append(data)
        if len(data) == len(text):  # ASCII: a value's length in bytes is its own
            self.lengths.extend(map(len, values))
        else:
            self.lengths.extend(map(len, map(str.encode, values)))


class _Columns:
    """The columns that a table and every table taken from it share: the
    duel ids joined into one UTF-8 text, with row r's id at
    ``text[bounds[r]:bounds[r + 1]]``, each other field's distinct values
    (as a tuple, and as an object array that an index array reads) and its
    rows' codes."""

    __slots__ = ("text", "bounds", "values", "objects", "codes")

    def __len__(self):
        return self.codes.shape[1]


class DuelTable(Sequence):
    """Duel records held as columns, a record built only when it is read:
    the duel ids as one UTF-8 text, each other field as integer codes into the
    tuple of its distinct values (item_a and item_b share one code book).
    A table taken from another (a slice, an index array, ``where``) holds
    only its rows' int32 indices into the same columns. Immutable, and
    equal to a list or tuple of the same records. The constructor checks
    only lengths; ``of`` and ``datasets.parse_duels`` make tables whose
    rows keep ``DuelRecord``'s rule."""

    __slots__ = ("_columns", "_rows")

    def __init__(self, id_text: bytes, id_lengths, values, codes):
        """``id_text`` holds the duel ids joined, as UTF-8, ``id_lengths``
        each id's length in bytes; ``values`` holds per field after duel_id its distinct values
        in code order (a ``Codes`` book will do), ``codes`` its rows' codes."""
        if len({len(id_lengths), *map(len, codes)}) != 1:
            raise ValueError("duel columns must have equal lengths")
        lengths, codes = np.asarray(id_lengths, np.int64), np.asarray(codes, np.int32)
        bounds = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=bounds[1:])
        if bounds[-1] != len(id_text):
            raise ValueError("duel id lengths must add up to the id text's")
        if len(id_text) > np.iinfo(np.int32).max:
            raise ValueError("duel ids must take fewer than 2**31 bytes")
        columns = _Columns()
        columns.text, columns.bounds = id_text, bounds.astype(np.int32)
        columns.values = tuple(map(tuple, values))
        columns.objects = [np.array(v, object) for v in columns.values]
        columns.codes = codes
        columns.bounds.flags.writeable = codes.flags.writeable = False
        self._columns, self._rows = columns, None  # None: every row, in order

    @staticmethod
    def code_books() -> dict[str, Codes]:
        """An empty book per field after duel_id; item_a and item_b share one."""
        items = Codes()
        return {f: items if f in ("item_a", "item_b") else Codes() for f in _CODED}

    @classmethod
    def of(cls, records: Iterable[DuelRecord]) -> DuelTable:
        """``records`` as a table: itself if it is one."""
        if isinstance(records, cls):
            return records
        records, books = list(records), cls.code_books()
        ids = [d.duel_id.encode("utf-8") for d in records]
        codes = [list(map(books[f].__getitem__, map(attrgetter(f), records)))
                 for f in _CODED]
        return cls(b"".join(ids), list(map(len, ids)), books.values(), codes)

    def _at(self, columns, rows=slice(None)):
        """The entries of ``columns`` along their last axis, one per row of
        the shared columns, at this table's ``rows`` (an int, a slice or an
        index array)."""
        return columns[..., rows if self._rows is None else self._rows[rows]]

    def _ids(self, rows=slice(None)) -> list[str]:
        """The duel ids at this table's ``rows`` (a slice or index array)."""
        text, bounds = self._columns.text, self._columns.bounds
        starts, ends = (self._at(b, rows).tolist() for b in (bounds[:-1], bounds[1:]))
        return [text[start:end].decode("utf-8") for start, end in zip(starts, ends)]

    def column(self, field: str):
        """``(values, codes)`` of a field after duel_id: its distinct values,
        and each row's index among them, a read-only array."""
        k = _CODED.index(field)
        codes = self._at(self._columns.codes[k])
        codes.flags.writeable = False
        return self._columns.values[k], codes

    def columns(self, rows=slice(None)) -> list[list[str]]:
        """The seven fields' columns at ``rows`` (a slice or index array) as
        lists of strings."""
        columns = [self._ids(rows)]
        codes = self._at(self._columns.codes, rows)
        for values, column in zip(self._columns.objects, codes):
            columns.append(values[column].tolist())
        return columns

    def where(self, field: str, wanted: Sequence[str] | None) -> DuelTable:
        """The rows whose ``field`` is in ``wanted`` (None: every row)."""
        if wanted is None:
            return self
        values, codes = self.column(field)
        keep = np.array([v in wanted for v in values], bool)
        return self[np.flatnonzero(keep[codes])]

    def wins_of(self, group: str):
        """Whether ``group``'s item won each duel, a boolean array."""
        values, codes = self.column("winner")
        return codes == (values.index(group) if group in values else -1)

    def item_places(self, catalog: ItemCatalog):
        """Per item code: the code of its catalog category (-1 if no duel here
        has it or the item is unknown), its group (0 for A, 1 for B, -1 if
        unknown) and its index among its category's items in catalog order;
        three arrays."""
        code = {c: k for k, c in enumerate(self.column("category")[0])}
        seen: dict[str, int] = {}
        places = {}
        for r in catalog.records:
            seen[r.category] = index = seen.get(r.category, -1) + 1
            places[r.item_id] = code.get(r.category, -1), r.group == GROUP_B, index
        rows = list(map(places.get, self.column("item_a")[0], repeat((-1, -1, -1))))
        return np.array(rows, np.intp).reshape(-1, 3).T

    def first_broken(self, places: np.ndarray | None = None) -> int | None:
        """The first row that breaks ``DuelRecord``'s rule or, given a
        catalog's ``item_places``, ``catalog.check_duel``, or None; each rule
        runs over whole columns."""
        category, _, a, b, winner, _ = self._at(self._columns.codes)
        bad = np.array([w not in GROUPS for w in self.column("winner")[0]], bool)
        broken = bad[winner] | (a == b)
        if places is not None:
            home, group, _ = places
            broken |= (group[a] != 0) | (group[b] != 1)
            broken |= (home[a] != category) | (home[b] != category)
        rows = np.flatnonzero(broken)
        return int(rows[0]) if rows.size else None

    def __len__(self):
        return len(self._columns) if self._rows is None else len(self._rows)

    def __getitem__(self, index):
        """The record at an int index; the table of the rows that a slice or
        an array of indices selects, which shares this table's columns."""
        if isinstance(index, slice) or getattr(index, "ndim", 0):
            rows = self._rows
            if rows is None:
                rows = np.arange(len(self), dtype=np.int32)
            table = object.__new__(DuelTable)
            # a copy: a slice would keep every row index of ``rows``
            table._columns, table._rows = self._columns, rows[index].copy()
            return table
        row = range(len(self))[index]  # IndexError out of range
        fields = self._at(self._columns.codes, row).tolist()
        fields = map(tuple.__getitem__, self._columns.values, fields)
        return DuelRecord(self._ids([row])[0], *fields)

    def __iter__(self):
        return map(DuelRecord, *self.columns())

    def __eq__(self, other):
        if isinstance(other, (DuelTable, list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self):
        return f"DuelTable({len(self)} records)"
