"""``DuelTable``: duel records held as columns of integer codes.

Imported by the numeric layers, and by ``datasets.parse_duels`` when it
runs, so that ``duelbias tags`` neither loads numpy nor compiles this
module.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import attrgetter, eq
from typing import Iterable, Iterator

import numpy as np

from .records import GROUP_B, GROUPS, DuelRecord, ItemCatalog

_CODED = ("category", "dimension", "item_a", "item_b", "winner", "rater_id")


class Codes(dict):
    """A code book: a new value's code is the number of values before it."""

    def __missing__(self, value):
        self[value] = code = len(self)
        return code


class DuelTable(Sequence):
    """Duel records held as columns, a record built only when it is read: the
    duel ids as strings, each other field as integer codes into the tuple of
    its distinct values (item_a and item_b share one code book). Immutable,
    and equal to a list or tuple of the same records. The constructor checks
    only lengths; ``of`` and ``datasets.parse_duels`` make tables whose rows
    keep ``DuelRecord``'s rule."""

    __slots__ = ("_ids", "_values", "_codes", "_places")

    def __init__(self, duel_ids, values, codes):
        """``values`` holds per field after duel_id its distinct values in
        code order (a ``Codes`` book will do), ``codes`` its rows' codes."""
        if len({len(duel_ids), *map(len, codes)}) != 1:
            raise ValueError("duel columns must have equal lengths")
        self._ids = np.asarray(duel_ids, object)
        self._values = tuple(map(tuple, values))
        self._codes = np.asarray(codes, np.int32)
        self._ids.flags.writeable = self._codes.flags.writeable = False
        self._places = None  # (catalog, item_places(catalog)) once asked

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
        codes = [list(map(books[f].__getitem__, map(attrgetter(f), records)))
                 for f in _CODED]
        return cls([d.duel_id for d in records], books.values(), codes)

    def column(self, field: str):
        """``(values, codes)`` of a field after duel_id: its distinct values,
        and each row's index among them."""
        k = _CODED.index(field)
        return self._values[k], self._codes[k]

    def columns(self) -> list[list[str]]:
        """The seven fields' columns as lists of strings."""
        columns = [self._ids.tolist()]
        for values, codes in zip(self._values, self._codes):
            columns.append(np.array(values, object)[codes].tolist())
        return columns

    def lines(self, chunk_rows: int) -> Iterator[str]:
        """The rows as text, ``chunk_rows`` rows a piece: the fields
        comma-joined, a newline after each row. One join makes each piece,
        and each distinct value's text, with the comma before it, is made
        once."""
        texts = []
        for k, values in enumerate(self._values, 1):
            end = "\n" if k == len(_CODED) else ""
            texts.append(np.array([f",{v}{end}" for v in values], object))
        for start in range(0, len(self), chunk_rows):
            ids = self._ids[start:start + chunk_rows]
            cells = np.empty((len(ids), 1 + len(_CODED)), object)
            cells[:, 0] = ids
            codes = self._codes[:, start:start + chunk_rows]
            for k, (text, column) in enumerate(zip(texts, codes), 1):
                cells[:, k] = text[column]
            yield "".join(cells.ravel().tolist())

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
        three arrays, kept for the last catalog asked about."""
        if self._places is None or self._places[0] is not catalog:
            code = {c: k for k, c in enumerate(self.column("category")[0])}
            seen: dict[str, int] = {}
            places = {}
            for r in catalog.records:
                seen[r.category] = index = seen.get(r.category, -1) + 1
                places[r.item_id] = code.get(r.category, -1), r.group == GROUP_B, index
            items = self.column("item_a")[0]
            rows = list(map(places.get, items, repeat((-1, -1, -1))))
            self._places = catalog, np.array(rows, np.intp).reshape(-1, 3).T
        return self._places[1]

    def first_broken(self, catalog: ItemCatalog | None = None) -> int | None:
        """The first row that breaks ``DuelRecord``'s rule or, given a catalog,
        ``catalog.check_duel``, or None; each rule runs over whole columns."""
        category, _, a, b, winner, _ = self._codes
        bad = np.array([w not in GROUPS for w in self.column("winner")[0]], bool)
        broken = bad[winner] | (a == b)
        if catalog is not None:
            places, group, _ = self.item_places(catalog)
            broken |= (group[a] != 0) | (group[b] != 1)
            broken |= (places[a] != category) | (places[b] != category)
        rows = np.flatnonzero(broken)
        return int(rows[0]) if rows.size else None

    def __len__(self):
        return len(self._ids)

    def __getitem__(self, index):
        """The record at an int index; the table of the rows that a slice or
        an array of indices selects."""
        if isinstance(index, slice) or getattr(index, "ndim", 0):
            return DuelTable(self._ids[index], self._values, self._codes[:, index])
        fields = map(tuple.__getitem__, self._values, self._codes[:, index].tolist())
        return DuelRecord(self._ids[index], *fields)

    def __iter__(self):
        return map(DuelRecord, *self.columns())

    def __eq__(self, other):
        if isinstance(other, (DuelTable, list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self):
        return f"DuelTable({len(self)} records)"
