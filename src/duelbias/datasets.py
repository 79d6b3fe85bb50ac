"""CSV parsing and serialization for item catalogs, duels, and tags.

Expected layouts (UTF-8, header row required):

    items.csv  item_id, group, category, external_ref
    duels.csv  duel_id, category, dimension, item_a, item_b, winner, rater_id
    tags.csv   duel_id, item_id, rater_id, raw_tag

Other layouts can be adapted with a column map (JSON object mapping the
expected column name to the actual one in the file). Columns are found by
header name, so their order and any extra columns do not matter; a name
given twice means its last column. Values are stripped of surrounding
whitespace and blank lines are skipped. A row error reads
``{path}: line N: message``, N the file line on which the row starts,
counting blank lines and the newlines inside quoted fields; with several
errors in a file, a row with too few fields is reported first, then the
first other row error in file order. The reader keeps no line numbers:
N is worked out, by reading the file again, when an error is raised.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from contextlib import contextmanager
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError
from .records import DuelRecord, ItemCatalog, ItemRecord, TagRecord, TagTable

if TYPE_CHECKING:
    from .duel_table import DuelTable

ITEM_COLUMNS = ItemRecord.__slots__
DUEL_COLUMNS = DuelRecord.__slots__
# the file names a tag's text raw_tag
TAG_COLUMNS = (*TagRecord.__slots__[:-1], "raw_tag")
# rows of a CSV file read before their values go to the columns
_CHUNK_ROWS = 1024


@contextmanager
def open_utf8(path, newline=None):
    """The file ``path`` opened as UTF-8 text. Bytes that are not UTF-8,
    met while the block reads, raise ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            yield f
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def load_json(path):
    """The JSON value in the file ``path``; ValidationError if malformed."""
    with open_utf8(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def load_column_map(path) -> dict[str, str]:
    mapping = load_json(path)
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise ValidationError(f"{path}: column map must be a string-to-string object")
    return mapping


def _read_columns(path, required, column_map, optional=(), sinks=None):
    """Read the named columns of a CSV file with a header row.

    Returns one list of stripped values per column, in the order
    ``required`` then ``optional``. Blank rows are skipped. An optional
    value is None where the file has no such column or the row ends before
    it; a row that ends before a required column raises ParseError, once
    the whole file has been read. A header name given twice maps to its
    last column.

    Rows are read ``_CHUNK_ROWS`` at a time, and each column holds one
    string object per distinct value: crowd logs repeat most of their
    fields, so a file's columns take little more memory than its records.
    ``sinks`` maps a required column's name to an object whose ``extend``
    takes each chunk's list of values (a ``duel_table.CodedColumn`` or
    ``TextColumn``); that object is returned in the column's place.
    """
    column_map = column_map or {}
    sinks = sinks or {}
    with open_utf8(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file, header row required")
        position = {name: j for j, name in enumerate(header)}
        for col in required:
            if column_map.get(col, col) not in position:
                raise ParseError(
                    f"{path}: missing required column {column_map.get(col, col)!r}"
                )
        indices = [position[column_map.get(col, col)] for col in required]
        width = max(indices) + 1
        indices += [position.get(column_map.get(col, col)) for col in optional]
        columns = [sinks.get(col, []) for col in (*required, *optional)]
        # per column read into a list, each value's one string
        distinct = [{} for _ in columns]
        nonblank, short, read = filter(None, reader), None, 0
        while rows := list(islice(nonblank, _CHUNK_ROWS)):
            if min(map(len, rows)) < width:
                k = next(k for k, row in enumerate(rows) if len(row) < width)
                short = read + k  # the row's index
                # read on: a byte that is not UTF-8 still comes first
                deque(nonblank, maxlen=0)
                break
            for values, j, seen in zip(columns, indices, distinct):
                if j is None:
                    values.extend([None] * len(rows))
                    continue
                if j < width:
                    fields = list(map(str.strip, map(itemgetter(j), rows)))
                else:
                    fields = [row[j].strip() if j < len(row) else None for row in rows]
                if type(values) is list:
                    values.extend(map(seen.setdefault, fields, fields))
                else:  # a sink
                    values.extend(fields)
            read += len(rows)
    if short is not None:
        raise ParseError("row has too few fields", line=_row_line(path, short),
                         path=path)
    return columns


def _row_line(path, row):
    """The file line on which non-blank row ``row`` (0 the first after the
    header) starts; read anew for an error message."""
    with open_utf8(path, newline="") as f:
        reader = csv.reader(f)
        next(reader)
        start = reader.line_num + 1
        for fields in reader:
            if fields:
                if row == 0:
                    return start
                row -= 1
            start = reader.line_num + 1
    raise ValueError(f"{path}: no row {row}")


def _build_records(path, record_type, columns, check=None, first=0):
    """One ``record_type(*values)`` per row, in file order, each passed to
    ``check`` if given; ``first`` is the index of the first row. The first
    row that fails raises with its message prefixed ``{path}: line N: ``: a
    ParseError if the record fails, the check's own error if the check does."""
    records = []
    for row, values in enumerate(zip(*columns), first):
        try:
            record = record_type(*values)
        except ValidationError as exc:
            raise ParseError(exc, line=_row_line(path, row), path=path) from exc
        if check is not None:
            try:
                check(record)
            except ValidationError as exc:
                exc.args = (f"{path}: line {_row_line(path, row)}: {exc}",)
                raise
        records.append(record)
    return records


def parse_items(path, column_map: Mapping[str, str] | None = None) -> ItemCatalog:
    """Read an item catalog; unknown groups and duplicate ids are rejected,
    a duplicate on the line of its second row once every row is valid."""
    columns = _read_columns(
        path, ITEM_COLUMNS[:3], column_map, optional=ITEM_COLUMNS[3:]
    )
    columns[3] = [ref or None for ref in columns[3]]
    records = _build_records(path, ItemRecord, columns)
    try:
        return ItemCatalog(records)
    except ValidationError as exc:  # the first id that repeats an earlier one
        first = {}
        row = next(k for k, i in enumerate(columns[0]) if first.setdefault(i, k) != k)
        exc.args = (f"{path}: line {_row_line(path, row)}: {exc}",)
        raise


def parse_duels(
    path,
    catalog: ItemCatalog | None = None,
    column_map: Mapping[str, str] | None = None,
) -> DuelTable:
    """Read duel records into a ``DuelTable``, which builds each record only
    when it is read. With a catalog, each duel must pass
    ``catalog.check_duel``, and the first that fails raises its error
    prefixed ``{path}: line N: ``; without one, only structural checks
    apply. The rules run over whole columns: only a failing row is built."""
    # imported here: `duelbias tags` needs neither the table nor numpy
    from .duel_table import CodedColumn, DuelTable, TextColumn

    books = DuelTable.code_books()
    sinks = {"duel_id": TextColumn(),
             **{field: CodedColumn(book) for field, book in books.items()}}
    ids, *coded = _read_columns(path, DUEL_COLUMNS, column_map, sinks=sinks)
    table = DuelTable(b"".join(ids.pieces), ids.lengths, books.values(),
                      [column.codes for column in coded])
    del ids, coded, sinks  # the pieces read, which the table has copied
    row = table.first_broken(None if catalog is None else table.item_places(catalog))
    if row is not None:  # build and check that row alone, to raise its error
        check = None if catalog is None else catalog.check_duel
        _build_records(path, DuelRecord, table[row:row + 1].columns(), check, row)
    return table


def parse_tags(path, column_map: Mapping[str, str] | None = None) -> TagTable:
    """Read tag records into a ``TagTable``, which builds each record only
    when it is read; the first empty tag raises ParseError."""
    columns = _read_columns(path, TAG_COLUMNS, column_map)
    try:
        return TagTable(*columns)
    except ValidationError as exc:
        line = _row_line(path, TagTable.first_blank(columns[3]))
        raise ParseError(exc, line=line, path=path) from exc


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write a header row and then ``rows`` as UTF-8 CSV; returns the path."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def item_row(r: ItemRecord) -> tuple[str, ...]:
    """An item's fields as its file row holds them: no ``external_ref`` is
    written as empty."""
    return r.item_id, r.group, r.category, r.external_ref or ""


def write_items(path, catalog: ItemCatalog) -> str:
    return write_csv(path, ITEM_COLUMNS, map(item_row, catalog.records))


def write_duels(path, duels: Sequence[DuelRecord]) -> str:
    return write_csv(path, DUEL_COLUMNS, map(attrgetter(*DUEL_COLUMNS), duels))


def write_tags(path, tags: Sequence[TagRecord]) -> str:
    return write_csv(path, TAG_COLUMNS, map(attrgetter(*TagRecord.__slots__), tags))
