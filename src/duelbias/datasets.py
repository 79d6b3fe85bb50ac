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
first other row error in file order.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError
from .records import CheckedDuels, DuelRecord, ItemCatalog, ItemRecord, TagRecord

ITEM_COLUMNS = ("item_id", "group", "category", "external_ref")
DUEL_COLUMNS = (
    "duel_id",
    "category",
    "dimension",
    "item_a",
    "item_b",
    "winner",
    "rater_id",
)
TAG_COLUMNS = ("duel_id", "item_id", "rater_id", "raw_tag")
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


def _read_columns(path, required, column_map, optional=()):
    """Read the named columns of a CSV file with a header row.

    Returns ``(lines, columns)``: the file line on which each row starts
    (a quoted newline makes a row span several lines), and one list of
    stripped values per column, in the order ``required`` then
    ``optional``. Blank rows are skipped. An optional value is None where
    the file has no such column or the row ends before it; a row that ends
    before a required column raises ParseError, once the whole file has
    been read. A header name given twice maps to its last column.

    Rows are read ``_CHUNK_ROWS`` at a time, and each column holds one
    string object per distinct value: crowd logs repeat most of their
    fields, so a file's columns take little more memory than its records.
    """
    column_map = column_map or {}
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
        columns = [[] for _ in indices]
        distinct = [{} for _ in indices]  # per column, each value's one string
        lines, short = [], None
        for rows in _row_chunks(reader, lines):
            if short is not None:
                continue  # read on: a byte that is not UTF-8 still comes first
            if min(map(len, rows)) < width:
                k = next(k for k, row in enumerate(rows) if len(row) < width)
                line = lines[len(lines) - len(rows) + k]
                short = ParseError("row has too few fields", line=line, path=path)
                continue
            for values, j, seen in zip(columns, indices, distinct):
                if j is None:
                    values.extend([None] * len(rows))
                    continue
                if j < width:
                    fields = list(map(str.strip, map(itemgetter(j), rows)))
                else:
                    fields = [row[j].strip() if j < len(row) else None for row in rows]
                values.extend(map(seen.setdefault, fields, fields))
    if short is not None:
        raise short
    return lines, columns


def _row_chunks(reader, lines):
    """The non-blank rows of ``reader`` in lists of up to ``_CHUNK_ROWS``,
    appending to ``lines`` the file line on which each row starts."""
    rows = []
    start = reader.line_num + 1
    for row in reader:
        if row:
            rows.append(row)
            lines.append(start)
            if len(rows) == _CHUNK_ROWS:
                yield rows
                rows = []
        start = reader.line_num + 1
    if rows:
        yield rows


def _build_records(path, record_type, columns, lines, check=None):
    """One ``record_type(*values)`` per row, in file order, each passed to
    ``check`` if given. The first row that fails raises with its message
    prefixed ``{path}: line N: ``: a ParseError if the record fails, the
    check's own error if the check does."""
    records, failed = [], None
    try:
        for values in zip(*columns):
            records.append(record_type(*values))
    except ValidationError as exc:
        failed = exc
    # the rows before a failed record are checked first, so an earlier error wins
    if check is not None:
        for line, record in zip(lines, records):
            try:
                check(record)
            except ValidationError as exc:
                exc.args = (f"{path}: line {line}: {exc}",)
                raise
    if failed is not None:
        raise ParseError(failed, line=lines[len(records)], path=path) from failed
    return records


def parse_items(path, column_map: Mapping[str, str] | None = None) -> ItemCatalog:
    """Read an item catalog; duplicate ids and unknown groups are rejected."""
    lines, columns = _read_columns(
        path, ITEM_COLUMNS[:3], column_map, optional=("external_ref",)
    )
    columns[3] = [ref or None for ref in columns[3]]
    records = _build_records(path, ItemRecord, columns, lines)
    try:
        return ItemCatalog(records)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def parse_duels(
    path,
    catalog: ItemCatalog | None = None,
    column_map: Mapping[str, str] | None = None,
) -> list[DuelRecord]:
    """Read duel records. With a catalog, each duel must pass
    ``catalog.check_duel``, and the list is a ``CheckedDuels`` marked with
    the catalog; without one, only structural checks apply."""
    lines, columns = _read_columns(path, DUEL_COLUMNS, column_map)
    if catalog is None:
        return _build_records(path, DuelRecord, columns, lines)
    duels = _build_records(path, DuelRecord, columns, lines, catalog.check_duel)
    return CheckedDuels(duels, catalog)


def parse_tags(path, column_map: Mapping[str, str] | None = None) -> list[TagRecord]:
    lines, columns = _read_columns(path, TAG_COLUMNS, column_map)
    return _build_records(path, TagRecord, columns, lines)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write a header row and then ``rows`` as UTF-8 CSV; returns the path."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_items(path, catalog: ItemCatalog) -> str:
    rows = (
        [r.item_id, r.group, r.category, r.external_ref or ""] for r in catalog.records
    )
    return write_csv(path, ITEM_COLUMNS, rows)


def write_duels(path, duels: Sequence[DuelRecord]) -> str:
    rows = (
        [d.duel_id, d.category, d.dimension, d.item_a, d.item_b, d.winner, d.rater_id]
        for d in duels
    )
    return write_csv(path, DUEL_COLUMNS, rows)


def write_tags(path, tags: Sequence[TagRecord]) -> str:
    rows = ([t.duel_id, t.item_id, t.rater_id, t.raw_text] for t in tags)
    return write_csv(path, TAG_COLUMNS, rows)
