"""Core record types: item catalogs, duel records, tag records, and
``Frozen``, the base of every immutable value type of the package."""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter
from typing import Iterable, Optional

from .errors import ReferentialError, ValidationError

GROUP_A = "A"
GROUP_B = "B"
GROUPS = (GROUP_A, GROUP_B)


class Frozen:
    """Base of the package's immutable value types. A subclass names its
    attributes in ``__slots__``; assigning or deleting one raises
    AttributeError. ``==``, ``hash``, ``repr`` and ``replace`` go by the
    fields, which are the slots unless the class names them in ``_fields``.
    The constructor takes the fields in that order, and pickling and copying
    call it with them; ``Frozen``'s own takes them by position or keyword. A
    type whose fields have rules writes its own ``__init__``, which checks
    them and ends in ``_bind``."""

    __slots__ = ()
    _defaults: dict = {}  # field name: its value when the constructor is not given it

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        """Bind the fields in order to ``args``, then to ``kwargs``; a field
        that neither gives takes its value in ``_defaults``."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in given:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
        values = {**self._defaults, **given, **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, values[field])

    def _bind(self, *values) -> None:
        """Set the slots, in order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def _compared(self) -> tuple:
        """The values that ``==`` and ``hash`` go by."""
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the fields named in ``changes`` replaced, made by
        ``__init__`` so that its rules apply. The fields go by position, as
        in ``__reduce__``: a constructor may name its parameters otherwise."""
        values = self._asdict()
        for field in changes:
            if field not in values:
                raise TypeError(f"{type(self).__qualname__}() got an unexpected "
                                f"keyword argument {field!r}")
        values.update(changes)
        return type(self)(*values.values())


class ItemRecord(Frozen):
    __slots__ = ("item_id", "group", "category", "external_ref")

    def __init__(
        self, item_id: str, group: str, category: str,
        external_ref: Optional[str] = None,
    ):
        if group not in GROUPS:
            raise ValidationError(
                f"item {item_id!r}: group must be one of {GROUPS}, got {group!r}"
            )
        if not item_id:
            raise ValidationError("item_id must be non-empty")
        if not category:
            raise ValidationError(f"item {item_id!r}: category must be non-empty")
        self._bind(item_id, group, category, external_ref)


class ItemCatalog:
    """Items with group membership and category labels; ids are unique."""

    def __init__(self, records: Iterable[ItemRecord]):
        self.records = tuple(records)
        self._by_id = {}
        for rec in self.records:
            if rec.item_id in self._by_id:
                raise ValidationError(f"duplicate item_id {rec.item_id!r}")
            self._by_id[rec.item_id] = rec

    def __len__(self):
        return len(self.records)

    def __contains__(self, item_id):
        return item_id in self._by_id

    def group_of(self, item_id: str) -> str:
        return self._by_id[item_id].group

    def ids(self, group: str | None = None, category: str | None = None) -> list[str]:
        return [
            r.item_id
            for r in self.records
            if (group is None or r.group == group)
            and (category is None or r.category == category)
        ]

    def check_duel(self, duel: DuelRecord) -> None:
        """Raise at the first break of the duel rule, checking item_a before
        item_b: an unknown item (ReferentialError), then item_a not in group A
        or item_b not in group B (ValidationError), then an item catalogued in
        another category than the duel's (ReferentialError)."""
        a, b = self._by_id.get(duel.item_a), self._by_id.get(duel.item_b)
        if a is None or b is None:
            item = duel.item_a if a is None else duel.item_b
            raise ReferentialError(f"unknown item {item!r}")
        if a.group != GROUP_A or b.group != GROUP_B:
            raise ValidationError(
                f"item_a must be group A and item_b group B (got {a.group}, {b.group})"
            )
        for rec in (a, b):
            if rec.category != duel.category:
                raise ReferentialError(
                    f"duel {duel.duel_id!r} has category {duel.category!r}, but "
                    f"its item {rec.item_id!r} is catalogued as {rec.category!r}"
                )

    def categories(self) -> list[str]:
        seen = dict.fromkeys(r.category for r in self.records)
        return list(seen)

    def category_counts(self, group: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            if r.group == group:
                counts[r.category] = counts.get(r.category, 0) + 1
        return counts


class DuelRecord(Frozen):
    """One pairwise comparison; item_a is from group A, item_b from group B,
    and ``winner`` is "A" or "B"."""

    __slots__ = (
        "duel_id", "category", "dimension", "item_a", "item_b", "winner", "rater_id"
    )

    def __init__(
        self, duel_id: str, category: str, dimension: str, item_a: str,
        item_b: str, winner: str, rater_id: str,
    ):
        if winner not in GROUPS:
            raise ValidationError(
                f"duel {duel_id!r}: winner must be one of {GROUPS}, got {winner!r}"
            )
        if item_a == item_b:
            raise ValidationError(f"duel {duel_id!r}: item dueled itself")
        self._bind(duel_id, category, dimension, item_a, item_b, winner, rater_id)

    @property
    def winner_item(self) -> str:
        return self.item_a if self.winner == GROUP_A else self.item_b

    @property
    def loser_item(self) -> str:
        return self.item_b if self.winner == GROUP_A else self.item_a


class TagRecord(Frozen):
    __slots__ = ("duel_id", "item_id", "rater_id", "raw_text")

    def __init__(self, duel_id: str, item_id: str, rater_id: str, raw_text: str):
        if _blank(raw_text):
            raise ValidationError(
                f"tag for item {item_id!r} in duel {duel_id!r} is empty"
            )
        self._bind(duel_id, item_id, rater_id, raw_text)


def _blank(raw_text: str) -> bool:
    """The tag rule: a raw text of only whitespace is no tag."""
    return not raw_text.strip()


class TagTable(Sequence):
    """Tag records held as four columns of strings, one per field; a record
    is built only when it is read. Immutable, and equal to a list of the
    same records. Columns are checked by ``TagRecord``'s rule when the
    table is made: the first row it rejects raises its ValidationError."""

    __slots__ = ("_columns",)

    def __init__(self, duel_ids, item_ids, rater_ids, raw_texts):
        columns = tuple(map(tuple, (duel_ids, item_ids, rater_ids, raw_texts)))
        if len(set(map(len, columns))) != 1:
            raise ValueError("tag columns must have equal lengths")
        self._columns = columns
        row = self.first_blank(self.raw_texts)
        if row is not None:
            self[row]  # the record's own rule raises

    @classmethod
    def of(cls, records: Iterable[TagRecord]) -> TagTable:
        """``records`` as a table: itself if it is one."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls(*(list(map(attrgetter(f), records)) for f in TagRecord.__slots__))

    @staticmethod
    def first_blank(raw_texts: Sequence[str]) -> int | None:
        """The first row whose raw text ``TagRecord`` rejects, or None;
        each distinct text is tested once."""
        blank = [text for text in set(raw_texts) if _blank(text)]
        return min(map(raw_texts.index, blank)) if blank else None

    # each field's column, a tuple of strings
    duel_ids = property(lambda self: self._columns[0])
    item_ids = property(lambda self: self._columns[1])
    rater_ids = property(lambda self: self._columns[2])
    raw_texts = property(lambda self: self._columns[3])

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TagTable(*(column[index] for column in self._columns))
        return TagRecord(*(column[index] for column in self._columns))

    def __iter__(self):
        return map(TagRecord, *self._columns)

    def __eq__(self, other):
        if isinstance(other, TagTable):
            return self._columns == other._columns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"TagTable({len(self)} records)"
