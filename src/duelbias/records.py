"""Core record types: item catalogs, duel records, tag records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ReferentialError, ValidationError

GROUP_A = "A"
GROUP_B = "B"
GROUPS = (GROUP_A, GROUP_B)


@dataclass(frozen=True, slots=True)
class ItemRecord:
    item_id: str
    group: str
    category: str
    external_ref: Optional[str] = None

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValidationError(
                f"item {self.item_id!r}: group must be one of {GROUPS}, "
                f"got {self.group!r}"
            )
        if not self.item_id:
            raise ValidationError("item_id must be non-empty")
        if not self.category:
            raise ValidationError(f"item {self.item_id!r}: category must be non-empty")


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


@dataclass(frozen=True, slots=True)
class DuelRecord:
    """One pairwise comparison; item_a is from group A, item_b from group B."""

    duel_id: str
    category: str
    dimension: str
    item_a: str
    item_b: str
    winner: str  # "A" or "B"
    rater_id: str

    def __post_init__(self):
        if self.winner not in GROUPS:
            raise ValidationError(
                f"duel {self.duel_id!r}: winner must be one of {GROUPS}, "
                f"got {self.winner!r}"
            )
        if self.item_a == self.item_b:
            raise ValidationError(f"duel {self.duel_id!r}: item dueled itself")

    @property
    def winner_item(self) -> str:
        return self.item_a if self.winner == GROUP_A else self.item_b

    @property
    def loser_item(self) -> str:
        return self.item_b if self.winner == GROUP_A else self.item_a


class CheckedDuels(list):
    """Duel records, each of which passed ``catalog.check_duel``, so that a
    later stage given the same catalog need not check them again. A change
    that could put an unchecked duel in the list sets ``catalog`` to None."""

    def __init__(self, duels: Iterable[DuelRecord], catalog: ItemCatalog):
        super().__init__(duels)
        self.catalog: ItemCatalog | None = catalog

    def __setitem__(self, index, value):
        self.catalog = None
        super().__setitem__(index, value)

    def __iadd__(self, other):
        self.catalog = None
        return super().__iadd__(other)

    def append(self, duel):
        self.catalog = None
        super().append(duel)

    def extend(self, duels):
        self.catalog = None
        super().extend(duels)

    def insert(self, index, duel):
        self.catalog = None
        super().insert(index, duel)


@dataclass(frozen=True, slots=True)
class TagRecord:
    duel_id: str
    item_id: str
    rater_id: str
    raw_text: str

    def __post_init__(self):
        if not self.raw_text.strip():
            raise ValidationError(
                f"tag for item {self.item_id!r} in duel {self.duel_id!r} is empty"
            )
