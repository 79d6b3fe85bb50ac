import copy
import csv
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias import cli, datasets, errors, tournament
from duelbias.bias import DEFAULT_RANK_GRID, percentile_ci
from duelbias.choice_model import ComparisonGraph, FitConfig
from duelbias.cli import main
from duelbias.datasets import (
    DUEL_COLUMNS,
    ITEM_COLUMNS,
    TAG_COLUMNS,
    parse_duels,
    parse_items,
    parse_tags,
    write_csv,
    write_duels,
    write_items,
    write_tags,
)
from duelbias.errors import (
    DuelBiasError,
    NumericalError,
    ParseError,
    ReferentialError,
    UnidentifiableItemsError,
    ValidationError,
)
from duelbias.pipeline import (
    AnalysisConfig,
    _derived_seed,
    dump_report,
    duels_by_dimension,
    fit_tournament,
    input_digests,
    run_pipeline,
    select_tournaments,
    write_report_bundle,
)
from duelbias.duel_table import DuelTable
from duelbias.records import GROUPS, DuelRecord, ItemCatalog, ItemRecord
from duelbias.records import TagRecord, TagTable
from duelbias.tags import aggregate_tags
from oracles import (
    dictreader_parse_duels,
    dictreader_parse_items,
    dictreader_parse_tags,
    loop_resample_two_groups,
    one_join_duel_lines,
    one_join_lines,
    pairs_select_tournaments,
)


CATEGORIES = ("pizza", "salad")
DIMENSIONS = ("tasty", "healthy")


def build_fixture(seed=0, items_per_side=4, duels_per_pair=24):
    """Synthetic two-category, two-dimension dataset with group B favored."""
    rng = np.random.default_rng(seed)
    items = []
    for cat in CATEGORIES:
        for i in range(items_per_side):
            items.append(ItemRecord(f"a-{cat}-{i}", "A", cat, f"ref/a{i}"))
            items.append(ItemRecord(f"b-{cat}-{i}", "B", cat, f"ref/b{i}"))
    catalog = ItemCatalog(items)
    duels = []
    k = 0
    for cat in CATEGORIES:
        ids_a = catalog.ids(group="A", category=cat)
        ids_b = catalog.ids(group="B", category=cat)
        for dim in DIMENSIONS:
            for j in range(duels_per_pair):
                a = ids_a[rng.integers(len(ids_a))]
                b = ids_b[rng.integers(len(ids_b))]
                winner = "A" if j % 4 == 0 else "B"  # B wins 3 in 4
                duels.append(
                    DuelRecord(f"d{k}", cat, dim, a, b, winner, f"r{k % 5}")
                )
                k += 1
    tags = []
    words = ["fresh", "greasy", "looks tasty", "mouth watering", "plain"]
    for i, d in enumerate(duels[:60]):
        tags.append(
            TagRecord(d.duel_id, d.winner_item, d.rater_id, words[i % len(words)])
        )
        tags.append(
            TagRecord(d.duel_id, d.loser_item, d.rater_id, words[(i + 2) % len(words)])
        )
    return catalog, duels, tags


def write_fixture(tmp_path, catalog, duels, tags):
    items_path = tmp_path / "items.csv"
    duels_path = tmp_path / "duels.csv"
    tags_path = tmp_path / "tags.csv"
    write_items(items_path, catalog)
    write_duels(duels_path, duels)
    write_tags(tags_path, tags)
    return str(items_path), str(duels_path), str(tags_path)


@pytest.fixture(scope="module")
def fixture_data():
    return build_fixture()


# group A's and group B's item counts per category: the groups' category
# mixes differ, as the paper's two platforms' food-type mixes do
UNEQUAL_MIX = {"bread": (120, 30), "cake": (30, 120), "salad": (60, 60)}


def build_unequal_mix(seed=0, duels_per_item=10, offset=0.5):
    """Catalog and duels of the ``UNEQUAL_MIX`` categories and two
    dimensions. Log-qualities are A ~ N(0, 0.5^2) and B ~ N(offset, 0.5^2),
    one per item for both dimensions, and outcomes are Bradley-Terry. Each
    item of a category's larger side duels ``duels_per_item`` times, each
    time against a random item of the other side."""
    rng = np.random.default_rng(seed)
    records, duels = [], []
    for cat, sizes in UNEQUAL_MIX.items():
        ids = [[f"{g.lower()}-{cat}-{i}" for i in range(n)]
               for g, n in zip("AB", sizes)]
        records += [ItemRecord(i, g, cat) for g, group in zip("AB", ids) for i in group]
        quality = [rng.normal(mu, 0.5, size=n) for mu, n in zip((0.0, offset), sizes)]
        big = int(sizes[1] > sizes[0])
        for dim in DIMENSIONS:
            for k in range(duels_per_item * sizes[big]):
                pair = [0, 0]
                pair[big] = k % sizes[big]
                pair[1 - big] = int(rng.integers(sizes[1 - big]))
                a, b = pair
                p_a = 1 / (1 + math.exp(quality[1][b] - quality[0][a]))
                duels.append(DuelRecord(
                    f"d{len(duels)}", cat, dim, ids[0][a], ids[1][b],
                    "A" if rng.random() < p_a else "B", "r1",
                ))
    return ItemCatalog(records), duels


def concatenated_bias(bundle, catalog, dimension):
    """The mean log-score of all of a dimension's B items minus that of all
    its A items, across categories: a pooled statistic that weights the
    tournaments by their item counts, and so depends on each one's gauge."""
    logs = {"A": [], "B": []}
    for t in bundle["tournaments"].values():
        if t["dimension"] == dimension:
            for item, score in t["scores"].items():
                logs[catalog.group_of(item)].append(math.log(score))
    return np.mean(logs["B"]) - np.mean(logs["A"])


class TestRoundTrips:
    def test_items_round_trip(self, fixture_data, tmp_path):
        catalog, _, _ = fixture_data
        path = tmp_path / "items.csv"
        write_items(path, catalog)
        again = parse_items(path)
        assert again.records == catalog.records

    def test_duels_round_trip(self, fixture_data, tmp_path):
        catalog, duels, _ = fixture_data
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        assert parse_duels(path, catalog) == duels

    def test_tags_round_trip(self, fixture_data, tmp_path):
        _, _, tags = fixture_data
        path = tmp_path / "tags.csv"
        write_tags(path, tags)
        assert parse_tags(path) == tags


class TestTagTable:
    """parse_tags returns a TagTable: four columns read as a sequence of
    TagRecords, each built when it is read."""

    @pytest.fixture()
    def table_and_list(self, fixture_data, tmp_path):
        _, _, tags = fixture_data
        path = tmp_path / "tags.csv"
        write_tags(path, tags)
        return parse_tags(path), list(tags)

    def test_equal_to_a_list_both_ways(self, table_and_list):
        table, records = table_and_list
        assert isinstance(table, TagTable)
        assert table == records and records == table
        assert not table != records and not records != table
        changed = [*records[:-1], records[-1].replace(rater_id="x")]
        assert table != changed and changed != table
        assert table != records[:-1] and records[:-1] != table
        assert table == TagTable.of(records) and table != table[1:]
        assert table != tuple(records)

    def test_len_index_and_slice(self, table_and_list):
        table, records = table_and_list
        assert len(table) == len(records)
        assert table[0] == records[0] and table[-1] == records[-1]
        assert table[-len(records)] == records[0]
        with pytest.raises(IndexError):
            table[len(records)]
        assert table[3:10:2] == records[3:10:2]
        assert isinstance(table[::-1], TagTable) and table[::-1] == records[::-1]
        assert table[5:5] == []
        assert table.index(records[7]) == 7 and records[7] in table

    def test_immutable(self, table_and_list):
        table, records = table_and_list
        with pytest.raises(TypeError):
            table[0] = records[1]
        assert not hasattr(table, "__dict__") and not hasattr(table, "append")
        assert isinstance(table.raw_texts, tuple)

    def test_iteration_gives_the_dictreader_records(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(
            b'duel_id,item_id,rater_id,raw_tag\n\nd0,a1,r1,"fresh\ncrust"\n'
            b'\r\nd1, a2 ,r1,"thin, crisp"\nd2,b1,r2, Looks tasty \n'
        )
        table = parse_tags(path)
        expected = dictreader_parse_tags(path, None, [3, 6, 7])
        assert list(table) == expected
        assert all(type(record) is TagRecord for record in table)
        first, second, third = parse_tags(path)
        assert (first, second, third) == tuple(expected)

    def test_blank_tag_raises_the_record_error_with_its_line(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_text(
            "duel_id,item_id,rater_id,raw_tag\nd0,a1,r1,fresh\n\n"
            "d1,a2,r1, \nd2,a3,r1,\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_tags(path)
        assert str(exc.value) == (
            f"{path}: line 4: tag for item 'a2' in duel 'd1' is empty"
        )
        assert exc.value.line == 4
        with pytest.raises(ValidationError, match="item 'b' in duel 'd' is empty"):
            TagTable(["d0", "d"], ["a", "b"], ["r", "r"], ["x", "\t"])
        with pytest.raises(ValueError, match="equal lengths"):
            TagTable(["d0"], ["a"], ["r"], [])

    def test_same_results_from_a_table_and_a_list(self, fixture_data, table_and_list):
        catalog, duels, _ = fixture_data
        table, records = table_and_list
        group_of = {r.item_id: r.group for r in catalog.records}
        from_table = aggregate_tags(table, group_of)
        from_list = aggregate_tags(records, group_of)
        assert from_table == from_list
        for g in from_list:
            assert list(from_table[g].counts.items()) == list(
                from_list[g].counts.items()
            )
        assert input_digests(catalog, duels, table) == input_digests(
            catalog, duels, records
        )
        config = AnalysisConfig(bootstrap_replicates=100, bootstrap_unit="item")
        assert dump_report(run_pipeline(config, catalog, duels, table)) == dump_report(
            run_pipeline(config, catalog, duels, records)
        )
        # any iterable of records will do
        assert aggregate_tags(iter(records), group_of) == from_list

    def test_aggregating_a_parsed_table_builds_no_record(
        self, fixture_data, tmp_path, monkeypatch
    ):
        catalog, duels, tags = fixture_data
        path = tmp_path / "tags.csv"
        write_tags(path, tags)
        built = []
        init = TagRecord.__init__
        monkeypatch.setattr(
            TagRecord, "__init__", lambda rec, *a: init(rec, *a) or built.append(rec)
        )
        group_of = {r.item_id: r.group for r in catalog.records}
        table = parse_tags(path)
        aggregate_tags(table, group_of)
        input_digests(catalog, duels, table)
        assert built == []
        table[-1]
        assert built == [tags[-1]]


class TestDuelTable:
    """parse_duels returns a DuelTable: the duel ids and integer codes of the
    other fields, read as a sequence of DuelRecords built when read."""

    @pytest.fixture()
    def table_and_list(self, fixture_data, tmp_path):
        catalog, duels, _ = fixture_data
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        return parse_duels(path, catalog), list(duels)

    def test_equal_to_a_list_and_a_tuple_both_ways(self, table_and_list):
        table, records = table_and_list
        assert isinstance(table, DuelTable)
        for same in (records, tuple(records), DuelTable.of(records)):
            assert table == same and same == table
            assert not table != same and not same != table
        changed = [*records[:-1], records[-1].replace(rater_id="x")]
        assert table != changed and changed != table
        assert table != tuple(changed) and tuple(changed) != table
        assert table != records[:-1] and table != table[1:]
        assert table != set(records) and table != "d0"

    def test_of_keeps_a_table_and_reads_any_iterable(self, table_and_list):
        table, records = table_and_list
        assert DuelTable.of(table) is table
        assert DuelTable.of(iter(records)) == records
        assert DuelTable.of([]) == [] and len(DuelTable.of(())) == 0

    def test_len_index_slice_and_iteration(self, table_and_list):
        table, records = table_and_list
        assert len(table) == len(records)
        assert table[0] == records[0] and table[-1] == records[-1]
        assert table[np.intp(5)] == records[5]
        with pytest.raises(IndexError):
            table[len(records)]
        assert table[3:10:2] == records[3:10:2]
        assert isinstance(table[::-1], DuelTable) and table[::-1] == records[::-1]
        assert table[5:5] == [] and table[np.array([4, 1])] == [records[4], records[1]]
        assert table.index(records[7]) == 7 and records[7] in table
        assert list(table) == records
        assert all(type(record) is DuelRecord for record in table)

    def test_where_and_columns(self, table_and_list):
        table, records = table_and_list
        tasty = table.where("dimension", ["tasty"])
        assert tasty == [d for d in records if d.dimension == "tasty"]
        assert table.where("category", None) is table
        assert table.where("category", ["bread"]) == []
        ids, *fields = tasty.columns()
        assert ids == [d.duel_id for d in tasty]
        assert fields[-1] == [d.rater_id for d in tasty]
        values, codes = tasty.column("winner")
        assert [values[c] for c in codes] == [d.winner for d in tasty]

    def test_immutable(self, table_and_list):
        table, records = table_and_list
        with pytest.raises(TypeError):
            table[0] = records[1]
        assert not hasattr(table, "__dict__") and not hasattr(table, "append")
        values, codes = table.column("item_a")
        assert isinstance(values, tuple)
        with pytest.raises(ValueError, match="read-only"):
            codes[0] = 1
        assert table == records

    def test_rejects_unequal_column_lengths(self):
        books = DuelTable.code_books()
        codes = [[books[f]["x" + f] for _ in range(2)] for f in books]
        table = DuelTable("d0d\u00e9".encode(), [2, 3], books.values(), codes)
        assert table.columns()[0] == ["d0", "d\u00e9"]
        for lengths, short in (([2], codes), ([2, 3], [*codes[:-1], [0]])):
            with pytest.raises(ValueError, match="equal lengths"):
                DuelTable(b"d0d1", lengths, books.values(), short)
        with pytest.raises(ValueError, match="add up"):
            DuelTable(b"d0d1", [2, 1], books.values(), codes)

    def test_tables_and_tournaments_keep_no_catalog_alive(self, fixture_data, tmp_path):
        catalog, duels, _ = fixture_data
        catalog = ItemCatalog(catalog.records)  # a copy that only this test holds
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        table = parse_duels(path, catalog)
        tournaments = select_tournaments(catalog, table.where("dimension", ["tasty"]))
        gone = weakref.ref(catalog)
        del catalog
        gc.collect()
        assert gone() is None
        assert len(tournaments) == 2 and table.first_broken() is None

    def test_views_checked_against_two_catalogs_in_turn(self, fixture_data, tmp_path):
        # in the second catalog b-pizza-1 is a salad item, so pizza duels
        # against it break the rule there and only there
        catalog, duels, _ = fixture_data
        moved = ItemCatalog(
            r.replace(category="salad") if r.item_id == "b-pizza-1" else r
            for r in catalog.records
        )
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        table = parse_duels(path, catalog)
        pizza, salad = (table.where("category", [c]) for c in ("pizza", "salad"))
        first_bad = next(k for k, d in enumerate(pizza) if d.item_b == "b-pizza-1")
        for _ in range(2):
            for view in (pizza, salad, table):
                assert view.first_broken(view.item_places(catalog)) is None
                assert len(select_tournaments(catalog, view)) == 2 + 2 * (view is table)
            assert pizza.first_broken(pizza.item_places(moved)) == first_bad
            assert salad.first_broken(salad.item_places(moved)) is None
            with pytest.raises(ReferentialError, match="item 'b-pizza-1' is catalogued as 'salad'"):
                select_tournaments(moved, pizza)
            assert len(select_tournaments(moved, salad)) == 2

    # a valid duel row, and changes to it that break a rule: the record's
    # rule, the catalog's, or both at once in one row
    DUEL_ROW = ("dx", "pizza", "tasty", "a-pizza-0", "b-pizza-1", "B", "r1")
    FAULTS = {
        "bad-winner": {"winner": "X"},
        "self-duel": {"item_b": "a-pizza-0"},
        "unknown-item": {"item_a": "ghost"},
        "swapped-sides": {"item_a": "b-pizza-1", "item_b": "a-pizza-0"},
        "two-a": {"item_b": "a-pizza-1"},
        "other-category": {"item_b": "b-salad-0"},
        "unknown-item-bad-winner": {"item_a": "ghost", "winner": "X"},
        "unknown-self-duel": {"item_a": "ghost", "item_b": "ghost"},
        "swapped-bad-winner": {"item_a": "b-pizza-1", "item_b": "a-pizza-0",
                               "winner": ""},
    }

    def write_faults(self, tmp_path, faults):
        """A duels file of valid rows with a row per fault among them, and
        the line of each row."""
        rows = [self.DUEL_ROW] * 3
        for k, fault in enumerate(faults):
            row = dict(zip(DUEL_COLUMNS, self.DUEL_ROW), **self.FAULTS[fault])
            rows += [tuple(row.values()), self.DUEL_ROW]
        rows = [(f"d{k}", *row[1:]) for k, row in enumerate(rows)]
        path = tmp_path / "duels.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows([DUEL_COLUMNS, *rows])
        return path, list(range(2, len(rows) + 2))

    @pytest.mark.parametrize("with_catalog", [True, False])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_one_bad_row_matches_the_dictreader_parser(
        self, fixture_data, tmp_path, fault, with_catalog
    ):
        catalog = fixture_data[0] if with_catalog else None
        path, lines = self.write_faults(tmp_path, [fault])
        got = _outcome(parse_duels, path, catalog, None)
        assert got == _outcome(dictreader_parse_duels, path, catalog, None, lines)
        if with_catalog:
            assert isinstance(got, tuple) and got[1].startswith(f"{path}: line 5: ")

    @pytest.mark.parametrize("first, second", list(itertools.permutations(FAULTS, 2)))
    def test_first_bad_row_wins_as_with_the_dictreader_parser(
        self, fixture_data, tmp_path, first, second
    ):
        catalog = fixture_data[0]
        path, lines = self.write_faults(tmp_path, [first, second])
        got = _outcome(parse_duels, path, catalog, None)
        assert got == _outcome(dictreader_parse_duels, path, catalog, None, lines)
        assert got[1].startswith(f"{path}: line 5: ")


class TestRecords:
    RECORDS = [
        ItemRecord("a1", "A", "pizza"),
        ItemRecord("b1", "B", "pizza", "ref/1"),
        DuelRecord("d0", "pizza", "tasty", "a1", "b1", "A", "r1"),
        TagRecord("d0", "a1", "r1", "fresh"),
    ]

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_frozen_slotted_values(self, record):
        field = type(record).__slots__[0]
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, "x")
        assert not hasattr(record, "__dict__")
        twin = type(record)(*(getattr(record, f) for f in type(record).__slots__))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert record != record.replace(**{field: "other"})
        for again in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert again == record and type(again) is type(record)

    def test_constructor_and_rules_unchanged(self):
        item = ItemRecord(item_id="a1", group="A", category="pizza")
        assert item.external_ref is None
        with pytest.raises(ValidationError, match="group must be one of"):
            ItemRecord("a1", "C", "pizza")
        with pytest.raises(ValidationError, match="item dueled itself"):
            DuelRecord("d0", "pizza", "tasty", "a1", "a1", "A", "r1")
        with pytest.raises(ValidationError, match="is empty"):
            TagRecord("d0", "a1", "r1", "  ")


class TestParseErrors:
    def write(self, tmp_path, name, rows):
        path = tmp_path / name
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        return path

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "items.csv", [["item_id", "group"], ["x", "A"]])
        with pytest.raises(ParseError, match="category"):
            parse_items(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            parse_items(path)

    def test_duplicate_item_id(self, tmp_path):
        path = self.write(
            tmp_path,
            "items.csv",
            [
                ["item_id", "group", "category"],
                ["x", "A", "pizza"],
                ["x", "B", "pizza"],
            ],
        )
        with pytest.raises(ValidationError, match="duplicate"):
            parse_items(path)

    def test_duplicate_item_id_names_the_line_of_its_second_row(self, tmp_path):
        path = tmp_path / "items.csv"
        path.write_text(
            "item_id,group,category\na1,A,pizza\n\nb1,B,pizza\n"
            'a2,A,"deep\ndish"\nb1,B,salad\na1,B,pizza\n'
        )
        with pytest.raises(ValidationError) as exc:
            parse_items(path)
        assert str(exc.value) == f"{path}: line 7: duplicate item_id 'b1'"

    def test_unknown_group(self, tmp_path):
        path = self.write(
            tmp_path,
            "items.csv",
            [["item_id", "group", "category"], ["x", "C", "pizza"]],
        )
        with pytest.raises(ValidationError, match="line 2"):
            parse_items(path)

    def test_bad_winner_reports_line(self, tmp_path):
        header = [
            "duel_id", "category", "dimension", "item_a", "item_b", "winner",
            "rater_id",
        ]
        path = self.write(
            tmp_path,
            "duels.csv",
            [header, ["d0", "pizza", "tasty", "a1", "b1", "X", "r1"]],
        )
        with pytest.raises(ParseError) as exc:
            parse_duels(path)
        assert exc.value.line == 2

    # parser, header, a valid row with a quoted newline, a row that fails
    # (it too spans two lines)
    ROW_ERRORS = {
        "items": (
            parse_items, "item_id,group,category", 'x,A,"pizza\nslice"',
            'y,C,"pizza\nslice"', ValidationError,
        ),
        "duels": (
            parse_duels, ",".join(DUEL_COLUMNS), 'd0,"pizza\nslice",tasty,a1,b1,A,r1',
            'd1,"pizza\nslice",tasty,a1,b1,X,r1', ParseError,
        ),
        "tags": (
            parse_tags, ",".join(TAG_COLUMNS), 'd0,a1,r1,"fresh\ncrust"',
            '"d\n1",a1,r1,  ', ParseError,
        ),
    }

    @pytest.mark.parametrize("kind", sorted(ROW_ERRORS))
    @pytest.mark.parametrize(
        "layout, line",
        [
            ("{header}\n{single}\n\n\n{bad}\n", 5),  # after two blank lines
            ("{header}\r\n\r\n{single}\r\n{bad}\r\n", 4),
            ("{header}\n{quoted}\n{bad}\n", 4),  # row 2 spans lines 2-3
            ("{header}\n\n{quoted}\n\n{quoted}\n{bad}\n", 8),
        ],
    )
    def test_error_names_the_file_line(self, tmp_path, kind, layout, line):
        parser, header, quoted, bad, error = self.ROW_ERRORS[kind]
        path = tmp_path / f"{kind}.csv"
        text = layout.format(
            header=header, quoted=quoted, single=quoted.replace("\n", " "), bad=bad
        )
        path.write_bytes(text.encode())
        with pytest.raises(error, match=f"line {line}: ") as exc:
            parser(path)
        assert getattr(exc.value, "line", line) == line

    @pytest.mark.parametrize("fault", ["record", "short-row"])
    @pytest.mark.parametrize("kind", sorted(ROW_ERRORS))
    def test_row_error_names_the_file_then_the_line(self, tmp_path, kind, fault):
        parser, header, _, bad, _ = self.ROW_ERRORS[kind]
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header}\n\n{bad if fault == 'record' else 'x'}\n")
        with pytest.raises(ParseError) as exc:
            parser(path)
        assert exc.value.line == 3
        assert str(exc.value).startswith(f"{path}: line 3: ")
        assert str(exc.value).count(str(path)) == 1

    def test_columns_hold_one_string_per_distinct_value(self, tmp_path):
        duels = self.write(tmp_path, "duels.csv", [
            DUEL_COLUMNS,
            ["d0", "pizza", "tasty", "a1", "b1", "A", "rater-1"],
            ["d1", "pizza", "tasty", "a2", "b1", "B", "rater-1"],
        ])
        first, second = parse_duels(duels)
        for name in ("category", "dimension", "item_b", "rater_id"):
            assert getattr(first, name) is getattr(second, name), name
        items = self.write(tmp_path, "items.csv", [
            ITEM_COLUMNS, ["a1", "A", "pizza", "ref/x"], ["b1", "B", " pizza", "ref/x"],
        ])
        first, second = parse_items(items).records
        assert first.category is second.category
        assert first.external_ref is second.external_ref
        tags = self.write(tmp_path, "tags.csv", [
            TAG_COLUMNS, ["d0", "a1", "rater-1", "fresh"], ["d0", "b1", "rater-1", "x"],
        ])
        first, second = parse_tags(tags)
        assert first.duel_id is second.duel_id
        assert first.rater_id is second.rater_id

    # a valid duel row, and one that fails each way
    GOOD_DUEL = "d{k},pizza,tasty,a-pizza-0,b-pizza-1,B,r1"
    BAD_WINNER = "d{k},pizza,tasty,a-pizza-0,b-pizza-1,X,r1"
    GHOST_ITEM = "d{k},pizza,tasty,ghost,b-pizza-1,B,r1"
    SHORT = "d{k},pizza"

    def write_duel_rows(self, tmp_path, rows, tail=b""):
        path = tmp_path / "duels.csv"
        lines = [",".join(DUEL_COLUMNS), *(r.format(k=k) for k, r in enumerate(rows))]
        path.write_bytes("\n".join(lines).encode() + b"\n" + tail)
        return path

    @pytest.fixture()
    def chunks_of_3(self, monkeypatch):
        monkeypatch.setattr(datasets, "_CHUNK_ROWS", 3)

    def test_short_row_after_first_chunk_wins(self, tmp_path, chunks_of_3):
        # a record error in chunk 1 (line 3), a short row in chunk 2 (line 7)
        rows = [self.GOOD_DUEL, self.BAD_WINNER, *[self.GOOD_DUEL] * 3, self.SHORT]
        path = self.write_duel_rows(tmp_path, rows)
        with pytest.raises(ParseError) as exc:
            parse_duels(path)
        assert str(exc.value) == f"{path}: line 7: row has too few fields"
        assert exc.value.line == 7

    def test_non_utf8_byte_after_short_row_wins(self, tmp_path, chunks_of_3):
        # the byte lies past the first read of the decoder, many chunks on
        rows = [self.GOOD_DUEL, self.SHORT, *[self.GOOD_DUEL] * 1000]
        path = self.write_duel_rows(tmp_path, rows, tail=b"d\xff,pizza\n")
        assert path.stat().st_size > 4 * io.DEFAULT_BUFFER_SIZE
        with pytest.raises(ValidationError) as exc:
            parse_duels(path)
        assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte"

    def test_record_error_in_later_chunk(self, tmp_path, fixture_data, chunks_of_3):
        catalog, _, _ = fixture_data
        rows = [*[self.GOOD_DUEL] * 7, self.BAD_WINNER, self.GHOST_ITEM]
        path = self.write_duel_rows(tmp_path, rows)
        with pytest.raises(ParseError) as exc:
            parse_duels(path, catalog)
        assert str(exc.value) == (
            f"{path}: line 9: duel 'd7': winner must be one of ('A', 'B'), got 'X'"
        )
        assert exc.value.line == 9
        # the check error of an earlier chunk wins over a later record error
        rows = [*[self.GOOD_DUEL] * 4, self.GHOST_ITEM, *[self.GOOD_DUEL] * 2,
                self.BAD_WINNER]
        path = self.write_duel_rows(tmp_path, rows)
        with pytest.raises(ReferentialError) as exc:
            parse_duels(path, catalog)
        assert str(exc.value) == f"{path}: line 6: unknown item 'ghost'"

    # duel ids the CSV must quote, non-ASCII, with surrounding spaces (which
    # the reader strips) and of 200 characters
    AWKWARD_IDS = ("d0,comma", "d1\nnewline", "d2-caf\u00e9-\u98df\u3079\u7269",
                   "  d3 spaced  ", "d4-" + "x" * 197)

    def test_awkward_duel_ids_round_trip(self, tmp_path, fixture_data):
        catalog, _, _ = fixture_data
        fields = ["pizza", "tasty", "a-pizza-0", "b-pizza-1", "B", "r1"]
        path = tmp_path / "duels.csv"
        rows = [[duel_id, *fields] for duel_id in self.AWKWARD_IDS]
        write_csv(path, DUEL_COLUMNS, rows)
        ids = [duel_id.strip() for duel_id in self.AWKWARD_IDS]
        assert len(ids[-1]) == 200
        records = [DuelRecord(duel_id, *fields) for duel_id in ids]
        table = parse_duels(path, catalog)
        assert table == records and [d.duel_id for d in table] == ids
        assert table.columns()[0] == ids and table[1].duel_id == "d1\nnewline"
        assert table[::-2] == records[::-2] and table[3:][0].duel_id == "d3 spaced"
        assert table.where("dimension", ["tasty"])[np.array([4, 2])] == [
            records[4], records[2]]
        text = one_join_lines(
            [d.duel_id, d.category, d.dimension, d.item_a, d.item_b, d.winner,
             d.rater_id] for d in records
        )
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert input_digests(catalog, table, None)["duels"] == digest
        assert input_digests(catalog, records, None)["duels"] == digest
        # a broken row after them starts on line 8: row d1 spans lines 3-4
        write_csv(path, DUEL_COLUMNS, [*rows, ["  d5,\nbad ", *fields[:4], "X", "r1"]])
        with pytest.raises(ParseError) as exc:
            parse_duels(path, catalog)
        assert str(exc.value) == (
            f"{path}: line 8: duel 'd5,\\nbad': winner must be one of ('A', 'B'), "
            "got 'X'"
        )

    def test_duel_check_error_names_the_file_then_the_line(self, tmp_path):
        path = tmp_path / "duels.csv"
        path.write_text(",".join(DUEL_COLUMNS) + "\nd0,pizza,tasty,a1,b1,A,r1\n")
        catalog = ItemCatalog([ItemRecord("a1", "A", "pizza")])
        with pytest.raises(ReferentialError) as exc:
            parse_duels(path, catalog)
        assert str(exc.value) == f"{path}: line 2: unknown item 'b1'"

    def test_valid_rows_around_blank_lines_and_quoted_newlines(self, tmp_path):
        path = tmp_path / "tags.csv"
        path.write_bytes(
            b'duel_id,item_id,rater_id,raw_tag\n\nd0,a1,r1,"fresh\ncrust"\n'
            b'\r\nd1, a2 ,r1,"thin, crisp"\n'
        )
        assert parse_tags(path) == [
            TagRecord("d0", "a1", "r1", "fresh\ncrust"),
            TagRecord("d1", "a2", "r1", "thin, crisp"),
        ]

    @pytest.mark.parametrize(
        "item_a, match",
        [("ghost", "line 2: unknown item 'ghost'"), ("b-pizza-1", "line 2: item_a")],
    )
    def test_earlier_referential_error_wins(
        self, tmp_path, fixture_data, item_a, match
    ):
        catalog, _, _ = fixture_data
        path = self.write(
            tmp_path,
            "duels.csv",
            [
                DUEL_COLUMNS,
                ["d0", "pizza", "tasty", item_a, "b-pizza-0", "B", "r1"],
                ["d1", "pizza", "tasty", "a-pizza-0", "b-pizza-0", "X", "r1"],
            ],
        )
        with pytest.raises(ValidationError, match=match):
            parse_duels(path, catalog)

    def test_duel_against_unknown_item(self, tmp_path, fixture_data):
        catalog, _, _ = fixture_data
        header = [
            "duel_id", "category", "dimension", "item_a", "item_b", "winner",
            "rater_id",
        ]
        path = self.write(
            tmp_path,
            "duels.csv",
            [header, ["d0", "pizza", "tasty", "ghost", "b-pizza-0", "B", "r1"]],
        )
        with pytest.raises(ReferentialError, match="ghost"):
            parse_duels(path, catalog)

    def test_same_group_duel_rejected(self, tmp_path, fixture_data):
        catalog, _, _ = fixture_data
        header = [
            "duel_id", "category", "dimension", "item_a", "item_b", "winner",
            "rater_id",
        ]
        path = self.write(
            tmp_path,
            "duels.csv",
            [header, ["d0", "pizza", "tasty", "b-pizza-0", "b-pizza-1", "B", "r1"]],
        )
        with pytest.raises(ValidationError, match="group"):
            parse_duels(path, catalog)

    def test_duel_item_of_another_category_rejected(self, tmp_path, fixture_data):
        catalog, _, _ = fixture_data
        path = self.write(
            tmp_path,
            "duels.csv",
            [
                DUEL_COLUMNS,
                ["d0", "pizza", "tasty", "a-pizza-0", "b-pizza-0", "B", "r1"],
                ["d1", "pizza", "tasty", "a-pizza-0", "b-salad-0", "B", "r1"],
            ],
        )
        message = (
            "line 3: duel 'd1' has category 'pizza', but its item 'b-salad-0' "
            "is catalogued as 'salad'"
        )
        with pytest.raises(ReferentialError, match=message):
            parse_duels(path, catalog)

    def test_column_map_adapts_layout(self, tmp_path):
        path = self.write(
            tmp_path,
            "items.csv",
            [["id", "side", "food", "url"], ["x", "A", "pizza", ""]],
        )
        catalog = parse_items(
            path,
            column_map={
                "item_id": "id",
                "group": "side",
                "category": "food",
                "external_ref": "url",
            },
        )
        assert catalog.ids() == ["x"]


# per column, values a valid row may hold (with commas, quotes, newlines or
# surrounding spaces) and, drawn one time in ten, values that fail (unknown
# group or item, bad winner, self-duel, empty tag)
_ORACLE_VALUES = {
    "item_id": (["a0", " a1", "b0 ", "b1", "a\n2", "i, j", '"k"'], [""]),
    "group": (["A", "B", " B "], ["C", ""]),
    "category": (["pizza", "pizza pie", '"pizza"'], [""]),
    "external_ref": (["", "ref/1", " u, v "], []),
    "duel_id": (["d0", "d1", ' "d" ', "d\n2"], []),
    "dimension": (["tasty", " healthy\n"], []),
    "item_a": (["a0", " a1", "a0\n"], ["b0", "ghost"]),
    "item_b": (["b0", "b1 "], ["a1", "a0"]),
    "winner": (["A", " B", "B"], ["X", ""]),
    "rater_id": (["r1", "", "r, 2"], []),
    "raw_tag": ([" Looks tasty ", "thin, crisp", "two\nlines"], ["  ", ""]),
    "note": (["", "x", "1, 2"], []),
}
_ORACLE_LAYOUTS = {
    "items": (ITEM_COLUMNS, parse_items, dictreader_parse_items),
    "duels": (DUEL_COLUMNS, parse_duels, dictreader_parse_duels),
    "tags": (TAG_COLUMNS, parse_tags, dictreader_parse_tags),
}
_ORACLE_CATALOG = ItemCatalog(
    [ItemRecord(i, i[0].upper(), "pizza") for i in ("a0", "a1", "b0", "b1")]
)


@st.composite
def csv_files(draw):
    """(kind, CSV text, column map, with catalog, line of each non-blank row)."""
    kind = draw(st.sampled_from(sorted(_ORACLE_LAYOUTS)))
    columns = list(_ORACLE_LAYOUTS[kind][0])
    if kind == "items" and draw(st.booleans()):
        columns.remove("external_ref")  # the one optional column
    if draw(st.integers(0, 19)) == 0:
        columns.remove(draw(st.sampled_from(columns)))  # maybe a required one
    columns += draw(st.lists(st.sampled_from(["note", *columns]), max_size=2))
    columns = draw(st.permutations(columns))  # a repeat is a repeated name
    column_map = None
    if draw(st.booleans()):
        column_map = {c: f"my {c}" for c in _ORACLE_LAYOUTS[kind][0]}
    header = [column_map.get(c, c) if column_map else c for c in columns]
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(header)
    lines, line = [], 2
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            row = []  # a blank line
        else:
            row = []
            for c in columns:
                valid, failing = _ORACLE_VALUES[c]
                fail = failing and draw(st.integers(0, 9)) == 0
                row.append(draw(st.sampled_from(failing if fail else valid)))
            cut = draw(st.integers(-2, 2)) if draw(st.integers(0, 9)) == 0 else 0
            row = row[: len(row) - cut] if cut > 0 else row + ["extra"] * -cut
        writer.writerow(row)
        if row:
            lines.append(line)
        line += 1 + sum(field.count("\n") for field in row)
    return kind, out.getvalue(), column_map, draw(st.booleans()), lines


def _outcome(parse, *args):
    try:
        result = parse(*args)
    except DuelBiasError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return result.records if isinstance(result, ItemCatalog) else result


class TestParserOracle:
    """The column reader against the csv.DictReader parsers it replaced
    (``oracles.dictreader_parse_*``), given each row's line."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("oracle")

    @settings(max_examples=300, deadline=None)
    @given(csv_files(), st.sampled_from([1, 2, 3, datasets._CHUNK_ROWS]))
    def test_same_records_and_errors(self, workdir, case, chunk_rows):
        kind, text, column_map, with_catalog, lines = case
        path = workdir / f"{kind}.csv"
        path.write_bytes(text.encode())
        _, parse, oracle = _ORACLE_LAYOUTS[kind]
        with pytest.MonkeyPatch.context() as patch:
            # rows read per chunk: the oracle reads the file whole
            patch.setattr(datasets, "_CHUNK_ROWS", chunk_rows)
            if kind == "duels":
                catalog = _ORACLE_CATALOG if with_catalog else None
                got = _outcome(parse, path, catalog, column_map)
                expected = _outcome(oracle, path, catalog, column_map, lines)
            else:
                got = _outcome(parse, path, column_map)
                expected = _outcome(oracle, path, column_map, lines)
        assert got == expected


class TestPipeline:
    def config(self):
        # item-unit bootstrap avoids per-replicate refits and keeps tests fast
        return AnalysisConfig(
            bootstrap_replicates=100,
            bootstrap_unit="item",
            seed=1,
        )

    def test_one_table_per_category_dimension(self, fixture_data):
        catalog, duels, tags = fixture_data
        bundle = run_pipeline(self.config(), catalog, duels, tags)
        assert sorted(bundle["tournaments"]) == sorted(
            f"{c}/{d}" for c in CATEGORIES for d in DIMENSIONS
        )
        for t in bundle["tournaments"].values():
            assert len(t["scores"]) == 8
            assert t["fit"]["converged"]

    def test_biased_fixture_detected(self, fixture_data):
        catalog, duels, tags = fixture_data
        bundle = run_pipeline(self.config(), catalog, duels, tags)
        for dim in DIMENSIONS:
            pooled = bundle["pooled"][dim]
            assert pooled["mean_category_bias"]["point"] > 0
            assert pooled["win_fraction"]["fraction"] > 0.5

    def test_input_digests_pinned(self):
        catalog = ItemCatalog(
            [
                ItemRecord("a1", "A", "pizza", "img/a1.jpg"),
                ItemRecord("a2", "A", "pizza"),
                ItemRecord("b1", "B", "pizza", "caf\u00e9"),
            ]
        )
        duels = [
            DuelRecord("d1", "pizza", "tasty", "a1", "b1", "B", "r1"),
            DuelRecord("d2", "pizza", "tasty", "a2", "b1", "A", "r2"),
            DuelRecord("d3", "pizza", "healthy", "a1", "b1", "B", "r1"),
        ]
        tags = [
            TagRecord("d1", "b1", "r1", "cr\u00e8me fra\u00eeche"),
            TagRecord("d2", "a2", "r2", "cheesy, hot"),
        ]
        items = "6cfbdca9fe314abe60dcd6a7270bc60791a0749d1abecf0c61f114ed743c8b99"
        duel_digest = "ccc216d31882caaee07a017bd4e5ba2c6e204f656911afba24d0fad1b86f135f"
        assert input_digests(catalog, duels, tags) == {
            "items": items,
            "duels": duel_digest,
            "tags": "d20d5bcd2c5097a323678e43658400fc964c572e95c045e85008c930aede4566",
        }
        # an empty tag log hashes the empty string
        assert input_digests(catalog, duels, []) == {
            "items": items,
            "duels": duel_digest,
            "tags": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }

    @pytest.mark.parametrize("rows", [0, 1, 1024, 1025, 2049])
    def test_chunked_digests_hash_the_one_join_text(self, rows):
        # the digests hash 1,024 rows (the reader's chunk) at a time: around
        # each chunk boundary the text is still the one-join text
        assert datasets._CHUNK_ROWS == 1024
        categories = ("pizza", "salad", "café")
        catalog = ItemCatalog([
            ItemRecord(f"i{k}", "AB"[k % 2], categories[k % 3],
                       f"img/{k}.jpg" if k % 5 else None)
            for k in range(rows)
        ])
        duels = DuelTable.of([
            DuelRecord(f"d{k}", categories[k % 3], ("tasty", "healthy")[k % 2],
                       f"a{k % 97}", f"b{k % 89}", "AB"[k % 4 // 3], f"r{k % 7}")
            for k in range(rows)
        ])
        tags = [TagRecord(f"d{k}", f"i{k}", f"r{k % 7}", f"tag {k % 13}, crème")
                for k in range(rows)]
        items = [(r.item_id, r.group, r.category, r.external_ref or "")
                 for r in catalog.records]
        texts = {
            "items": one_join_lines(items),
            "duels": one_join_duel_lines(duels),
            "tags": one_join_lines(
                (t.duel_id, t.item_id, t.rater_id, t.raw_text) for t in tags
            ),
        }
        assert input_digests(catalog, duels, tags) == {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in texts.items()
        }

    def test_a_view_hashes_like_its_records(self):
        # rows 3-2048 are the pizza duels: the where view, the slice (which
        # starts inside the first 1,024-row chunk) and the list of records
        # hold the same rows, and each hashes its own one-join text
        duels = DuelTable.of([
            DuelRecord(f"d{k}", "pizza" if 3 <= k < 2049 else "café",
                       ("tasty", "healthy")[k % 2], f"a{k % 97}", f"b{k % 89}é",
                       "AB"[k % 4 // 3], f"r{k % 7}")
            for k in range(2100)
        ])
        views = {
            "where": duels.where("category", ("pizza",)),
            "slice": duels[3:2049],
            "records": list(duels[3:2049]),
        }
        texts = {name: one_join_duel_lines(DuelTable.of(view))
                 for name, view in views.items()}
        assert len(set(texts.values())) == 1
        for name, view in views.items():
            digest = hashlib.sha256(texts[name].encode("utf-8")).hexdigest()
            assert input_digests(ItemCatalog([]), view, None)["duels"] == digest, name

    def test_report_serialization_is_deterministic(self, fixture_data):
        catalog, duels, tags = fixture_data
        r1 = dump_report(run_pipeline(self.config(), catalog, duels, tags))
        r2 = dump_report(run_pipeline(self.config(), catalog, duels, tags))
        assert r1 == r2

    def test_seed_changes_only_intervals(self, fixture_data):
        catalog, duels, tags = fixture_data
        b1 = run_pipeline(self.config(), catalog, duels, tags)
        cfg2 = AnalysisConfig(
            bootstrap_replicates=100, bootstrap_unit="item", seed=2
        )
        b2 = run_pipeline(cfg2, catalog, duels, tags)
        key = f"{CATEGORIES[0]}/{DIMENSIONS[0]}"
        assert b1["tournaments"][key]["scores"] == b2["tournaments"][key]["scores"]
        assert (
            b1["tournaments"][key]["score_bias"]["point"]
            == b2["tournaments"][key]["score_bias"]["point"]
        )

    def test_dimension_filter(self, fixture_data):
        catalog, duels, tags = fixture_data
        cfg = AnalysisConfig(
            dimensions=("tasty",),
            bootstrap_replicates=100,
            bootstrap_unit="item",
            seed=0,
        )
        bundle = run_pipeline(cfg, catalog, duels, tags)
        assert all(k.endswith("/tasty") for k in bundle["tournaments"])

    @pytest.mark.parametrize("field", ["categories", "dimensions"])
    def test_filter_given_as_a_string_is_rejected(self, fixture_data, field):
        # "pizza" in "pizzas" holds, so a string would keep pizza duels
        catalog, duels, _ = fixture_data
        name = {"categories": "pizzas", "dimensions": "tastys"}[field]
        with pytest.raises(ValidationError, match=f"^{field} must be a sequence"):
            AnalysisConfig(**{field: name})
        with pytest.raises(ValidationError, match=f"^{field} must be a sequence"):
            select_tournaments(catalog, duels, **{field: name})

    @pytest.mark.parametrize("seed", [-1, 2**31])
    def test_seed_outside_range_is_rejected(self, seed):
        # seeds are folded mod 2**31: -1 would alias 2**31 - 1, and 2**31 alias 0
        with pytest.raises(ValidationError, match=r"^seed must be in \[0, 2\*\*31\)"):
            AnalysisConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**31 - 1])
    def test_seed_range_bounds_are_accepted(self, seed):
        assert AnalysisConfig(seed=seed).seed == seed

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", "3"),
         ("bootstrap_replicates", 100.5), ("bootstrap_replicates", 200.0)],
    )
    def test_non_integral_setting_is_rejected(self, field, value):
        # the message of the CLI's own rule: "seed: expected int, got True"
        with pytest.raises(ValidationError, match=f"^{field}: expected int, got "):
            AnalysisConfig(**{field: value})

    @pytest.mark.parametrize(
        "fit", [{"tolerance": 1e-6}, None, 1e-6], ids=["dict", "none", "float"]
    )
    def test_fit_that_is_not_a_fit_config_is_rejected(self, fixture_data, fit):
        # it used to be accepted, and run_pipeline then raised AttributeError
        catalog, duels, _ = fixture_data
        with pytest.raises(ValidationError, match="^fit must be a FitConfig, got "):
            config = AnalysisConfig(fit=fit, bootstrap_replicates=100)
            run_pipeline(config, catalog, duels)

    def test_numpy_integer_settings_are_written_as_ints(self, fixture_data):
        catalog, duels, _ = fixture_data

        def report(**ints):
            config = AnalysisConfig(categories=("pizza",), bootstrap_unit="item", **ints)
            return dump_report(run_pipeline(config, catalog, duels))

        assert report(bootstrap_replicates=np.int32(100), seed=np.int64(3)) == report(
            bootstrap_replicates=100, seed=3
        )

    def test_duel_unit_refit_bootstrap(self, fixture_data):
        catalog, duels, tags = fixture_data
        cfg = AnalysisConfig(
            categories=("pizza",),
            dimensions=("tasty",),
            bootstrap_unit="duel",
            bootstrap_replicates=100,
            seed=0,
        )
        bundle = run_pipeline(cfg, catalog, duels, None)
        (t,) = bundle["tournaments"].values()
        low, high = t["score_bias"]["ci"]
        assert low <= high
        # the refitted point estimate should sit inside a sane interval
        assert high - low < 10.0

    def test_duel_unit_run_builds_one_graph_per_tournament(
        self, fixture_data, monkeypatch
    ):
        catalog, duels, _ = fixture_data
        built = []
        init = ComparisonGraph.__init__

        def counting(graph, *args, **kwargs):
            built.append(graph)
            init(graph, *args, **kwargs)

        monkeypatch.setattr(ComparisonGraph, "__init__", counting)
        config = AnalysisConfig(bootstrap_replicates=100, bootstrap_unit="duel")
        bundle = run_pipeline(config, catalog, duels)
        assert len(bundle["tournaments"]) == 4
        assert len(built) == 4

    def test_config_rejects_too_few_bootstrap_replicates(self):
        with pytest.raises(ValidationError, match="at least 100 replicates"):
            AnalysisConfig(bootstrap_replicates=99)

    def test_median_percentile_ci_is_rank_curve_ci_at_50(self, fixture_data):
        catalog, duels, tags = fixture_data
        config = self.config()
        assert 50 in DEFAULT_RANK_GRID
        bundle = run_pipeline(config, catalog, duels, tags)
        for t in bundle["tournaments"].values():
            (at_50,) = [p["ci"] for p in t["rank_curve"] if p["x"] == 50]
            assert t["median_percentile"]["ci"] == at_50

    def test_item_unit_cis_match_per_replicate_loop(self, fixture_data):
        catalog, duels, tags = fixture_data
        config = self.config()
        bundle = run_pipeline(config, catalog, duels, tags)
        grid = (50,) + DEFAULT_RANK_GRID
        for dim in DIMENSIONS:
            # each tournament's score-bias rows and median-percentile rows
            pooled = {"diffs": [], "medians": []}
            for cat in sorted(CATEGORIES):
                t = bundle["tournaments"][f"{cat}/{dim}"]
                logs = {
                    g: np.log([t["scores"][i] for i in catalog.ids(g, cat)])
                    for g in ("A", "B")
                }
                diffs, boot = loop_resample_two_groups(
                    logs["A"],
                    logs["B"],
                    config.bootstrap_replicates,
                    _derived_seed(config.seed, cat, dim),
                    grid,
                )
                (med_low, *lows), (med_high, *highs) = percentile_ci(boot).tolist()
                assert t["score_bias"]["ci"] == percentile_ci(diffs).tolist()
                assert t["median_percentile"]["ci"] == [med_low, med_high]
                assert [p["ci"] for p in t["rank_curve"]] == [
                    list(ci) for ci in zip(lows, highs)
                ]
                pooled["diffs"].append(diffs)
                pooled["medians"].append(boot[:, 0])
            got = bundle["pooled"][dim]
            for key, rows in (
                ("mean_category_bias", pooled["diffs"]),
                ("mean_median_percentile", pooled["medians"]),
            ):
                # the tournaments' rows summed in turn, then divided
                mean = sum(rows[1:], rows[0]) / len(rows)
                assert got[key]["ci"] == percentile_ci(mean).tolist()

    def test_pooled_block_is_the_same_under_either_unit(self, fixture_data):
        catalog, duels, _ = fixture_data
        pooled = {
            unit: run_pipeline(
                AnalysisConfig(bootstrap_replicates=100, bootstrap_unit=unit, seed=1),
                catalog, duels,
            )["pooled"]
            for unit in ("item", "duel")
        }
        assert pooled["duel"] == pooled["item"]

    def test_pooled_point_is_the_mean_of_the_tournament_points(self):
        catalog, duels = build_unequal_mix()
        bundle = run_pipeline(self.config(), catalog, duels)
        for dim in DIMENSIONS:
            points = [bundle["tournaments"][f"{cat}/{dim}"]["score_bias"]["point"]
                      for cat in sorted(UNEQUAL_MIX)]
            got = bundle["pooled"][dim]["mean_category_bias"]["point"]
            assert abs(got - math.fsum(points) / 3) <= 1e-12
            # item-count weights that sum to 0.743 here pull a pooling of all
            # items well below the mean of the tournaments
            assert concatenated_bias(bundle, catalog, dim) < got - 0.05

    def test_pooled_block_ignores_a_shift_of_one_tournament(self, monkeypatch):
        catalog, duels = build_unequal_mix(seed=1)
        default = run_pipeline(self.config(), catalog, duels)

        def shifted(t, fit_config):
            table = fit_tournament(t, fit_config)
            if t.category != "bread":
                return table
            scale = math.exp(0.7)  # every bread log-score plus 0.7
            return table.replace(scores={k: v * scale for k, v in table.scores.items()})

        monkeypatch.setattr("duelbias.pipeline.fit_tournament", shifted)
        bundle = run_pipeline(self.config(), catalog, duels)
        for dim in DIMENSIONS:
            old, new = default["pooled"][dim], bundle["pooled"][dim]
            for key in ("mean_category_bias", "mean_median_percentile"):
                assert abs(new[key]["point"] - old[key]["point"]) <= 1e-12
                assert new[key]["ci"] == pytest.approx(old[key]["ci"], abs=1e-12)
            # bread holds 120 of the 210 A items and 30 of the 210 B items
            moved = (concatenated_bias(bundle, catalog, dim)
                     - concatenated_bias(default, catalog, dim))
            assert moved == pytest.approx(0.7 * (30 - 120) / 210)

    def test_unknown_duel_item_rejected(self, fixture_data):
        catalog, duels, _ = fixture_data
        bad = duels + [
            DuelRecord("dx", "pizza", "tasty", "ghost", "b-pizza-0", "B", "r1")
        ]
        with pytest.raises(ReferentialError):
            run_pipeline(self.config(), catalog, bad)

    def test_duel_item_of_another_category_rejected(self, fixture_data):
        catalog, duels, _ = fixture_data
        bad = duels + [
            DuelRecord("dx", "pizza", "tasty", "a-salad-0", "b-pizza-0", "B", "r1")
        ]
        message = (
            "duel 'dx' has category 'pizza', but its item 'a-salad-0' is "
            "catalogued as 'salad'"
        )
        with pytest.raises(ReferentialError, match=message):
            run_pipeline(self.config(), catalog, bad)

    @pytest.mark.parametrize(
        "item_a, item_b, error",
        [
            ("a-pizza-0", "b-pizza-0", None),
            ("ghost", "b-pizza-0", ReferentialError),
            ("a-pizza-0", "ghost", ReferentialError),
            ("b-pizza-0", "a-pizza-0", ValidationError),  # sides swapped
            ("a-pizza-0", "a-pizza-1", ValidationError),
            ("b-pizza-0", "b-pizza-1", ValidationError),
            ("a-salad-0", "b-pizza-0", ReferentialError),
            ("a-pizza-0", "b-salad-0", ReferentialError),
        ],
        ids=["valid", "unknown-a", "unknown-b", "swapped", "two-a", "two-b",
             "a-other-category", "b-other-category"],
    )
    def test_parser_and_pipeline_apply_one_duel_rule(
        self, fixture_data, tmp_path, item_a, item_b, error
    ):
        catalog, duels, _ = fixture_data
        duels = duels + [
            DuelRecord("dx", "pizza", "tasty", item_a, item_b, "B", "r1")
        ]
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        if error is None:
            assert parse_duels(path, catalog) == duels
            run_pipeline(self.config(), catalog, duels)
            return
        with pytest.raises(ValidationError) as parsed:
            parse_duels(path, catalog)
        with pytest.raises(ValidationError) as piped:
            run_pipeline(self.config(), catalog, duels)
        assert type(parsed.value) is type(piped.value) is error
        prefix = f"{path}: line {len(duels) + 1}: "
        assert str(parsed.value).startswith(prefix)
        assert str(parsed.value).removeprefix(prefix) in str(piped.value)
        assert "'dx'" in str(piped.value)

    @pytest.mark.parametrize(
        "change", ["append", "extend", "insert", "setitem", "iadd", "other-catalog"]
    )
    def test_parsed_duels_checked_again_after_a_change(
        self, fixture_data, tmp_path, change
    ):
        catalog, duels, _ = fixture_data
        path = tmp_path / "duels.csv"
        write_duels(path, duels)
        # the parsed table is immutable: the changes apply to a list of it
        parsed = list(parse_duels(path, catalog))
        swapped = DuelRecord("dx", "pizza", "tasty", "b-pizza-0", "a-pizza-0", "A", "r")
        message = "^duel 'dx': item_a must be group A"
        if change == "append":
            parsed.append(swapped)
        elif change == "extend":
            parsed.extend([swapped])
        elif change == "insert":
            parsed.insert(0, swapped)
        elif change == "setitem":
            parsed[1:2] = [swapped]
        elif change == "iadd":
            parsed += [swapped]
        else:
            missing = duels[0].item_a
            catalog = ItemCatalog(r for r in catalog.records if r.item_id != missing)
            message = f"^duel 'd0': unknown item '{missing}'"
        with pytest.raises(ValidationError, match=message):
            run_pipeline(self.config(), catalog, parsed)

    def test_statistics_do_not_depend_on_the_gauge(self, fixture_data):
        # half of group A's pizza items dropped: the groups' category mixes
        # differ, so a per-tournament gauge would shift the pooled numbers
        catalog, duels, _ = fixture_data
        dropped = {"a-pizza-2", "a-pizza-3"}
        catalog = ItemCatalog(r for r in catalog.records if r.item_id not in dropped)
        duels = [d for d in duels if d.item_a not in dropped]
        bundles = {
            gauge: run_pipeline(
                AnalysisConfig(
                    bootstrap_replicates=100, bootstrap_unit="item",
                    fit=FitConfig(normalization=gauge),
                ),
                catalog,
                duels,
            )
            for gauge in ("geometric-mean-one", "sum-one")
        }
        default, sum_one = bundles["geometric-mean-one"], bundles["sum-one"]
        assert sum_one["pooled"] == default["pooled"]
        assert sum_one["score_correlations"] == default["score_correlations"]
        for key, t in sum_one["tournaments"].items():
            assert t["fit"]["normalization"] == "sum-one"
            assert sum(t["scores"].values()) == pytest.approx(1.0, rel=1e-12)
            assert t["score_bias"] == default["tournaments"][key]["score_bias"]

    def test_bundle_written_to_disk(self, fixture_data, tmp_path):
        catalog, duels, tags = fixture_data
        bundle = run_pipeline(self.config(), catalog, duels, tags)
        paths = write_report_bundle(bundle, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {
            "report.json",
            "scores.csv",
            "rank_curves.csv",
            "distinctive_tags.csv",
            "frequency.csv",
        }
        with open(tmp_path / "report.json") as f:
            assert json.load(f) == json.loads(dump_report(bundle))

    def test_fit_tournament_restricts_to_category(self, fixture_data):
        catalog, duels, _ = fixture_data
        [pizza_tasty] = select_tournaments(catalog, duels, ["tasty"], ["pizza"])
        table = fit_tournament(pizza_tasty, AnalysisConfig().fit)
        assert set(table.scores) == set(catalog.ids(category="pizza"))


FIT_ARGS = ["--items", "{items}", "--duels", "{duels}"]
BIAS_ARGS = [*FIT_ARGS, "--unit", "item", "--bootstrap", "100"]
SIMULATE_ARGS = ["--items", "8", "--replicates", "1"]
TAGS_ARGS = ["--items", "{items}", "--tags", "{tags}"]

# every package error and the builtin base it had before the hierarchy was
# split by exit code
ERROR_BUILTIN_BASES = {
    "ValidationError": ValueError,
    "ParseError": ValueError,
    "ReferentialError": ValueError,
    "SizeMismatchError": ValueError,
    "InfeasibleScheduleError": ValueError,
    "DegenerateFitError": ValueError,
    "UnidentifiableItemsError": ValueError,
    "UnstableBootstrapError": RuntimeError,
    "NumericalError": RuntimeError,
}


def _breaks_rule(catalog, duel):
    try:
        catalog.check_duel(duel)
    except ValidationError:
        return True
    return False


@st.composite
def duel_sets(draw):
    """(catalog, duels, dimensions, categories): items in up to three
    categories; duels that keep the duel rule, with up to three random
    duels put among them that may name an unknown item, cross categories,
    swap sides or pair one group; random filters."""
    categories = ("pizza", "salad", "soup")
    catalog = ItemCatalog(
        ItemRecord(f"i{k}", draw(st.sampled_from(GROUPS)),
                   draw(st.sampled_from(categories)))
        for k in range(draw(st.integers(0, 10)))
    )
    sides = {c: (catalog.ids("A", c), catalog.ids("B", c)) for c in categories}
    playable = [c for c, (side_a, side_b) in sides.items() if side_a and side_b]
    ids = [*catalog.ids(), "ghost"]
    duels = []
    for _ in range(draw(st.integers(0, 12)) if playable else 0):
        category = draw(st.sampled_from(playable))
        a, b = (draw(st.sampled_from(side)) for side in sides[category])
        duels.append((category, a, b))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        a = draw(st.sampled_from(ids))
        b = draw(st.sampled_from([i for i in [*ids, "phantom"] if i != a]))
        category = draw(st.sampled_from([*categories, "bread"]))
        duels.insert(draw(st.integers(0, len(duels))), (category, a, b))
    duels = [
        DuelRecord(f"d{k}", category, draw(st.sampled_from(DIMENSIONS)), a, b,
                   draw(st.sampled_from(GROUPS)), "r1")
        for k, (category, a, b) in enumerate(duels)
    ]
    dimensions, categories = (
        draw(st.none() | st.lists(st.sampled_from(values), min_size=1, unique=True))
        for values in ((*DIMENSIONS, "crisp"), (*categories, "bread"))
    )
    return catalog, duels, dimensions, categories


class TestSelectTournaments:
    @settings(max_examples=300, deadline=None)
    @given(duel_sets())
    def test_same_tournaments_and_errors_as_a_check_pass(self, case):
        catalog, duels, dimensions, categories = case
        try:
            expected = [
                (c, dim, ds, graph, a.tolist(), b.tolist())
                for c, dim, ds, graph, a, b in pairs_select_tournaments(*case)
            ]
        except ValidationError as exc:
            expected = type(exc), str(exc)
        bad = [d for d in duels if _breaks_rule(catalog, d)]
        checked = []
        check = ItemCatalog.check_duel

        def counted(self, duel):
            checked.append(duel)
            return check(self, duel)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ItemCatalog, "check_duel", counted)
            try:
                tournaments = select_tournaments(*case)
            except ValidationError as exc:
                got = type(exc), str(exc)
            else:
                assert all(
                    g.dtype == np.intp for t in tournaments for g in t.groups
                )
                got = [
                    (t.category, t.dimension, t.duels, t.graph,
                     *(g.tolist() for g in t.groups))
                    for t in tournaments
                ]
        assert got == expected
        # check_duel runs only to raise the first failing duel's error
        assert checked == bad[:1]
        if bad:
            assert got[1].startswith(f"duel {bad[0].duel_id!r}: ")

    @pytest.mark.parametrize("dimensions", [None, ["healthy"], ["crisp"]],
                             ids=["unfiltered", "duel-filtered-out", "none-left"])
    @pytest.mark.parametrize(
        "item_a, item_b, error, message",
        [
            ("a-pizza-0", "zzz", ReferentialError, "unknown item 'zzz'"),
            ("b-pizza-0", "a-pizza-0", ValidationError,
             "item_a must be group A and item_b group B (got B, A)"),
        ],
        ids=["unknown-item", "swapped"],
    )
    def test_rejects_a_bad_duel_whatever_the_filters(
        self, fixture_data, item_a, item_b, error, message, dimensions
    ):
        catalog, duels, _ = fixture_data
        bad = DuelRecord("dx", "pizza", "tasty", item_a, item_b, "A", "r1")
        with pytest.raises(error) as raised:
            select_tournaments(catalog, [*duels, bad], dimensions)
        assert type(raised.value) is error
        assert str(raised.value) == f"duel 'dx': {message}"


@pytest.fixture(scope="module")
def large_set(tmp_path_factory):
    """Paths of an items and a duels file shaped like the benchmark's large
    set: 2,000 items, 5 categories, 2 dimensions, 10 duels per item in each
    (category, dimension) tournament, 7 raters; 20,000 duels."""
    rng = np.random.default_rng(1)
    categories, per_side = ("pizza", "salad", "burger", "pasta", "soup"), 200
    items = [
        ItemRecord(f"{g.lower()}-{c}-{i}", g, c)
        for c in categories for g in ("A", "B") for i in range(per_side)
    ]
    duels = []
    for c in categories:
        for dim in ("tasty", "healthy"):
            for _ in range(10):
                for i, j in enumerate(rng.permutation(per_side)):
                    k = len(duels)
                    duels.append(DuelRecord(
                        f"d{k}", c, dim, f"a-{c}-{i}", f"b-{c}-{j}",
                        "AB"[int(rng.integers(2))], f"r{k % 7}",
                    ))
    root = tmp_path_factory.mktemp("large")
    write_items(root / "items.csv", ItemCatalog(items))
    write_duels(root / "duels.csv", duels)
    return str(root / "items.csv"), str(root / "duels.csv")


class TestLargeInput:
    def test_parsed_duels_retain_little_heap(self, large_set):
        items, duels = large_set
        catalog = parse_items(items)
        gc.collect()
        tracemalloc.start()
        try:
            parsed = parse_duels(duels, catalog)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(parsed) == 20_000
        # about 44 B: the id's characters and int32 offset, and six int32
        # codes; 97 B while each id was a string with its slot
        assert retained / len(parsed) <= 55

    def test_tournaments_and_digests_build_no_object_per_duel(self, large_set):
        items, duels = large_set
        catalog = parse_items(items)
        parsed = parse_duels(duels, catalog)
        select_tournaments(catalog, parsed)  # a first call's one-time allocations
        gc.collect()
        tracemalloc.start()
        try:
            tournaments = select_tournaments(catalog, parsed)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            input_digests(catalog, parsed, None)
            peak = tracemalloc.get_traced_memory()[1] - retained
        finally:
            tracemalloc.stop()
        assert sum(len(t.duels) for t in tournaments) == len(parsed) == 20_000
        # about 24 B: the tournament's int32 row index and the graph's two
        # intp indices; 52 B while each tournament copied its rows of the
        # columns, and about 120 B while the graph held a tuple of pairs
        assert retained / len(parsed) <= 30
        # about 37 B: one chunk of rows as text; the whole text took 173 B
        assert peak / len(parsed) <= 47

    def test_where_and_dimension_splits_retain_only_row_indices(self, large_set):
        items, duels = large_set
        parsed = parse_duels(duels, parse_items(items))
        gc.collect()
        tracemalloc.start()
        try:
            tasty = parsed.where("dimension", ["tasty"])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
            splits = duels_by_dimension(tasty)
            gc.collect()
            split_retained = tracemalloc.get_traced_memory()[0] - retained
        finally:
            tracemalloc.stop()
        assert len(tasty) == sum(map(len, splits.values())) == 10_000
        # an int32 index per row and a small constant; copying the rows of the
        # columns took 32 B per row
        assert retained <= 4 * len(tasty) + 1024
        assert split_retained <= 4 * len(tasty) + 1024
        assert splits["tasty"] == tasty

    def test_cli_checks_each_duel_once(self, large_set, tmp_path, monkeypatch):
        items, duels = large_set
        calls = 0
        check = ItemCatalog.check_duel

        def counted(self, duel):
            nonlocal calls
            calls += 1
            return check(self, duel)

        monkeypatch.setattr(ItemCatalog, "check_duel", counted)
        args = ["bias", "--items", items, "--duels", duels, "--unit", "item",
                "--bootstrap", "100", "--output-dir", str(tmp_path)]
        assert main(args) == 0
        # the rules run over whole columns; check_duel runs only to raise
        assert calls == 0


class TestCLI:
    @pytest.fixture()
    def paths(self, fixture_data, tmp_path):
        catalog, duels, tags = fixture_data
        return write_fixture(tmp_path, catalog, duels, tags), tmp_path

    def test_every_error_class_is_listed(self):
        classes = {
            name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, Exception)
        }
        assert classes == set(ERROR_BUILTIN_BASES) | {"DuelBiasError"}

    @pytest.mark.parametrize("name", sorted(ERROR_BUILTIN_BASES))
    def test_error_class_has_one_exit_code(self, paths, capsys, monkeypatch, name):
        cls = getattr(errors, name)
        assert issubclass(cls, ERROR_BUILTIN_BASES[name])
        bases = [issubclass(cls, base) for base in (ValidationError, NumericalError)]
        assert bases.count(True) == 1

        def fail(args):
            raise cls(["x"]) if cls is UnidentifiableItemsError else cls("boom")

        monkeypatch.setattr(cli, "cmd_freq", fail)
        (items, _, _), _ = paths
        assert main(["freq", "--items", items]) == (2 if bases[0] else 3)
        assert capsys.readouterr().err.startswith("error: ")

    def test_simulate(self, tmp_path, capsys):
        rc = main(
            [
                "simulate",
                "--items", "8",
                "--budgets", "8,16",
                "--replicates", "2",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = tmp_path / "recovery_curve.csv"
        assert str(out) in capsys.readouterr().out
        rows = list(csv.DictReader(open(out)))
        assert [r["budget"] for r in rows] == ["8", "16"]

    def test_simulate_budgets_list_in_config_matches_flag(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"budgets": [100, 200]}))
        common = ["simulate", "--items", "20", "--replicates", "2"]
        for out, extra in (("flag", ["--budgets", "100,200"]),
                           ("config", ["--config", str(cfg)])):
            assert main([*common, *extra, "--output-dir", str(tmp_path / out)]) == 0
        curves = [(tmp_path / out / "recovery_curve.csv").read_bytes()
                  for out in ("flag", "config")]
        assert curves[0] == curves[1]

    def test_simulate_unconverged_fit_exits_3(self, tmp_path, capsys, monkeypatch):
        # one Newton step is too few: the curve is not written
        monkeypatch.setattr(
            tournament, "SIMULATION_FIT_CONFIG", FitConfig(max_iterations=1)
        )
        rc = main(
            [
                "simulate",
                "--items", "20",
                "--budgets", "10,20",
                "--replicates", "3",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error: rank-recovery fit of replicate seed 0 at budget 10 "
        )
        assert not (tmp_path / "recovery_curve.csv").exists()

    def test_design(self, paths, capsys):
        (items, _, _), tmp_path = paths
        rc = main(
            [
                "design",
                "--items", items,
                "--duels-per-item", "3",
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "schedule.csv")))
        assert len(rows) == 3 * 8  # 8 items per group across both categories

    def test_fit(self, paths):
        (items, duels, _), tmp_path = paths
        rc = main(
            [
                "fit",
                "--items", items,
                "--duels", duels,
                "--output-dir", str(tmp_path / "fit"),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "fit" / "scores.csv")))
        assert len(rows) == 4 * 8  # four tournaments, eight items each
        diag = json.load(open(tmp_path / "fit" / "fit_diagnostics.json"))
        assert all(v["converged"] for v in diag.values())

    def test_fit_and_bias_write_the_same_sum_one_scores(self, paths):
        (items, duels, _), tmp_path = paths
        common = ["--items", items, "--duels", duels, "--normalization", "sum-one"]
        assert main(["fit", *common, "--output-dir", str(tmp_path / "fit")]) == 0
        assert main(
            ["bias", *common, "--bootstrap", "100", "--unit", "item",
             "--output-dir", str(tmp_path / "bias")]
        ) == 0
        fit_scores, bias_scores = (
            (tmp_path / out / "scores.csv").read_bytes() for out in ("fit", "bias")
        )
        assert fit_scores == bias_scores
        report = json.load(open(tmp_path / "bias" / "report.json"))
        diagnostics = json.load(open(tmp_path / "fit" / "fit_diagnostics.json"))
        for key, tournament in report["tournaments"].items():
            fitted = tournament["fit"]["log_likelihood"]
            assert diagnostics[key]["log_likelihood"] == fitted

    def test_fit_category_and_dimension_repeat(self, paths):
        (items, duels, _), tmp_path = paths
        out = tmp_path / "fit"
        assert main(
            ["fit", "--items", items, "--duels", duels, "--category", "pizza",
             "--category", "salad", "--dimension", "tasty", "--output-dir", str(out)]
        ) == 0
        assert set(json.load(open(out / "fit_diagnostics.json"))) == {
            "pizza/tasty", "salad/tasty"
        }

    @pytest.mark.parametrize(
        "command",
        [["bias", *BIAS_ARGS, "--tags", "{tags}"], ["fit", *FIT_ARGS],
         ["tags", "--items", "{items}", "--tags", "{tags}"]],
        ids=["bias-tags", "fit", "tags"],
    )
    def test_column_map_read_once(self, paths, monkeypatch, command):
        (items, duels, tags), tmp_path = paths
        column_map = tmp_path / "columns.json"
        column_map.write_text(json.dumps({"item_id": "item_id"}))
        calls = []

        def counted(path):
            calls.append(path)
            return datasets.load_column_map(path)

        monkeypatch.setattr(cli, "load_column_map", counted)
        args = [a.format(items=items, duels=duels, tags=tags) for a in command]
        rc = main([*args, "--column-map", str(column_map),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        assert calls == [str(column_map)]

    def test_bias_full_report(self, paths):
        (items, duels, tags), tmp_path = paths
        rc = main(
            [
                "bias",
                "--items", items,
                "--duels", duels,
                "--tags", tags,
                "--bootstrap", "100",
                "--unit", "item",
                "--output-dir", str(tmp_path / "bias"),
            ]
        )
        assert rc == 0
        report = json.load(open(tmp_path / "bias" / "report.json"))
        assert set(report["tournaments"]) == {
            f"{c}/{d}" for c in CATEGORIES for d in DIMENSIONS
        }

    def test_duelstats(self, paths):
        (_, duels, _), tmp_path = paths
        rc = main(
            ["duelstats", "--duels", duels, "--output-dir", str(tmp_path / "ds")]
        )
        assert rc == 0
        payload = json.load(open(tmp_path / "ds" / "duelstats.json"))
        assert set(payload) == set(DIMENSIONS)
        for dim in DIMENSIONS:
            assert 0.0 <= payload[dim]["win_fraction"]["fraction"] <= 1.0

    def test_tags(self, paths):
        (items, _, tags), tmp_path = paths
        rc = main(
            [
                "tags",
                "--tags", tags,
                "--items", items,
                "--min-count", "1",
                "--output-dir", str(tmp_path / "tags"),
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "tags" / "distinctive_tags.csv")))
        assert rows
        # normalization applied before counting
        assert all(r["tag"] != "looks tasty" for r in rows)
        assert any(r["tag"] == "mouth-watering" for r in rows)

    def test_freq(self, paths):
        (items, _, _), tmp_path = paths
        rc = main(["freq", "--items", items, "--output-dir", str(tmp_path / "fr")])
        assert rc == 0
        payload = json.load(open(tmp_path / "fr" / "frequency.json"))
        assert set(payload["categories"]) == set(CATEGORIES)

    def test_env_var_sets_output_dir(self, paths, monkeypatch):
        (items, _, _), tmp_path = paths
        target = tmp_path / "envout"
        monkeypatch.setenv("DUELBIAS_OUTPUT_DIR", str(target))
        rc = main(["freq", "--items", items])
        assert rc == 0
        assert (target / "frequency.json").exists()

    def test_config_file_provides_defaults(self, paths):
        (items, duels, _), tmp_path = paths
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"alpha": 0.5, "tolerance": 1e-6}))
        rc = main(
            [
                "fit",
                "--items", items,
                "--duels", duels,
                "--config", str(cfg),
                "--output-dir", str(tmp_path / "cfgfit"),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("command", ["fit", "bias"])
    def test_help_names_fit_defaults(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo the wrapping
        assert "(default 1e-08)" in text
        assert "(default 10000)" in text

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["freq", "--items", str(tmp_path / "nope.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_validation_error_exits_2(self, paths, capsys):
        (items, duels, _), tmp_path = paths
        rc = main(
            [
                "fit",
                "--items", items,
                "--duels", duels,
                "--category", "sushi",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("replicates", ["50", "0", "-5"])
    def test_too_few_item_bootstrap_replicates_exit_2(
        self, paths, capsys, replicates
    ):
        (items, duels, _), tmp_path = paths
        rc = main(
            [
                "bias",
                "--items", items,
                "--duels", duels,
                "--bootstrap", replicates,
                "--unit", "item",
                "--output-dir", str(tmp_path / "few"),
            ]
        )
        assert rc == 2
        assert "at least 100 replicates" in capsys.readouterr().err

    def test_unknown_bootstrap_unit_exits_2(self, paths, capsys):
        (items, duels, _), tmp_path = paths
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"unit": "dule"}))
        out = tmp_path / "unit"
        rc = main(
            ["bias", "--items", items, "--duels", duels, "--config", str(cfg),
             "--bootstrap", "100", "--output-dir", str(out)]
        )
        assert rc == 2
        assert "'dule'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (["simulate", "--budgets", "100,x"], None,
             "budgets: expected int, got 'x'"),
            (["bias"], {"bootstrap": "abc"}, "bootstrap: expected int, got 'abc'"),
            (["simulate"], {"budgets": ["100", "x"]}, "budgets: expected int, got 'x'"),
            (["bias"], {"bootstrap": 150.9}, "bootstrap: expected int, got 150.9"),
            (["bias"], {"seed": True}, "seed: expected int, got True"),
            (["bias", "--bootstrap", "150.9"], None,
             "bootstrap: expected int, got '150.9'"),
            (["bias"], {"alpha": 10**400}, f"alpha: expected float, got {10**400}"),
        ],
        ids=["simulate-budgets", "bias-config", "simulate-budgets-list",
             "bias-fractional-config", "bias-bool-config", "bias-fractional-flag",
             "bias-huge-int-config"],
    )
    def test_value_that_does_not_convert_exits_2(
        self, paths, capsys, command, config, message
    ):
        (items, duels, _), tmp_path = paths
        args = list(command)
        if command[0] == "bias":
            args += ["--items", items, "--duels", duels]
        if config is not None:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main([*args, "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [(["--alpha", "-0"], None), ([], {"alpha": -0.0}), ([], {"alpha": 0})],
        ids=["negative-zero-flag", "negative-zero-config", "int-config"],
    )
    def test_float_settings_write_as_the_flag(self, tmp_path, flags, config):
        # the report of --alpha 0: -0.0 is 0.0, and an int a float. Every
        # item wins and loses, so the fit without regularization converges.
        catalog = ItemCatalog(
            [ItemRecord(f"{g.lower()}{i}", g, "pizza") for g in "AB" for i in range(2)]
        )
        pairs = [(a, b, w) for a in ("a0", "a1") for b in ("b0", "b1") for w in "AB"]
        duels = [
            DuelRecord(f"d{k}", "pizza", "tasty", a, b, winner, "r1")
            for k, (a, b, winner) in enumerate(pairs)
        ]
        items, duels, _ = write_fixture(tmp_path, catalog, duels, [])
        common = ["bias", "--items", items, "--duels", duels, "--bootstrap", "100",
                  "--unit", "item"]
        assert main([*common, "--alpha", "0", "--output-dir", str(tmp_path / "a")]) == 0
        args = [*common, *flags, "--output-dir", str(tmp_path / "b")]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "config.json")]
        assert main(args) == 0
        report = (tmp_path / "b" / "report.json").read_text()
        assert '"regularization_alpha": 0.0,' in report
        assert report == (tmp_path / "a" / "report.json").read_text()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["fit", *FIT_ARGS, "--tolerance", "inf"],
             "tolerance must be finite and positive"),
            (["bias", *BIAS_ARGS, "--tolerance", "inf", "--dimension", "tasty"],
             "tolerance must be finite and positive"),
            (["bias", *BIAS_ARGS, "--alpha", "nan"],
             "regularization_alpha must be finite and nonnegative"),
            (["bias", *BIAS_ARGS, "--alpha", "inf"],
             "regularization_alpha must be finite and nonnegative"),
            (["simulate", *SIMULATE_ARGS, "--budgets", "8", "--rater-noise", "nan"],
             "rater_noise_scale must be finite and nonnegative"),
            (["simulate", *SIMULATE_ARGS, "--config", "{tmp}/budgets.json"],
             "at least one budget is required"),
            (["simulate", *SIMULATE_ARGS, "--budgets", "8", "--seed", "-1"],
             "seed must be >= 0"),
            (["design", "--items", "{items}", "--duels-per-item", "2", "--seed", "-1"],
             "seed must be >= 0"),
            (["bias", *BIAS_ARGS, "--config", "{tmp}/malformed.json"],
             "malformed.json: not valid JSON"),
            (["fit", *FIT_ARGS, "--column-map", "{tmp}/malformed.json"],
             "malformed.json: not valid JSON"),
            (["freq", "--items", "{tmp}"], "Is a directory"),
            (["tags", "--items", "{items}", "--tags", "{tmp}/latin1.csv"],
             "latin1.csv: not UTF-8 text"),
            (["freq", "--items", "{tmp}/latin1.csv"], "latin1.csv: not UTF-8 text"),
            (["simulate", *SIMULATE_ARGS, "--config", "{tmp}/latin1.json"],
             "latin1.json: not UTF-8 text"),
            (["fit", *FIT_ARGS, "--column-map", "{tmp}/latin1.json"],
             "latin1.json: not UTF-8 text"),
            (["tags", *TAGS_ARGS, "--stopwords", "{tmp}/latin1.txt"],
             "latin1.txt: not UTF-8 text"),
            (["tags", *TAGS_ARGS, "--lexicon", "{tmp}/latin1.txt"],
             "latin1.txt: not UTF-8 text"),
            (["tags", *TAGS_ARGS, "--top-k", "0"], "top_k must be >= 1, got 0"),
            (["tags", *TAGS_ARGS, "--top-k", "-1"], "top_k must be >= 1, got -1"),
            (["bias", *FIT_ARGS, "--unit", "duel", "--bootstrap", "50"],
             "bootstrap needs at least 100 replicates"),
            (["bias", *BIAS_ARGS, "--seed", "-1"],
             "seed must be in [0, 2**31), got -1"),
            (["bias", *BIAS_ARGS, "--seed", "2147483648"],
             "seed must be in [0, 2**31), got 2147483648"),
        ],
        ids=["fit-tolerance-inf", "bias-tolerance-inf", "bias-alpha-nan",
             "bias-alpha-inf", "simulate-rater-noise-nan", "simulate-no-budgets",
             "simulate-negative-seed", "design-negative-seed", "malformed-config",
             "malformed-column-map", "items-directory", "non-utf8-tags",
             "non-utf8-items", "non-utf8-config", "non-utf8-column-map",
             "non-utf8-stopwords", "non-utf8-lexicon", "tags-top-k-0",
             "tags-top-k-negative", "bias-duel-bootstrap-50", "bias-negative-seed",
             "bias-seed-2-to-the-31"],
    )
    def test_bad_setting_or_unreadable_input_exits_2(
        self, paths, capsys, command, message
    ):
        (items, duels, tags), tmp_path = paths
        (tmp_path / "budgets.json").write_text(json.dumps({"budgets": []}))
        (tmp_path / "malformed.json").write_text('{"alpha": 0.5,')
        # byte 0xff never occurs in UTF-8
        (tmp_path / "latin1.csv").write_bytes(b"item_id,group,category\nx\xff,A,p\n")
        (tmp_path / "latin1.json").write_bytes(b'{"seed": "\xff"}')
        (tmp_path / "latin1.txt").write_bytes(b"\xff\tthe\n")
        args = [
            a.format(items=items, duels=duels, tags=tags, tmp=tmp_path)
            for a in command
        ]
        out = tmp_path / "out"
        assert main([*args, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            (["bias", "--bootstrap", "50"], "bootstrap needs at least 100 replicates"),
            (["bias", "--unit", "item", "--alpha", "-1"],
             "regularization_alpha must be finite and nonnegative"),
            (["fit", "--tolerance", "0"], "tolerance must be finite and positive"),
        ],
        ids=["bias-bootstrap-50", "bias-alpha-negative", "fit-tolerance-0"],
    )
    def test_bad_setting_wins_over_unreadable_input(
        self, tmp_path, capsys, monkeypatch, command, message
    ):
        # no input is opened: neither the missing files nor the parser
        def unread(*args, **kwargs):
            raise AssertionError("input parsed before the settings were checked")

        for name in ("parse_items", "parse_duels", "parse_tags", "load_column_map"):
            monkeypatch.setattr(cli, name, unread)
        missing = str(tmp_path / "missing.csv")
        args = [*command, "--items", missing, "--duels", missing,
                "--column-map", missing, "--output-dir", str(tmp_path / "out")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, config, unknown",
        [
            (["bias"], {"bootsrap": 150, "sede": 3}, "bootsrap"),
            (["bias", "--seed", "2"], {"seed": 1, "category": "pizza"}, "category"),
            (["fit"], {"alpha": 0.5, "unit": "item"}, "unit"),
            (["fit"], {"max-iterations": 5}, "max-iterations"),
            (["simulate"], {"seed": 3, "bootstrap": 150}, "bootstrap"),
            (["simulate", "--rater-noise", "0.3"], {"rater-noise": 0.3}, "rater-noise"),
        ],
        ids=["bias-typos", "bias-unread-key", "fit-bias-key", "fit-dashed-key",
             "simulate-bias-key", "simulate-dashed-key"],
    )
    def test_unknown_config_setting_exits_2_before_any_input(
        self, tmp_path, capsys, monkeypatch, command, config, unknown
    ):
        def unread(*args, **kwargs):
            raise AssertionError("input parsed before the settings were checked")

        for name in ("parse_items", "parse_duels", "parse_tags", "load_column_map",
                     "simulate_rank_recovery"):
            monkeypatch.setattr(cli, name, unread)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args = [*command, "--config", str(cfg), "--output-dir", str(tmp_path / "out")]
        if command[0] != "simulate":
            missing = str(tmp_path / "missing.csv")
            args += ["--items", missing, "--duels", missing, "--column-map", missing]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown setting {unknown!r}\n"
        assert not (tmp_path / "out").exists()

    def test_bias_run_leaves_numpy_ma_unloaded(self, paths):
        # np.percentile and np.median import numpy.ma: 1 MiB and 10 ms a run
        (items, duels, tags), tmp_path = paths
        script = (
            "import sys; from duelbias.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for unit in ("duel", "item"):
            done = subprocess.run(
                [sys.executable, "-c", script, "bias", "--items", items, "--duels",
                 duels, "--tags", tags, "--unit", unit, "--bootstrap", "100",
                 "--output-dir", str(tmp_path / unit)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.stdout.splitlines()[-1] == "0 False", done.stderr

    @pytest.mark.parametrize(
        "command, message",
        [
            (["tags", "--tags", "{missing}", "--top-k", "0"],
             "top_k must be >= 1, got 0"),
            (["design", "--duels-per-item", "-3"], "duels_per_item must be >= 1"),
            (["design", "--duels-per-item", "2", "--seed", "-1"],
             "seed must be >= 0"),
        ],
        ids=["tags-top-k-0", "design-duels-per-item-negative", "design-seed-negative"],
    )
    def test_tags_and_design_setting_wins_over_missing_input(
        self, tmp_path, capsys, command, message
    ):
        missing = str(tmp_path / "missing.csv")
        args = [a.format(missing=missing) for a in command]
        out = tmp_path / "out"
        rc = main([*args, "--items", missing, "--column-map", missing,
                   "--output-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, rc, numpy_loaded",
        [
            (["tags", "--items", "{items}", "--tags", "{tags}", "--min-count", "1",
              "--output-dir", "{out}"], 0, False),
            (["--help"], 0, False),
            (["tags", "--items", "{items}", "--tags", "{tags}", "--top-k", "0"],
             2, False),
            (["tags", "--items", "{items}"], 2, False),  # --tags missing
            (["bias", "--items", "{items}", "--duels", "{duels}", "--tags", "{tags}",
              "--unit", "item", "--bootstrap", "100", "--output-dir", "{out}"],
             0, True),
        ],
        ids=["tags", "help", "tags-bad-setting", "argument-error", "bias"],
    )
    def test_numpy_loaded_only_by_numeric_commands(
        self, paths, command, rc, numpy_loaded
    ):
        (items, duels, tags), tmp_path = paths
        script = (
            "import sys\n"
            "try:\n"
            "    from duelbias.cli import main\n"
            "    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "print(rc, 'numpy' in sys.modules)\n"
        )
        args = [a.format(items=items, duels=duels, tags=tags, out=tmp_path / "out")
                for a in command]
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert done.stdout.splitlines()[-1] == f"{rc} {numpy_loaded}", done.stderr

    @pytest.mark.parametrize(
        "command, layers",
        [
            (["simulate", "--items", "8", "--budgets", "8,16", "--replicates", "1"],
             "choice_model tournament"),
            (["design", "--items", "{items}", "--duels-per-item", "2"],
             "choice_model tournament"),
            (["bias", "--items", "{items}", "--duels", "{duels}", "--unit", "item",
              "--bootstrap", "100"],
             "bias choice_model duel_table pipeline stats"),
            (["bias", "--items", "{items}", "--duels", "{duels}", "--tags", "{tags}",
              "--unit", "item", "--bootstrap", "100"],
             "bias choice_model duel_table pipeline stats tags"),
            (["fit", "--items", "{items}", "--duels", "{duels}"],
             "bias choice_model duel_table pipeline stats"),
            (["tags", "--items", "{items}", "--tags", "{tags}", "--min-count", "1"],
             "stats tags"),
        ],
        ids=["simulate", "design", "bias", "bias-tags", "fit", "tags"],
    )
    def test_each_command_loads_only_its_layers(self, paths, command, layers):
        # a fresh interpreter: every duelbias module loaded is one main() ran
        (items, duels, tags), tmp_path = paths
        script = (
            "import sys\n"
            "from duelbias.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('duelbias.'))\n"
            "print(rc, *(m.removeprefix('duelbias.') for m in loaded))\n"
        )
        args = [a.format(items=items, duels=duels, tags=tags) for a in command]
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, *args, "--output-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        always = "cli datasets errors records settings".split()
        want = " ".join(sorted([*always, *layers.split()]))
        assert done.stdout.splitlines()[-1] == f"0 {want}", done.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--items", "8", "--budgets", "8,16", "--replicates", "1"],
            ["design", "--items", "{items}", "--duels-per-item", "2"],
            ["fit", "--items", "{items}", "--duels", "{duels}"],
            ["bias", "--items", "{items}", "--duels", "{duels}", "--tags", "{tags}",
             "--unit", "item", "--bootstrap", "100"],
            ["duelstats", "--duels", "{duels}"],
            ["freq", "--items", "{items}"],
            ["tags", "--items", "{items}", "--tags", "{tags}", "--min-count", "1"],
            ["--help"],
        ],
        ids=["simulate", "design", "fit", "bias", "duelstats", "freq", "tags", "help"],
    )
    def test_no_command_loads_dataclasses(self, paths, command):
        # the value types generate no code at import, so neither dataclasses
        # nor, where numpy (which loads it) stays out, inspect is imported
        (items, duels, tags), tmp_path = paths
        script = (
            "import sys\n"
            "try:\n"
            "    from duelbias.cli import main\n"
            "    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "loaded = sys.modules\n"
            "print(rc, 'dataclasses' in loaded,\n"
            "      'inspect' in loaded and 'numpy' not in loaded)\n"
        )
        args = [a.format(items=items, duels=duels, tags=tags) for a in command]
        if command != ["--help"]:
            args += ["--output-dir", str(tmp_path)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "0 False False", done.stderr

    @pytest.mark.parametrize(
        "command, rc",
        [
            (["tags", "--items", "{items}", "--tags", "{tags}", "--min-count", "1",
              "--output-dir", "{out}"], 0),
            (["bias", "--items", "{items}", "--duels", "{duels}", "--unit", "item",
              "--bootstrap", "100", "--output-dir", "{out}"], 0),
            (["bias", "--items", "{items}", "--duels", "{duels}", "--bootstrap",
              "99"], 2),
            (["--help"], 0),
        ],
        ids=["tags", "bias", "bias-bad-setting", "help"],
    )
    def test_heap_is_frozen_at_exit(self, paths, command, rc):
        # atexit runs its handlers last in, first out: a probe registered
        # before main() runs after the hook main() registers
        (items, duels, tags), tmp_path = paths
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from duelbias.cli import main\n"
            "try:\n"
            "    rc = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    rc = exc.code\n"
            "print('exit', rc)\n"
        )
        args = [a.format(items=items, duels=duels, tags=tags, out=tmp_path / "out")
                for a in command]
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        *printed, ended, probe = done.stdout.splitlines()
        assert [ended, probe] == [f"exit {rc}", "frozen True"], done.stderr
        if "--output-dir" in command:  # it printed the paths it wrote
            assert printed and all(os.path.getsize(path) for path in printed)

    def test_repeated_main_registers_one_exit_hook(self, paths):
        (items, _, tags), tmp_path = paths
        script = (
            "import atexit, sys\n"
            "from duelbias.cli import main\n"
            "before = atexit._ncallbacks()\n"
            "for _ in range(3):\n"
            "    main(sys.argv[1:])\n"
            "print(atexit._ncallbacks() - before)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, "tags", "--items", items, "--tags", tags,
             "--min-count", "1", "--output-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "1", done.stderr

    def test_main_leaves_the_heap_unfrozen(self, paths, capsys):
        # the freeze waits for interpreter exit, so an in-process caller's
        # heap is collected as before
        (items, duels, _), tmp_path = paths
        assert gc.get_freeze_count() == 0
        assert main(["bias", "--items", items, "--duels", duels, "--unit", "item",
                     "--bootstrap", "100", "--output-dir", str(tmp_path)]) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("timeout", [None, "30"], ids=["unset", "user-set"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--items", "8", "--budgets", "8,16", "--replicates", "1"],
            ["fit", "--items", "{items}", "--duels", "{duels}"],
            ["bias", "--items", "{items}", "--duels", "{duels}", "--unit", "item",
             "--bootstrap", "100"],
            ["tags", "--items", "{items}", "--tags", "{tags}", "--min-count", "1"],
        ],
        ids=["simulate", "fit", "bias", "tags"],
    )
    def test_blas_thread_timeout_when_numpy_loads(self, paths, command, timeout):
        # a meta_path probe reads the variable as numpy's first import starts;
        # importing the CLI leaves the environment as it was
        (items, duels, tags), tmp_path = paths
        script = (
            "import os, sys\n"
            "class Probe:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "seen = []\n"
            "sys.meta_path.insert(0, Probe())\n"
            "before = dict(os.environ)\n"
            "from duelbias.cli import main\n"
            "imported = dict(os.environ) == before and 'numpy' not in sys.modules\n"
            "rc = main(sys.argv[1:])\n"
            "print(rc, imported, seen)\n"
        )
        args = [a.format(items=items, duels=duels, tags=tags) for a in command]
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop(cli.BLAS_TIMEOUT_ENV, None)
        if timeout is not None:
            env[cli.BLAS_TIMEOUT_ENV] = timeout
        done = subprocess.run(
            [sys.executable, "-c", script, *args, "--output-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        seen = [] if command[0] == "tags" else [timeout or "4"]
        assert done.stdout.splitlines()[-1] == f"0 True {seen}", done.stderr

    def test_main_leaves_the_environment_once_numpy_is_loaded(
        self, tmp_path, monkeypatch, capsys
    ):
        # too late for OpenBLAS, which read its settings as numpy loaded
        monkeypatch.delenv(cli.BLAS_TIMEOUT_ENV, raising=False)
        before = dict(os.environ)
        assert main(["simulate", "--items", "8", "--budgets", "8,16", "--replicates",
                     "1", "--output-dir", str(tmp_path)]) == 0
        assert dict(os.environ) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
    def test_blas_workers_stay_idle(self, tmp_path):
        # each thread's user and system CPU time at exit, from fields 14 and
        # 15 of its stat line; an OpenBLAS worker spinning after numpy's
        # import used about 0.07 s
        script = (
            "import os, sys\n"
            "from duelbias.cli import main\n"
            "main(sys.argv[1:])\n"
            "for tid in os.listdir('/proc/self/task'):\n"
            "    if int(tid) != os.getpid():\n"
            "        with open(f'/proc/self/task/{tid}/stat') as f:\n"
            "            fields = f.read().rsplit(')', 1)[1].split()\n"
            "        ticks = int(fields[11]) + int(fields[12])\n"
            "        print('thread', ticks / os.sysconf('SC_CLK_TCK'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(datasets.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
        env.pop(cli.BLAS_TIMEOUT_ENV, None)
        done = subprocess.run(
            [sys.executable, "-c", script, "simulate", "--items", "8", "--budgets",
             "8,16", "--replicates", "1", "--output-dir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        used = [float(line.split()[1]) for line in done.stdout.splitlines()
                if line.startswith("thread ")]
        if not used:
            pytest.skip("the process started no second thread")
        assert max(used) < 0.03, used

    @pytest.mark.parametrize("read_first", [True, False], ids=["setattr", "setitem"])
    @pytest.mark.parametrize(
        "module, names, command",
        [
            ("pipeline", ("run_pipeline", "write_report_bundle"),
             ["bias", "--items", "{items}", "--duels", "{duels}", "--unit", "item",
              "--bootstrap", "100"]),
            ("tournament", ("simulate_rank_recovery",),
             ["simulate", "--items", "8", "--budgets", "8,16", "--replicates", "1"]),
        ],
        ids=["bias", "simulate"],
    )
    def test_wrapper_set_on_cli_before_main_is_called(
        self, paths, monkeypatch, module, names, command, read_first
    ):
        # as bench/traced.py does: a wrapper is set on duelbias.cli from
        # outside, either after reading the name there (which binds the
        # numeric names) or straight into a module that has bound none yet
        (items, duels, _), tmp_path = paths
        for module_names in cli._NUMERIC.values():
            for name in module_names:
                monkeypatch.delitem(vars(cli), name, raising=False)
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(importlib.import_module(f"duelbias.{module}"), name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            if read_first:
                monkeypatch.setattr(cli, name, counted)
            else:
                monkeypatch.setitem(vars(cli), name, counted)
        args = [a.format(items=items, duels=duels) for a in command]
        for run in (1, 2):
            assert main([*args, "--output-dir", str(tmp_path / f"out{run}")]) == 0
            assert calls == dict.fromkeys(names, run)

    @pytest.mark.parametrize("command", ["bias", "fit"])
    def test_duel_item_of_another_category_exits_2(
        self, fixture_data, tmp_path, capsys, command
    ):
        catalog, duels, _ = fixture_data
        duels = duels + [
            DuelRecord("dx", "pizza", "tasty", "a-pizza-0", "b-salad-0", "B", "r1")
        ]
        items, duels_path, _ = write_fixture(tmp_path, catalog, duels, [])
        out = tmp_path / "out"
        args = ["--items", items, "--duels", duels_path, "--output-dir", str(out)]
        assert main([command, *args]) == 2
        err = capsys.readouterr().err
        assert "duel 'dx' has category 'pizza'" in err
        assert "catalogued as 'salad'" in err
        assert not out.exists()

    def test_tournament_error_keeps_type_and_attributes(self, tmp_path, capsys):
        # b2 is never compared: unidentifiable under alpha=0
        catalog = ItemCatalog(
            [
                ItemRecord("a1", "A", "pizza", None),
                ItemRecord("b1", "B", "pizza", None),
                ItemRecord("b2", "B", "pizza", None),
            ]
        )
        duels = [
            DuelRecord("d0", "pizza", "tasty", "a1", "b1", "B", "r1"),
            DuelRecord("d1", "pizza", "tasty", "a1", "b1", "A", "r1"),
        ]
        config = AnalysisConfig(
            bootstrap_replicates=100,
            bootstrap_unit="item",
            fit=FitConfig(regularization_alpha=0.0),
        )
        with pytest.raises(UnidentifiableItemsError) as info:
            run_pipeline(config, catalog, duels)
        assert info.value.item_ids == ("b2",)
        message = (
            "category 'pizza', dimension 'tasty': items appear in no duel and "
            "cannot be identified without regularization: b2"
        )
        assert str(info.value) == message

        items_path = tmp_path / "items.csv"
        duels_path = tmp_path / "duels.csv"
        write_items(items_path, catalog)
        write_duels(duels_path, duels)
        rc = main(
            [
                "bias",
                "--items", str(items_path),
                "--duels", str(duels_path),
                "--alpha", "0",
                "--unit", "item",
                "--bootstrap", "100",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _separated_groups():
        """a1 and a2 beat b1 and b2 in every duel: under alpha=0 the
        likelihood has no maximizer, so the fit cannot converge."""
        catalog = ItemCatalog(
            [
                ItemRecord(i, i[0].upper(), "pizza", None)
                for i in ("a1", "a2", "b1", "b2")
            ]
        )
        duels = [
            DuelRecord(f"d{k}", "pizza", "tasty", a, b, "A", "r1")
            for k, (a, b) in enumerate(
                [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2")] * 3
            )
        ]
        return catalog, duels

    def test_unconverged_fit_exits_3(self, tmp_path, capsys):
        # no score bias can be reported without a converged fit
        catalog, duels = self._separated_groups()
        config = AnalysisConfig(
            bootstrap_replicates=100,
            bootstrap_unit="item",
            fit=FitConfig(regularization_alpha=0.0),
        )
        with pytest.raises(NumericalError):
            run_pipeline(config, catalog, duels)

        items_path = tmp_path / "items.csv"
        duels_path = tmp_path / "duels.csv"
        write_items(items_path, catalog)
        write_duels(duels_path, duels)
        rc = main(
            [
                "bias",
                "--items", str(items_path),
                "--duels", str(duels_path),
                "--alpha", "0",
                "--unit", "item",
                "--bootstrap", "100",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: category 'pizza', dimension 'tasty': ")
        assert "did not converge" in err
        assert not (tmp_path / "x" / "report.json").exists()

    def test_fit_command_writes_no_unconverged_scores(self, tmp_path, capsys):
        catalog, duels = self._separated_groups()
        items_path = tmp_path / "items.csv"
        duels_path = tmp_path / "duels.csv"
        write_items(items_path, catalog)
        write_duels(duels_path, duels)
        out = tmp_path / "x"
        rc = main(
            [
                "fit",
                "--items", str(items_path),
                "--duels", str(duels_path),
                "--alpha", "0",
                "--output-dir", str(out),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: category 'pizza', dimension 'tasty': ")
        assert "did not converge" in err
        assert not (out / "scores.csv").exists()
        assert not (out / "fit_diagnostics.json").exists()

    def test_unconverged_refits_count_as_failed_replicates(self, tmp_path, capsys):
        # one win each way: half of the duel resamples have one winner only,
        # so under alpha=0 their refits cannot converge
        catalog = ItemCatalog(
            [
                ItemRecord("a1", "A", "pizza", None),
                ItemRecord("b1", "B", "pizza", None),
            ]
        )
        duels = [
            DuelRecord("d0", "pizza", "tasty", "a1", "b1", "A", "r1"),
            DuelRecord("d1", "pizza", "tasty", "a1", "b1", "B", "r1"),
        ]
        items_path = tmp_path / "items.csv"
        duels_path = tmp_path / "duels.csv"
        write_items(items_path, catalog)
        write_duels(duels_path, duels)
        rc = main(
            [
                "bias",
                "--items", str(items_path),
                "--duels", str(duels_path),
                "--alpha", "0",
                "--unit", "duel",
                "--bootstrap", "100",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        assert "bootstrap replicates failed" in capsys.readouterr().err

    def test_tags_and_bias_write_one_tag_table_layout(self, paths):
        (items, duels, tags), tmp_path = paths
        assert main(
            ["tags", "--tags", tags, "--items", items, "--min-count", "1",
             "--output-dir", str(tmp_path / "tags")]
        ) == 0
        assert main(
            ["bias", "--items", items, "--duels", duels, "--tags", tags,
             "--bootstrap", "100", "--unit", "item",
             "--output-dir", str(tmp_path / "bias")]
        ) == 0
        headers = [
            next(csv.reader(open(tmp_path / out / "distinctive_tags.csv")))
            for out in ("tags", "bias")
        ]
        assert headers[0] == headers[1]
        assert "p" in headers[0]
        # bias --tags ranks with the tags command's default settings
        assert main(
            ["tags", "--tags", tags, "--items", items,
             "--output-dir", str(tmp_path / "tags-default")]
        ) == 0
        tables = [
            (tmp_path / out / "distinctive_tags.csv").read_bytes()
            for out in ("tags-default", "bias")
        ]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("fault", ["unknown-item", "one-tag", "one-group"])
    @pytest.mark.parametrize("command", ["tags", "bias"])
    def test_bad_tag_log_exits_2(self, fixture_data, tmp_path, capsys, command, fault):
        catalog, duels, tags = fixture_data
        if fault == "unknown-item":
            tags = tags + [TagRecord("t1", "ghost", "r1", "fresh")]
            message = "duel 't1' references unknown item 'ghost'"
        elif fault == "one-group":
            tags = [t for t in tags if t.item_id.startswith("a-")]
            message = "tags must cover items from both groups"
        else:
            # every tag of both groups is one tag: it has no chi-square test
            tags = [
                TagRecord(f"t{k}", f"{g}-pizza-0", "r1", "fresh")
                for g in "ab"
                for k in range(6)
            ]
            message = "tag 'fresh'"
        items, duels_path, tags_path = write_fixture(tmp_path, catalog, duels, tags)
        args = ["--tags", tags_path, "--items", items]
        if command == "bias":
            args += ["--duels", duels_path, "--bootstrap", "100", "--unit", "item"]
        rc = main([command, *args, "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["design", "--items", "i.csv", "--duels-per-item", "2"], "--config"),
            (["duelstats", "--duels", "d.csv"], "--config"),
            (["tags", "--items", "i.csv", "--tags", "t.csv"], "--config"),
            (["freq", "--items", "i.csv"], "--config"),
            (["simulate"], "--column-map"),
        ],
        ids=["design", "duelstats", "tags", "freq", "simulate"],
    )
    def test_flag_the_command_would_not_read_rejected(
        self, tmp_path, capsys, command, flag
    ):
        # the flag names a file that does not exist, which a command that
        # accepted the flag and ignored it would never notice
        with pytest.raises(SystemExit) as exc:
            main(command + [flag, str(tmp_path / "nope.json")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_numerical_error_exits_3(self, tmp_path, capsys):
        # one item never compared: unidentifiable under alpha=0
        items = [
            ItemRecord("a1", "A", "pizza", None),
            ItemRecord("a2", "A", "pizza", None),
            ItemRecord("b1", "B", "pizza", None),
        ]
        duels = [
            DuelRecord("d0", "pizza", "tasty", "a1", "b1", "B", "r1"),
            DuelRecord("d1", "pizza", "tasty", "a1", "b1", "A", "r1"),
        ]
        items_path = tmp_path / "items.csv"
        duels_path = tmp_path / "duels.csv"
        write_items(items_path, ItemCatalog(items))
        write_duels(duels_path, duels)
        rc = main(
            [
                "fit",
                "--items", str(items_path),
                "--duels", str(duels_path),
                "--alpha", "0",
                "--output-dir", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        assert "error:" in capsys.readouterr().err
