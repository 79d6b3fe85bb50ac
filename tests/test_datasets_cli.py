import csv
import json
import os

import numpy as np
import pytest

from duelbias import tournament
from duelbias.choice_model import FitConfig
from duelbias.cli import main
from duelbias.datasets import (
    parse_duels,
    parse_items,
    parse_tags,
    write_duels,
    write_items,
    write_tags,
)
from duelbias.errors import (
    NumericalError,
    ParseError,
    ReferentialError,
    UnidentifiableItemsError,
    ValidationError,
)
from duelbias.pipeline import (
    AnalysisConfig,
    dump_report,
    fit_tournament,
    run_pipeline,
    write_report_bundle,
)
from duelbias.records import DuelRecord, ItemCatalog, ItemRecord, TagRecord


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
            assert pooled["pooled_score_bias"]["point"] > 0
            assert pooled["win_fraction"]["fraction"] > 0.5

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

    def test_median_percentile_ci_is_rank_curve_ci_at_50(self, fixture_data):
        catalog, duels, tags = fixture_data
        config = self.config()
        assert 50 in config.rank_grid
        bundle = run_pipeline(config, catalog, duels, tags)
        for t in bundle["tournaments"].values():
            (at_50,) = [p["ci"] for p in t["rank_curve"] if p["x"] == 50]
            assert t["median_percentile"]["ci"] == at_50

    def test_unknown_duel_item_rejected(self, fixture_data):
        catalog, duels, _ = fixture_data
        bad = duels + [
            DuelRecord("dx", "pizza", "tasty", "ghost", "b-pizza-0", "B", "r1")
        ]
        with pytest.raises(ReferentialError):
            run_pipeline(self.config(), catalog, bad)

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
        table = fit_tournament(
            catalog, duels, "pizza", "tasty", AnalysisConfig().fit
        )
        assert set(table.scores) == set(catalog.ids(category="pizza"))


class TestCLI:
    @pytest.fixture()
    def paths(self, fixture_data, tmp_path):
        catalog, duels, tags = fixture_data
        return write_fixture(tmp_path, catalog, duels, tags), tmp_path

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
