"""The keys of report.json's blocks and the headers of the CSV files, pinned
on the README demo set (generator seed 0). These blocks and headers are
built from the fields of the value types, so renaming a field shows up
here as a change of the output schema."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from duelbias.datasets import parse_duels, parse_items, parse_tags
from duelbias.errors import ValidationError
from duelbias.pipeline import (
    AnalysisConfig,
    dump_report,
    run_pipeline,
    write_report_bundle,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
GENERATOR = os.path.join(ROOT, "scripts", "generate_synthetic_dataset.py")

WIN_FRACTION_KEYS = {"fraction", "wins", "n", "p"}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo set's directory, written by the generator through
    ``write_items``, ``write_duels`` and ``write_tags``."""
    out = tmp_path_factory.mktemp("demo")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, GENERATOR, "--out", str(out), "--seed", "0"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
    return out


def _report(demo, config):
    catalog = parse_items(demo / "items.csv")
    return run_pipeline(config, catalog, parse_duels(demo / "duels.csv", catalog),
                        parse_tags(demo / "tags.csv"))


@pytest.fixture(scope="module")
def bundle(demo):
    config = AnalysisConfig(bootstrap_replicates=100, bootstrap_unit="item", seed=3)
    return _report(demo, config)


def _header(path):
    with open(path, encoding="utf-8", newline="") as f:
        return next(csv.reader(f))


def test_config_block(bundle):
    assert json.loads(dump_report(bundle))["config"] == {
        "dimensions": None,
        "categories": None,
        "bootstrap_replicates": 100,
        "bootstrap_unit": "item",
        "seed": 3,
        "fit": {
            "max_iterations": 10_000,
            "tolerance": 1e-8,
            "regularization_alpha": 0.1,
            "normalization": "geometric-mean-one",
        },
    }


def test_win_fraction_blocks(bundle):
    assert set(bundle["tournaments"]) == {
        f"{c}/{d}" for c in ("burger", "pizza", "salad") for d in ("healthy", "tasty")
    }
    for tournament in bundle["tournaments"].values():
        assert set(tournament["win_fraction"]) == WIN_FRACTION_KEYS
    assert set(bundle["pooled"]) == {"healthy", "tasty"}
    for pooled in bundle["pooled"].values():
        assert set(pooled["win_fraction"]) == WIN_FRACTION_KEYS


def test_pooled_blocks(bundle):
    for pooled in bundle["pooled"].values():
        assert set(pooled) == {
            "mean_category_bias", "mean_median_percentile", "triangle_lower_bound",
            "win_fraction", "rater_macro_mean", "rater_histogram",
        }
        for key in ("mean_category_bias", "mean_median_percentile",
                    "triangle_lower_bound"):
            assert set(pooled[key]) == {"point", "ci"}


def test_frequency_comparison_block(bundle):
    assert set(bundle["frequency_comparison"]) == {
        "categories", "freq_a", "freq_b", "ratio_b_over_a", "spearman_rho",
        "spearman_p",
    }


def test_distinctive_tag_rows(bundle):
    assert set(bundle["distinctive_tags"]) == {"A", "B"}
    for rows in bundle["distinctive_tags"].values():
        assert rows
        for row in rows:
            assert set(row) == {
                "tag", "kl", "count_target", "count_reference", "chi2", "p", "stars"
            }


def test_input_file_headers(demo):
    assert _header(demo / "items.csv") == [
        "item_id", "group", "category", "external_ref"
    ]
    assert _header(demo / "duels.csv") == [
        "duel_id", "category", "dimension", "item_a", "item_b", "winner", "rater_id"
    ]
    assert _header(demo / "tags.csv") == ["duel_id", "item_id", "rater_id", "raw_tag"]
    assert _header(demo / "truth.csv") == [
        "item_id", "group", "category", "log_quality"
    ]


def test_truth_file_lists_every_item_once(demo):
    with open(demo / "truth.csv", encoding="utf-8", newline="") as f:
        truth = list(csv.DictReader(f))
    catalog = parse_items(demo / "items.csv")
    assert [(r["item_id"], r["group"], r["category"]) for r in truth] == [
        (r.item_id, r.group, r.category) for r in catalog.records
    ]
    assert all(math.isfinite(float(r["log_quality"])) for r in truth)


def test_distinctive_tags_csv_header(bundle, tmp_path):
    write_report_bundle(bundle, str(tmp_path))
    assert _header(tmp_path / "distinctive_tags.csv") == [
        "group", "rank", "tag", "kl", "count_target", "count_reference", "chi2", "p",
        "stars",
    ]


def test_filters_given_as_lists_or_tuples_write_one_report(demo):
    reports = [
        dump_report(_report(demo, AnalysisConfig(
            dimensions=dimensions, categories=categories,
            bootstrap_replicates=100, bootstrap_unit="item",
        )))
        for dimensions, categories in ((["tasty"], ["pizza", "salad"]),
                                       (("tasty",), ("pizza", "salad")))
    ]
    assert reports[0] == reports[1]
    config = json.loads(reports[0])["config"]
    assert config["dimensions"] == ["tasty"]
    assert config["categories"] == ["pizza", "salad"]


def test_an_empty_filter_keeps_no_duel(demo):
    config = AnalysisConfig(dimensions=[], bootstrap_replicates=100,
                            bootstrap_unit="item")
    with pytest.raises(ValidationError, match="no duels left"):
        _report(demo, config)
