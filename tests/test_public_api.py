"""The package's public names, which ``duelbias/__init__.py`` loads on first
use (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import duelbias
from duelbias import choice_model, pipeline, tags, tournament

PUBLIC_NAMES = [
    "AnalysisConfig",
    "ComparisonGraph",
    "DuelRecord",
    "FitConfig",
    "FrequencyComparison",
    "ItemCatalog",
    "ItemRecord",
    "PValue",
    "RankCurvePoint",
    "RecoveryCurve",
    "SchedulePlan",
    "ScoreTable",
    "TagDistribution",
    "TagRecord",
    "binomial_two_sided",
    "bootstrap_ci",
    "chi_square_2x2",
    "distinctive_tags",
    "duel_win_fraction",
    "fit",
    "frequency_divergence",
    "log_likelihood",
    "median_percentile_rank",
    "normalize_tag",
    "pearson",
    "pointwise_kl",
    "rank_curve",
    "rater_macro_average",
    "run_pipeline",
    "sample_balanced_duels",
    "score_bias",
    "score_correlations",
    "simulate_rank_recovery",
    "spearman",
    "triangle_lower_bound",
    "win_probability",
]


def test_all_lists_the_public_names():
    assert duelbias.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_is_the_object_of_its_defining_module(name):
    value = getattr(duelbias, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_settings_keep_their_old_module_names():
    assert choice_model.FitConfig is duelbias.FitConfig
    assert pipeline.FitConfig is duelbias.FitConfig
    assert tournament.FitConfig is duelbias.FitConfig
    assert pipeline.BOOTSTRAP_UNITS == ("duel", "item")
    assert tournament.DEFAULT_BUDGETS == (100, 200, 500, 1000, 2000)
    assert (tags.DEFAULT_TOP_K, tags.DEFAULT_MIN_COUNT) == (20, 5)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from duelbias import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(duelbias, name) for name in PUBLIC_NAMES
    }


def test_dir_lists_the_names_before_any_is_loaded():
    # a fresh interpreter, so that no name has been looked up yet
    script = "import json, duelbias; print(json.dumps(dir(duelbias)))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(duelbias.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert set(PUBLIC_NAMES) <= set(json.loads(done.stdout)), done.stderr
    assert set(PUBLIC_NAMES) <= set(dir(duelbias))


@pytest.mark.parametrize("module", [duelbias, importlib.import_module("duelbias.cli")])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")
