"""duelbias: measure bias between two item populations from pairwise duels.

The public names below are loaded on first use (PEP 562), so that
``import duelbias.cli`` and the ``duelbias tags`` command do not import the
numeric modules, and numpy with them.
"""

from __future__ import annotations

import importlib

__version__ = "0.2.0"

# public name -> the module that defines it, names sorted
_EXPORTS = {
    "AnalysisConfig": "pipeline",
    "ComparisonGraph": "choice_model",
    "DuelRecord": "records",
    "FitConfig": "settings",
    "FrequencyComparison": "bias",
    "ItemCatalog": "records",
    "ItemRecord": "records",
    "PValue": "stats",
    "RankCurvePoint": "bias",
    "RecoveryCurve": "tournament",
    "SchedulePlan": "tournament",
    "ScoreTable": "choice_model",
    "TagDistribution": "tags",
    "TagRecord": "records",
    "binomial_two_sided": "stats",
    "bootstrap_ci": "bias",
    "chi_square_2x2": "stats",
    "distinctive_tags": "tags",
    "duel_win_fraction": "bias",
    "fit": "choice_model",
    "frequency_divergence": "bias",
    "log_likelihood": "choice_model",
    "median_percentile_rank": "bias",
    "normalize_tag": "tags",
    "pearson": "stats",
    "pointwise_kl": "tags",
    "rank_curve": "bias",
    "rater_macro_average": "bias",
    "run_pipeline": "pipeline",
    "sample_balanced_duels": "tournament",
    "score_bias": "bias",
    "score_correlations": "bias",
    "simulate_rank_recovery": "tournament",
    "spearman": "stats",
    "triangle_lower_bound": "bias",
    "win_probability": "choice_model",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
