"""duelbias: measure bias between two item populations from pairwise duels."""

from .bias import (
    FrequencyComparison,
    RankCurvePoint,
    bootstrap_ci,
    duel_win_fraction,
    frequency_divergence,
    median_percentile_rank,
    rank_curve,
    rater_macro_average,
    score_bias,
    score_correlations,
    triangle_lower_bound,
)
from .choice_model import (
    ComparisonGraph,
    FitConfig,
    ScoreTable,
    fit,
    log_likelihood,
    win_probability,
)
from .pipeline import AnalysisConfig, run_pipeline
from .records import DuelRecord, ItemCatalog, ItemRecord, TagRecord
from .stats import PValue, binomial_two_sided, chi_square_2x2, pearson, spearman
from .tags import TagDistribution, distinctive_tags, normalize_tag, pointwise_kl
from .tournament import (
    RecoveryCurve,
    SchedulePlan,
    sample_balanced_duels,
    simulate_rank_recovery,
)

__version__ = "0.1.0"

__all__ = [
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
