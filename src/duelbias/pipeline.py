"""End-to-end analysis pipeline and deterministic report serialization."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import bias as bias_mod
from . import tags as tags_mod
from .choice_model import GEOMETRIC_MEAN_ONE, SUM_ONE, ComparisonGraph, FitConfig
from .choice_model import ScoreTable, fit, fit_duel_arrays
from .datasets import write_csv
from .errors import NumericalError, UnstableBootstrapError, ValidationError
from .records import GROUP_A, GROUP_B, CheckedDuels, DuelRecord, ItemCatalog
from .records import TagRecord
from .stats import PValue

# duel multiplicities held per block of refitted bootstrap replicates;
# bounds a block's working set at a few MiB for any tournament size
_REFIT_BLOCK_DUELS = 2**16
# resampled units of the per-tournament score-bias CI: duels (with refits) or items
BOOTSTRAP_UNITS = ("duel", "item")
# the rank-curve column whose CI is the median-percentile CI
_MEDIAN_COLUMN = bias_mod.DEFAULT_RANK_GRID.index(50)


@dataclass(frozen=True)
class AnalysisConfig:
    dimensions: tuple[str, ...] | None = None  # None: all present in the duels
    categories: tuple[str, ...] | None = None
    bootstrap_replicates: int = 1000
    bootstrap_unit: str = "duel"  # unit for the per-tournament score-bias CI
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.bootstrap_replicates < 100:
            raise ValidationError("bootstrap needs at least 100 replicates")
        if self.bootstrap_unit not in BOOTSTRAP_UNITS:
            raise ValidationError(
                f"bootstrap unit must be one of {', '.join(BOOTSTRAP_UNITS)}, "
                f"got {self.bootstrap_unit!r}"
            )


def pvalue_json(p: PValue) -> dict:
    if p.value is not None:
        return {"value": p.value}
    return {"log10": p.log10_value}


def win_fraction_json(wf: bias_mod.WinFraction) -> dict:
    return {
        "fraction": wf.fraction,
        "wins": wf.wins,
        "n": wf.n,
        "p": pvalue_json(wf.p_value),
    }


def duel_outcomes_json(
    wf: bias_mod.WinFraction, macro: bias_mod.RaterSummary
) -> dict:
    return {
        "win_fraction": win_fraction_json(wf),
        "rater_macro_mean": macro.macro_mean,
        "rater_histogram": [list(bin_) for bin_ in macro.histogram],
    }


def frequency_json(freq: bias_mod.FrequencyComparison) -> dict:
    return {
        "categories": list(freq.categories),
        "freq_a": list(freq.freq_a),
        "freq_b": list(freq.freq_b),
        "ratio_b_over_a": [
            None if math.isinf(x) else x for x in freq.ratio_b_over_a
        ],
        "spearman_rho": freq.spearman_rho,
        "spearman_p": (
            pvalue_json(freq.spearman_p) if freq.spearman_p is not None else None
        ),
    }


def _digest(lines: Sequence[str]) -> str:
    text = "".join(line + "\n" for line in lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_digests(
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    tags: Sequence[TagRecord] | None,
) -> dict[str, str]:
    items_lines = [
        f"{r.item_id},{r.group},{r.category},{r.external_ref or ''}"
        for r in catalog.records
    ]
    duel_lines = [
        f"{d.duel_id},{d.category},{d.dimension},{d.item_a},{d.item_b},"
        f"{d.winner},{d.rater_id}"
        for d in duels
    ]
    out = {"items": _digest(items_lines), "duels": _digest(duel_lines)}
    if tags is not None:
        out["tags"] = _digest(
            [f"{t.duel_id},{t.item_id},{t.rater_id},{t.raw_text}" for t in tags]
        )
    return out


@dataclass(frozen=True, eq=False)
class Tournament:
    """One (category, dimension) tournament: its duels in file order, its
    graph over the category's items in catalog order, and the graph indices
    of group A's items and of group B's."""

    category: str
    dimension: str
    duels: tuple[DuelRecord, ...]
    graph: ComparisonGraph
    groups: tuple[np.ndarray, np.ndarray]


def select_tournaments(
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    dimensions: Sequence[str] | None = None,
    categories: Sequence[str] | None = None,
) -> list[Tournament]:
    """Each (category, dimension) tournament with a dimension in
    ``dimensions`` and a category in ``categories`` (None: any), built once
    and in sorted order, from duels that pass ``catalog.check_duel``.
    Raises ValidationError if no duel is left."""
    by_pair: dict[tuple[str, str], list[DuelRecord]] = {}
    for d in duels:
        if (dimensions is None or d.dimension in dimensions) and (
            categories is None or d.category in categories
        ):
            by_pair.setdefault((d.category, d.dimension), []).append(d)
    if not by_pair:
        raise ValidationError("no duels left after applying the configured filters")
    tournaments = []
    for (category, dimension), pair_duels in sorted(by_pair.items()):
        items = catalog.ids(category=category)
        group = np.array([catalog.group_of(i) for i in items])
        pairs = [(d.winner_item, d.loser_item) for d in pair_duels]
        tournaments.append(Tournament(
            category, dimension, tuple(pair_duels),
            ComparisonGraph.from_pairs(pairs, items=items),
            (np.flatnonzero(group == GROUP_A), np.flatnonzero(group == GROUP_B)),
        ))
    return tournaments


def duels_by_dimension(duels: Iterable[DuelRecord]) -> dict[str, list[DuelRecord]]:
    """``duels`` grouped by dimension, in order; dimensions sorted."""
    by_dimension: dict[str, list[DuelRecord]] = {}
    for d in duels:
        by_dimension.setdefault(d.dimension, []).append(d)
    return dict(sorted(by_dimension.items()))


def _named(exc: Exception, tournament: Tournament) -> Exception:
    """``exc`` with its message prefixed by the tournament. The message is
    rewritten in place: a new instance would lose the type's own
    constructor arguments (e.g. item_ids)."""
    where = f"category {tournament.category!r}, dimension {tournament.dimension!r}"
    exc.args = (f"{where}: {exc}",)
    return exc


def written_scores(table: ScoreTable, fit_config: FitConfig) -> dict[str, float]:
    """A ``fit_tournament`` table's scores as written: items sorted, in the
    gauge ``fit_config`` requests. Fits run in the geometric-mean-one gauge,
    so that no statistic depends on the requested one."""
    scale = sum(table.scores.values()) if fit_config.normalization == SUM_ONE else 1
    return {k: table.scores[k] / scale for k in sorted(table.scores)}


def fit_tournament(tournament: Tournament, fit_config: FitConfig) -> ScoreTable:
    """Fit one tournament in the geometric-mean-one gauge whatever
    ``fit_config`` asks for.

    An unconverged fit raises NumericalError, so that it never turns into
    a bias number. Any error names the tournament and keeps its type and
    attributes.
    """
    try:
        gauge = replace(fit_config, normalization=GEOMETRIC_MEAN_ONE)
        table = fit(tournament.graph, gauge)
        if not table.converged:
            hint = (
                "; with alpha 0 the win graph must be strongly connected"
                if table.regularization == 0.0
                else ""
            )
            raise NumericalError(
                f"score fit did not converge after {table.iterations} "
                f"iterations{hint}"
            )
        return table
    except Exception as exc:
        raise _named(exc, tournament)


def refit_bias_replicates(
    tournament: Tournament, point: ScoreTable, config: AnalysisConfig, seed: int
) -> np.ndarray:
    """Duel-unit bootstrap of one tournament's score bias: the bias of every
    replicate that converged, in replicate order.

    Replicate r resamples the tournament's m duels with replacement (the r-th
    ``integers(0, m, size=m)`` draw of one generator seeded with ``seed``),
    which is the same as counting each duel by its multiplicity in the
    resample. The replicates are refitted together by ``fit_duel_arrays``
    over the tournament's one duel list, a block at a time, warm-started
    from the point fit and in its gauge. A replicate whose
    fit does not converge is discarded; with alpha 0 that includes every
    replicate whose win graph is not strongly connected. More than 10%
    discards raise UnstableBootstrapError, which names the tournament.
    """
    replicates = config.bootstrap_replicates
    graph = tournament.graph
    m = len(graph.duels)
    winners, losers = np.array(graph.duels, dtype=np.intp).T[:, None]
    start = point.score_array(graph.items)
    group_a, group_b = tournament.groups
    fit_config = replace(config.fit, normalization=point.normalization)
    rng = np.random.default_rng(seed)
    block = max(1, min(replicates, _REFIT_BLOCK_DUELS // m))
    weights = np.empty((block, m))
    values = []
    for first in range(0, replicates, block):
        rows = min(block, replicates - first)
        # one (rows, m) draw is the same stream as rows draws of m; offsetting
        # row r's indices by r * m counts every row in one bincount
        draws = rng.integers(0, m, size=(rows, m))
        draws += m * np.arange(rows)[:, None]
        weights[:rows] = np.bincount(draws.ravel(), minlength=rows * m).reshape(rows, m)
        fits = fit_duel_arrays(
            graph.n_items, winners, losers, fit_config, weights[:rows], start
        )
        scores = np.log(fits.scores[fits.converged])
        values.append(scores[:, group_b].mean(axis=1) - scores[:, group_a].mean(axis=1))
    values = np.concatenate(values)
    failures = replicates - len(values)
    if failures > 0.1 * replicates:
        raise _named(UnstableBootstrapError(
            f"{failures} of {replicates} bootstrap replicates failed"
        ), tournament)
    return values


class _Fitted(NamedTuple):
    """What the pooled and correlation stages read of one tournament."""

    tournament: Tournament
    table: ScoreTable
    log_scores: tuple[np.ndarray, np.ndarray]  # group A's items, group B's
    point: float  # score bias
    median_pct: float


def run_pipeline(
    config: AnalysisConfig,
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    tags: Sequence[TagRecord] | None = None,
) -> dict:
    """Run every analysis and return a JSON-serializable report bundle.

    Every duel must pass ``catalog.check_duel``; an error names the duel.
    Duels that ``parse_duels`` checked against this catalog are not
    checked again. The bundle is a pure function of (inputs, config):
    identical inputs and seed give a byte-identical serialization.
    """
    if not (isinstance(duels, CheckedDuels) and duels.catalog is catalog):
        for d in duels:
            try:
                catalog.check_duel(d)
            except ValidationError as exc:
                exc.args = (f"duel {d.duel_id!r}: {exc}",)
                raise

    tournaments = select_tournaments(
        catalog, duels, config.dimensions, config.categories
    )
    bundle: dict = {
        "config": _config_json(config),
        "input_digests": input_digests(catalog, duels, tags),
        "tournaments": {},
        "pooled": {},
    }
    if tags is not None:
        bundle["distinctive_tags"] = distinctive_tag_rows(catalog, tags)

    fitted = []
    for t in tournaments:
        table = fit_tournament(t, config.fit)
        log_scores = np.log(table.score_array(t.graph.items))
        log_a, log_b = (log_scores[g] for g in t.groups)
        point = float(log_b.mean() - log_a.mean())
        seed = _derived_seed(config.seed, t.category, t.dimension)
        # one resample gives the item-unit score CI and the rank-curve CIs,
        # the median-percentile CI among them at x = 50
        diffs, boot = bias_mod.resample_two_groups(
            log_a, log_b, config.bootstrap_replicates, seed,
            grid=bias_mod.DEFAULT_RANK_GRID,
        )
        curve_lows, curve_highs = bias_mod.percentile_ci(boot).tolist()
        med_low, med_high = curve_lows[_MEDIAN_COLUMN], curve_highs[_MEDIAN_COLUMN]
        if config.bootstrap_unit == "duel":  # the score-bias CI refits duels instead
            diffs = refit_bias_replicates(t, table, config, seed)
        low, high = bias_mod.percentile_ci(diffs).tolist()
        median_pct = bias_mod.median_percentile_rank(log_a, log_b)
        curve = bias_mod.rank_curve(log_a, log_b)
        bound, bound_ci = bias_mod.triangle_lower_bound(point, (low, high))
        bundle["tournaments"][f"{t.category}/{t.dimension}"] = {
            "category": t.category,
            "dimension": t.dimension,
            "n_duels": len(t.duels),
            "scores": written_scores(table, config.fit),
            "fit": {
                "converged": table.converged,
                "iterations": table.iterations,
                "log_likelihood": table.log_likelihood,
                "normalization": config.fit.normalization,
                "regularization": table.regularization,
            },
            "score_bias": {"point": point, "ci": [low, high]},
            "triangle_lower_bound": {"point": bound, "ci": list(bound_ci)},
            "median_percentile": {
                "point": median_pct,
                "ci": [med_low, med_high],
                "significant": med_low > 50.0 or med_high < 50.0,
            },
            "win_fraction": win_fraction_json(bias_mod.duel_win_fraction(t.duels)),
            "rank_curve": [
                {"x": p.x, "y": p.y, "ci": [lo, hi]}
                for p, lo, hi in zip(curve, curve_lows, curve_highs)
            ],
        }
        fitted.append(_Fitted(t, table, (log_a, log_b), point, median_pct))

    dimensions = sorted({t.dimension for t in tournaments})
    for dimension in dimensions:
        mine = [f for f in fitted if f.tournament.dimension == dimension]
        dim_duels = [d for f in mine for d in f.tournament.duels]
        outcomes = duel_outcomes_json(
            bias_mod.duel_win_fraction(dim_duels),
            bias_mod.rater_macro_average(dim_duels),
        )
        pooled_a, pooled_b = map(np.concatenate, zip(*(f.log_scores for f in mine)))
        pooled_bias = float(pooled_b.mean() - pooled_a.mean())
        seed = _derived_seed(config.seed, "__pooled__", dimension)
        diffs, _ = bias_mod.resample_two_groups(
            pooled_a, pooled_b, config.bootstrap_replicates, seed
        )
        low, high = bias_mod.percentile_ci(diffs).tolist()
        bound, bound_ci = bias_mod.triangle_lower_bound(pooled_bias, (low, high))
        bundle["pooled"][dimension] = {
            "mean_category_bias": float(np.mean([f.point for f in mine])),
            "mean_median_percentile": float(np.mean([f.median_pct for f in mine])),
            "pooled_score_bias": {"point": pooled_bias, "ci": [low, high]},
            "triangle_lower_bound": {"point": bound, "ci": list(bound_ci)},
            **outcomes,
        }

    if len(dimensions) >= 2:
        # each dimension's scores over all its items, for cross-dimension correlations
        scores = {
            d: {i: s for f in fitted if f.tournament.dimension == d
                for i, s in f.table.scores.items()}
            for d in dimensions
        }
        common = set.intersection(*(set(s) for s in scores.values()))
        if len(common) >= 3:
            tables = {d: {i: s[i] for i in common} for d, s in scores.items()}
            dims, r, p = bias_mod.score_correlations(tables)
            bundle["score_correlations"] = {
                "dimensions": list(dims),
                "r": [[float(v) for v in row] for row in r],
                "p": [[pvalue_json(v) for v in row] for row in p],
            }

    if len(catalog.categories()) >= 2:
        bundle["frequency_comparison"] = frequency_json(
            bias_mod.frequency_divergence(catalog)
        )

    return bundle


def distinctive_tag_rows(
    catalog: ItemCatalog,
    tags: Sequence[TagRecord],
    stopwords: frozenset[str] | None = None,
    lexicon: Mapping[str, str] | None = None,
    top_k: int = tags_mod.DEFAULT_TOP_K,
    min_count: int = tags_mod.DEFAULT_MIN_COUNT,
) -> dict[str, list[dict]]:
    """The ``tag_json`` rows of each group's most distinctive tags. Raises
    ValidationError unless the tags cover items from both groups."""
    group_of = {r.item_id: r.group for r in catalog.records}
    dists = tags_mod.aggregate_tags(tags, group_of, stopwords, lexicon)
    if GROUP_A not in dists or GROUP_B not in dists:
        raise ValidationError("tags must cover items from both groups")
    ranked = tags_mod.distinctive_tags(
        dists[GROUP_A], dists[GROUP_B], top_k=top_k, min_count=min_count
    )
    return dict(zip((GROUP_A, GROUP_B), ([tag_json(t) for t in r] for r in ranked)))


def tag_json(t) -> dict:
    return {
        "tag": t.tag,
        "kl": t.kl,
        "count_target": t.count_target,
        "count_reference": t.count_reference,
        "chi2": t.chi2,
        "p": pvalue_json(t.p_value),
        "stars": t.stars,
    }


def _config_json(config: AnalysisConfig) -> dict:
    out = asdict(config)
    out["dimensions"] = list(config.dimensions) if config.dimensions else None
    out["categories"] = list(config.categories) if config.categories else None
    return out


def _derived_seed(seed: int, category: str, dimension: str) -> int:
    digest = hashlib.sha256(f"{category}\x00{dimension}".encode()).digest()
    return (seed + int.from_bytes(digest[:4], "big")) % (2**31)


def dump_report(bundle: dict) -> str:
    """Serialize a bundle deterministically (sorted keys, fixed separators)."""
    return json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False)


def write_json(path: str, payload: dict) -> str:
    """Write ``dump_report(payload)`` and a final newline, or no file if it
    fails; returns the path."""
    text = dump_report(payload) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def write_distinctive_tags(path: str, ranked: Mapping[str, Sequence[dict]]) -> str:
    """Write ``tag_json`` rows per group, ranked from 1; returns the path."""
    header = ["group", "rank", "tag", "kl", "count_target", "count_reference",
              "chi2", "p", "stars"]
    rows = []
    for group in sorted(ranked):
        for rank, t in enumerate(ranked[group], 1):
            p = PValue(value=t["p"].get("value"), log10_value=t["p"].get("log10"))
            rows.append(
                [group, rank, t["tag"], repr(t["kl"]), t["count_target"],
                 t["count_reference"], repr(t["chi2"]), repr(float(p)), t["stars"]]
            )
    return write_csv(path, header, rows)


def write_scores(path: str, tables) -> str:
    """Write one row per item of each (category, dimension, scores) in
    ``tables``, in that order and items sorted; returns the path."""
    rows = [[c, d, item, repr(s[item])] for c, d, s in tables for item in sorted(s)]
    return write_csv(path, ["category", "dimension", "item_id", "score"], rows)


def write_report_bundle(bundle: dict, outdir: str) -> list[str]:
    """Write report.json plus flat CSV tables; returns the written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = [write_json(os.path.join(outdir, "report.json"), bundle)]

    if bundle.get("tournaments"):
        tournaments = [bundle["tournaments"][k] for k in sorted(bundle["tournaments"])]
        written.append(
            write_scores(
                os.path.join(outdir, "scores.csv"),
                [(t["category"], t["dimension"], t["scores"]) for t in tournaments],
            )
        )

        header = ["category", "dimension", "x", "y", "ci_low", "ci_high"]
        rows = [
            [t["category"], t["dimension"], pt["x"], pt["y"], *pt["ci"]]
            for t in tournaments
            for pt in t["rank_curve"]
        ]
        written.append(write_csv(os.path.join(outdir, "rank_curves.csv"), header, rows))

    if "distinctive_tags" in bundle:
        written.append(
            write_distinctive_tags(
                os.path.join(outdir, "distinctive_tags.csv"),
                bundle["distinctive_tags"],
            )
        )

    if "frequency_comparison" in bundle:
        fc = bundle["frequency_comparison"]
        ratios = ["inf" if r is None else r for r in fc["ratio_b_over_a"]]
        written.append(
            write_csv(
                os.path.join(outdir, "frequency.csv"),
                ["category", "freq_a", "freq_b", "ratio_b_over_a"],
                zip(fc["categories"], fc["freq_a"], fc["freq_b"], ratios),
            )
        )

    return written
