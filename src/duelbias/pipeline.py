"""End-to-end analysis pipeline and deterministic report serialization.

The tag layer (``duelbias.tags``) is loaded only by a run that has tags.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import bias as bias_mod
from .choice_model import ComparisonGraph, ScoreTable, fit, fit_duel_arrays
from .datasets import _CHUNK_ROWS, item_row, write_csv
from .duel_table import DuelTable
from .errors import NumericalError, UnstableBootstrapError, ValidationError
from .records import GROUP_B, DuelRecord, Frozen, ItemCatalog, TagRecord, TagTable
from .settings import (
    BOOTSTRAP_UNITS,
    GEOMETRIC_MEAN_ONE,
    SUM_ONE,
    FitConfig,
    checked_int,
    rows_per_block,
)
from .stats import pvalue_json

# the rank-curve column whose CI is the median-percentile CI
_MEDIAN_COLUMN = bias_mod.DEFAULT_RANK_GRID.index(50)


class AnalysisConfig(Frozen):
    __slots__ = (
        "dimensions", "categories", "bootstrap_replicates", "bootstrap_unit",
        "seed", "fit",
    )

    def __init__(
        self,
        dimensions: tuple[str, ...] | None = None,  # None: all present in the duels
        categories: tuple[str, ...] | None = None,
        bootstrap_replicates: int = 1000,
        bootstrap_unit: str = "duel",  # unit for the per-tournament score-bias CI
        seed: int = 0,
        fit: FitConfig = FitConfig(),
    ):
        dimensions, categories = _filters(dimensions=dimensions, categories=categories)
        bootstrap_replicates = checked_int("bootstrap_replicates", bootstrap_replicates)
        seed = checked_int("seed", seed)
        if bootstrap_replicates < 100:
            raise ValidationError("bootstrap needs at least 100 replicates")
        if bootstrap_unit not in BOOTSTRAP_UNITS:
            raise ValidationError(
                f"bootstrap unit must be one of {', '.join(BOOTSTRAP_UNITS)}, "
                f"got {bootstrap_unit!r}"
            )
        # _derived_seed folds seeds mod 2**31: outside this range two seeds
        # would give the same resamples
        if not 0 <= seed < 2**31:
            raise ValidationError(f"seed must be in [0, 2**31), got {seed}")
        if not isinstance(fit, FitConfig):
            raise ValidationError(f"fit must be a FitConfig, got {fit!r}")
        self._bind(
            dimensions, categories, bootstrap_replicates, bootstrap_unit, seed, fit
        )


def _filters(**filters: Sequence[str] | None) -> list[tuple[str, ...] | None]:
    """Each filter as a tuple, or None. A filter given as one string raises
    ValidationError: a duel would be kept when its value is a substring of it.
    So does a filter that is not iterable."""
    out = []
    for name, names in filters.items():
        if isinstance(names, str):
            raise ValidationError(
                f"{name} must be a sequence of names, not the string {names!r}"
            )
        try:
            out.append(None if names is None else tuple(names))
        except TypeError:
            raise ValidationError(
                f"{name} must be a sequence of names, got {names!r}"
            ) from None
    return out


def win_fraction_json(wf: bias_mod.WinFraction) -> dict:
    out = wf._asdict()
    out["p"] = pvalue_json(out.pop("p_value"))
    return out


def duel_outcomes_json(
    wf: bias_mod.WinFraction, macro: bias_mod.RaterSummary
) -> dict:
    return {
        "win_fraction": win_fraction_json(wf),
        "rater_macro_mean": macro.macro_mean,
        "rater_histogram": [list(bin_) for bin_ in macro.histogram],
    }


def frequency_json(freq: bias_mod.FrequencyComparison) -> dict:
    out = freq._asdict()
    out["ratio_b_over_a"] = [None if math.isinf(x) else x for x in freq.ratio_b_over_a]
    out["spearman_p"] = pvalue_json(freq.spearman_p)
    return out


def _digest(pieces: Iterable[str]) -> str:
    """The SHA-256 of the UTF-8 text that ``pieces`` make in turn."""
    digest = hashlib.sha256()
    for text in pieces:
        digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def _lines(rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """``rows`` as text, ``_CHUNK_ROWS`` rows a piece: the fields
    comma-joined, a newline after each row."""
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield "\n".join([*map(",".join, chunk), ""])


def input_digests(
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    tags: Sequence[TagRecord] | None,
) -> dict[str, str]:
    """The SHA-256 of each input's rows as text (see ``_lines``), hashed a
    chunk of rows at a time."""
    items = map(item_row, catalog.records)
    table = DuelTable.of(duels)
    # the rows become strings a chunk at a time: all at once would raise the
    # run's peak memory, which the digest runs close to
    duel_rows = chain.from_iterable(
        zip(*table.columns(slice(start, start + _CHUNK_ROWS)))
        for start in range(0, len(table), _CHUNK_ROWS)
    )
    out = {"items": _digest(_lines(items)), "duels": _digest(_lines(duel_rows))}
    if tags is not None:
        t = TagTable.of(tags)
        rows = zip(t.duel_ids, t.item_ids, t.rater_ids, t.raw_texts)
        out["tags"] = _digest(_lines(rows))
    return out


class Tournament(Frozen):
    """One (category, dimension) tournament: its duels in file order, its
    graph over the category's items in catalog order, and the graph indices
    of group A's items and of group B's. Equal only to itself."""

    __slots__ = ("category", "dimension", "duels", "graph", "groups")
    __eq__, __hash__ = object.__eq__, object.__hash__


def select_tournaments(
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    dimensions: Sequence[str] | None = None,
    categories: Sequence[str] | None = None,
) -> list[Tournament]:
    """Each (category, dimension) tournament with a dimension in
    ``dimensions`` and a category in ``categories`` (None: any; a string
    raises ValidationError), built once and in sorted order. Each
    tournament's duels are a view of ``duels``: its row indices.

    Every duel, whether the filters keep it or not, must pass
    ``catalog.check_duel``: the first that fails, in input order, raises
    its error prefixed ``duel 'id': ``. The rule runs over whole columns
    (``DuelTable.first_broken``); ``check_duel`` runs only to raise. Then
    ValidationError is raised if the filters leave no duel.
    """
    dimensions, categories = _filters(dimensions=dimensions, categories=categories)
    duels = DuelTable.of(duels)
    places = duels.item_places(catalog)
    row = duels.first_broken(places)
    if row is not None:
        d = duels[row]
        try:
            catalog.check_duel(d)
        except ValidationError as exc:
            exc.args = (f"duel {d.duel_id!r}: {exc}",)
            raise
    kept = duels.where("category", categories).where("dimension", dimensions)
    if not len(kept):
        raise ValidationError("no duels left after applying the configured filters")
    # graph indices: each duel's items among its category's items
    a, b = (places[2][kept.column(side)[1]] for side in ("item_a", "item_b"))
    won_by_b = kept.wins_of(GROUP_B)
    # one (winner, loser) row per kept duel
    pairs = np.column_stack((np.where(won_by_b, b, a), np.where(won_by_b, a, b)))
    members: dict[str, list] = {}
    for r in catalog.records:
        members.setdefault(r.category, []).append(r)
    # one stable sort groups the duels by (category, dimension), in file order
    dimension_names, dimension = kept.column("dimension")
    key = kept.column("category")[1] * len(dimension_names) + dimension
    order = np.argsort(key, kind="stable")
    tournaments = []
    for rows in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        mine, first = kept[rows], kept[rows[0]]
        items = members[first.category]
        group_b = np.array([r.group == GROUP_B for r in items])
        tournaments.append(Tournament(
            first.category, first.dimension, mine,
            ComparisonGraph(items=[r.item_id for r in items], duels=pairs[rows]),
            (np.flatnonzero(~group_b), np.flatnonzero(group_b)),
        ))
    return sorted(tournaments, key=lambda t: (t.category, t.dimension))


def duels_by_dimension(duels: Sequence[DuelRecord]) -> dict[str, DuelTable]:
    """``duels`` grouped by dimension, in order, each group a view of
    ``duels``; dimensions sorted."""
    duels = DuelTable.of(duels)
    values, codes = duels.column("dimension")
    names = sorted(values[k] for k in np.flatnonzero(np.bincount(codes)))
    return {name: duels.where("dimension", [name]) for name in names}


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
        gauge = fit_config.replace(normalization=GEOMETRIC_MEAN_ONE)
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
    over the tournament's one duel list, in blocks of
    ``settings.rows_per_block`` rows, warm-started from the point fit and in
    its gauge. A replicate whose fit does not converge is discarded; with
    alpha 0 that includes every replicate whose win graph is not strongly
    connected. More than 10% discards raise UnstableBootstrapError, which
    names the tournament.
    """
    replicates = config.bootstrap_replicates
    graph = tournament.graph
    m = len(graph.duel_array)
    winners, losers = graph.duel_array.T[:, None]
    start = point.score_array(graph.items)
    group_a, group_b = tournament.groups
    fit_config = config.fit.replace(normalization=point.normalization)
    rng = np.random.default_rng(seed)
    block = rows_per_block(replicates, m)
    values = []
    for first in range(0, replicates, block):
        rows = min(block, replicates - first)
        # one (rows, m) draw is the same stream as rows draws of m; offsetting
        # row r's indices by r * m counts every row in one bincount
        draws = rng.integers(0, m, size=(rows, m))
        draws += m * np.arange(rows)[:, None]
        weights = np.bincount(draws.ravel(), minlength=rows * m).reshape(rows, m)
        fits = fit_duel_arrays(
            graph.n_items, winners, losers, fit_config, weights, start
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
    point: float  # score bias
    median_pct: float
    # the item resample's rows of the score bias and of the median percentile
    diffs: np.ndarray
    median_rows: np.ndarray


def _pooled(points: Sequence[float], rows: Sequence[np.ndarray]) -> dict:
    """A dimension's pooled estimate over its tournaments, each weighted
    equally: the mean of their points, and the percentile CI of the
    row-wise mean of their bootstrap rows. Tournaments resample their own
    items from their own seeds, so row r of every tournament together is
    one replicate of a bootstrap stratified by tournament."""
    low, high = bias_mod.percentile_ci(np.mean(rows, axis=0)).tolist()
    return {"point": float(np.mean(points)), "ci": [low, high]}


def run_pipeline(
    config: AnalysisConfig,
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    tags: Sequence[TagRecord] | None = None,
) -> dict:
    """Run every analysis and return a JSON-serializable report bundle.

    Every duel must pass ``catalog.check_duel``, which
    ``select_tournaments`` applies while it builds the tournaments; an
    error names the duel. The bundle is a pure function of (inputs,
    config): identical inputs and seed give a byte-identical serialization.
    """
    duels = DuelTable.of(duels)
    tournaments = select_tournaments(
        catalog, duels, config.dimensions, config.categories
    )
    bundle: dict = {
        "config": {**config._asdict(), "fit": config.fit._asdict()},
        "input_digests": input_digests(catalog, duels, tags),
        "tournaments": {},
        "pooled": {},
    }
    if tags is not None:
        from .tags import distinctive_tag_rows

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
        # the pooled CIs read these item rows under either unit; a copy, as a
        # view of the column would keep the whole rank-curve array alive
        median_rows = boot[:, _MEDIAN_COLUMN].copy()
        curve_lows, curve_highs = bias_mod.percentile_ci(boot).tolist()
        med_low, med_high = curve_lows[_MEDIAN_COLUMN], curve_highs[_MEDIAN_COLUMN]
        ci_diffs = (  # the duel unit's score-bias CI refits duels instead
            refit_bias_replicates(t, table, config, seed)
            if config.bootstrap_unit == "duel" else diffs
        )
        low, high = bias_mod.percentile_ci(ci_diffs).tolist()
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
        fitted.append(_Fitted(t, table, point, median_pct, diffs, median_rows))

    dimensions = sorted({t.dimension for t in tournaments})
    by_dimension = duels_by_dimension(duels.where("category", config.categories))
    for dimension in dimensions:
        mine = [f for f in fitted if f.tournament.dimension == dimension]
        outcomes = duel_outcomes_json(
            bias_mod.duel_win_fraction(by_dimension[dimension]),
            bias_mod.rater_macro_average(by_dimension[dimension]),
        )
        bias = _pooled([f.point for f in mine], [f.diffs for f in mine])
        medians = _pooled([f.median_pct for f in mine], [f.median_rows for f in mine])
        bound, bound_ci = bias_mod.triangle_lower_bound(bias["point"], bias["ci"])
        bundle["pooled"][dimension] = {
            "mean_category_bias": bias,
            "mean_median_percentile": medians,
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
                "r": [[None if math.isnan(v) else v for v in row] for row in r.tolist()],
                "p": [[pvalue_json(v) for v in row] for row in p],
            }

    if len(catalog.categories()) >= 2:
        bundle["frequency_comparison"] = frequency_json(
            bias_mod.frequency_divergence(catalog)
        )

    return bundle


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
        from .tags import write_distinctive_tags

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
