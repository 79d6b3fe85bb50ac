"""End-to-end analysis pipeline and deterministic report serialization."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import bias as bias_mod
from . import tags as tags_mod
from .choice_model import ComparisonGraph, FitConfig, fit
from .errors import ReferentialError, ValidationError
from .records import GROUP_A, GROUP_B, DuelRecord, ItemCatalog, TagRecord
from .stats import PValue


@dataclass(frozen=True)
class AnalysisConfig:
    dimensions: tuple[str, ...] | None = None  # None: all present in the duels
    categories: tuple[str, ...] | None = None
    bootstrap_replicates: int = 1000
    bootstrap_unit: str = "duel"  # unit for the per-tournament score-bias CI
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)
    bias_log_scale: bool = True
    rank_grid: tuple[int, ...] = bias_mod.DEFAULT_RANK_GRID
    tag_top_k: int = 20
    tag_min_count: int = tags_mod.DEFAULT_MIN_COUNT
    tag_smoothing: float = tags_mod.DEFAULT_SMOOTHING


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
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


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


def fit_tournament(
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    category: str,
    dimension: str,
    fit_config: FitConfig,
    initial_scores: Mapping[str, float] | None = None,
):
    """Fit one (category, dimension) tournament over the category's items."""
    items = catalog.ids(category=category)
    pairs = [
        (d.winner_item, d.loser_item)
        for d in duels
        if d.category == category and d.dimension == dimension
    ]
    graph = ComparisonGraph.from_pairs(pairs, items=items)
    return fit(graph, fit_config, initial_scores=initial_scores)


def _group_scores(catalog, category, table, log_scale):
    out = {}
    for group in (GROUP_A, GROUP_B):
        ids = catalog.ids(group=group, category=category)
        values = np.array([table.scores[i] for i in ids], dtype=float)
        out[group] = np.log(values) if log_scale else values
    return out


def _refit_bias_statistic(catalog, category, dimension, config, warm_start=None):
    def statistic(duel_sample):
        table = fit_tournament(
            catalog,
            duel_sample,
            category,
            dimension,
            config.fit,
            initial_scores=warm_start,
        )
        gs = _group_scores(catalog, category, table, config.bias_log_scale)
        return float(gs[GROUP_B].mean() - gs[GROUP_A].mean())

    return statistic


def run_pipeline(
    config: AnalysisConfig,
    catalog: ItemCatalog,
    duels: Sequence[DuelRecord],
    tags: Sequence[TagRecord] | None = None,
) -> dict:
    """Run every analysis and return a JSON-serializable report bundle.

    The bundle is a pure function of (inputs, config): identical inputs
    and seed give a byte-identical serialization.
    """
    known_categories = set(catalog.categories())
    for d in duels:
        if d.category not in known_categories:
            raise ReferentialError(
                f"duel {d.duel_id!r} references category {d.category!r} "
                "missing from the catalog"
            )
        for item in (d.item_a, d.item_b):
            if item not in catalog:
                raise ReferentialError(
                    f"duel {d.duel_id!r} references unknown item {item!r}"
                )

    selected = [
        d
        for d in duels
        if (config.dimensions is None or d.dimension in config.dimensions)
        and (config.categories is None or d.category in config.categories)
    ]
    if not selected:
        raise ValidationError("no duels left after applying the configured filters")

    pairs = sorted({(d.category, d.dimension) for d in selected})
    dimensions = sorted({dim for _, dim in pairs})

    bundle: dict = {
        "config": _config_json(config),
        "input_digests": input_digests(catalog, duels, tags),
        "tournaments": {},
        "pooled": {},
    }

    # per-dimension score maps over all items, for cross-dimension correlations
    dim_scores: dict[str, dict[str, float]] = {dim: {} for dim in dimensions}
    per_dim_group_logs: dict[str, dict[str, list[np.ndarray]]] = {
        dim: {GROUP_A: [], GROUP_B: []} for dim in dimensions
    }
    per_dim_stats: dict[str, dict[str, list[float]]] = {
        dim: {"bias": [], "median_percentile": []} for dim in dimensions
    }

    for category, dimension in pairs:
        cat_duels = [
            d for d in selected if d.category == category and d.dimension == dimension
        ]
        try:
            table = fit_tournament(catalog, cat_duels, category, dimension, config.fit)
        except Exception as exc:
            # rewrite the message in place: a new instance would lose the
            # type's own constructor arguments (e.g. item_ids)
            exc.args = (f"category {category!r}, dimension {dimension!r}: {exc}",)
            raise
        gs = _group_scores(catalog, category, table, config.bias_log_scale)
        point = float(gs[GROUP_B].mean() - gs[GROUP_A].mean())
        seed = _derived_seed(config.seed, category, dimension)
        # one resample gives the item-unit score CI, the median-percentile
        # CI (grid column 0) and the rank-curve CIs
        diffs, boot = bias_mod.resample_two_groups(
            gs[GROUP_A],
            gs[GROUP_B],
            config.bootstrap_replicates,
            seed,
            grid=(50,) + tuple(config.rank_grid),
        )
        (med_low, *curve_lows), (med_high, *curve_highs) = (
            bias_mod.percentile_ci(boot).tolist()
        )
        if config.bootstrap_unit == "duel":
            _, low, high = bias_mod.bootstrap_ci(
                cat_duels,
                _refit_bias_statistic(
                    catalog, category, dimension, config, warm_start=table.scores
                ),
                replicates=config.bootstrap_replicates,
                seed=seed,
                unit="duel",
            )
        else:
            low, high = bias_mod.percentile_ci(diffs).tolist()
        median_pct = bias_mod.median_percentile_rank(gs[GROUP_A], gs[GROUP_B])
        curve = bias_mod.rank_curve(gs[GROUP_A], gs[GROUP_B], grid=config.rank_grid)
        bound, bound_ci = bias_mod.triangle_lower_bound(point, (low, high))
        bundle["tournaments"][f"{category}/{dimension}"] = {
            "category": category,
            "dimension": dimension,
            "n_duels": len(cat_duels),
            "scores": {k: table.scores[k] for k in sorted(table.scores)},
            "fit": {
                "converged": table.converged,
                "iterations": table.iterations,
                "log_likelihood": table.log_likelihood,
                "normalization": table.normalization,
                "regularization": table.regularization,
            },
            "score_bias": {"point": point, "ci": [low, high]},
            "triangle_lower_bound": {"point": bound, "ci": list(bound_ci)},
            "median_percentile": {
                "point": median_pct,
                "ci": [med_low, med_high],
                "significant": med_low > 50.0 or med_high < 50.0,
            },
            "win_fraction": win_fraction_json(bias_mod.duel_win_fraction(cat_duels)),
            "rank_curve": [
                {"x": p.x, "y": p.y, "ci": [lo, hi]}
                for p, lo, hi in zip(curve, curve_lows, curve_highs)
            ],
        }
        per_dim_stats[dimension]["bias"].append(point)
        per_dim_stats[dimension]["median_percentile"].append(median_pct)
        per_dim_group_logs[dimension][GROUP_A].append(gs[GROUP_A])
        per_dim_group_logs[dimension][GROUP_B].append(gs[GROUP_B])
        for item, score in table.scores.items():
            dim_scores[dimension][item] = score

    for dimension in dimensions:
        dim_duels = [d for d in selected if d.dimension == dimension]
        outcomes = duel_outcomes_json(
            bias_mod.duel_win_fraction(dim_duels),
            bias_mod.rater_macro_average(dim_duels),
        )
        pooled_a = np.concatenate(per_dim_group_logs[dimension][GROUP_A])
        pooled_b = np.concatenate(per_dim_group_logs[dimension][GROUP_B])
        pooled_bias = float(pooled_b.mean() - pooled_a.mean())
        seed = _derived_seed(config.seed, "__pooled__", dimension)
        diffs, _ = bias_mod.resample_two_groups(
            pooled_a, pooled_b, config.bootstrap_replicates, seed
        )
        low, high = bias_mod.percentile_ci(diffs).tolist()
        bound, bound_ci = bias_mod.triangle_lower_bound(pooled_bias, (low, high))
        stats = per_dim_stats[dimension]
        bundle["pooled"][dimension] = {
            "mean_category_bias": float(np.mean(stats["bias"])),
            "mean_median_percentile": float(np.mean(stats["median_percentile"])),
            "pooled_score_bias": {"point": pooled_bias, "ci": [low, high]},
            "triangle_lower_bound": {"point": bound, "ci": list(bound_ci)},
            **outcomes,
        }

    if len(dimensions) >= 2:
        common = set.intersection(*(set(dim_scores[d]) for d in dimensions))
        if len(common) >= 3:
            tables = {
                d: {i: dim_scores[d][i] for i in common} for d in dimensions
            }
            dims, r, p = bias_mod.score_correlations(
                tables, log_scale=config.bias_log_scale
            )
            bundle["score_correlations"] = {
                "dimensions": list(dims),
                "r": [[float(v) for v in row] for row in r],
                "p": [[pvalue_json(v) for v in row] for row in p],
            }

    if len(catalog.categories()) >= 2:
        bundle["frequency_comparison"] = frequency_json(
            bias_mod.frequency_divergence(catalog)
        )

    if tags:
        group_of = {r.item_id: catalog.group_of(r.item_id) for r in tags}
        dists = tags_mod.aggregate_tags(
            tags, group_of, smoothing_epsilon=config.tag_smoothing
        )
        if GROUP_A in dists and GROUP_B in dists:
            list_a, list_b = tags_mod.distinctive_tags(
                dists[GROUP_A],
                dists[GROUP_B],
                top_k=config.tag_top_k,
                min_count=config.tag_min_count,
            )
            bundle["distinctive_tags"] = {
                GROUP_A: [_tag_json(t) for t in list_a],
                GROUP_B: [_tag_json(t) for t in list_b],
            }

    return bundle


def _tag_json(t) -> dict:
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
    out["rank_grid"] = list(config.rank_grid)
    return out


def _derived_seed(seed: int, category: str, dimension: str) -> int:
    digest = hashlib.sha256(f"{category}\x00{dimension}".encode()).digest()
    return (seed + int.from_bytes(digest[:4], "big")) % (2**31)


def dump_report(bundle: dict) -> str:
    """Serialize a bundle deterministically (sorted keys, fixed separators)."""
    return json.dumps(bundle, sort_keys=True, indent=2, allow_nan=False)


def write_json(path: str, payload: dict) -> str:
    """Write ``dump_report(payload)`` and a final newline; returns the path."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dump_report(payload))
        f.write("\n")
    return path


def write_report_bundle(bundle: dict, outdir: str) -> list[str]:
    """Write report.json plus flat CSV tables; returns the written paths."""
    os.makedirs(outdir, exist_ok=True)
    written = [write_json(os.path.join(outdir, "report.json"), bundle)]

    if bundle.get("tournaments"):
        path = os.path.join(outdir, "scores.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["category", "dimension", "item_id", "score"])
            for key in sorted(bundle["tournaments"]):
                t = bundle["tournaments"][key]
                for item in sorted(t["scores"]):
                    writer.writerow(
                        [t["category"], t["dimension"], item, repr(t["scores"][item])]
                    )
        written.append(path)

        path = os.path.join(outdir, "rank_curves.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["category", "dimension", "x", "y", "ci_low", "ci_high"]
            )
            for key in sorted(bundle["tournaments"]):
                t = bundle["tournaments"][key]
                for pt in t["rank_curve"]:
                    writer.writerow(
                        [t["category"], t["dimension"], pt["x"], pt["y"],
                         pt["ci"][0], pt["ci"][1]]
                    )
        written.append(path)

    if "distinctive_tags" in bundle:
        path = os.path.join(outdir, "distinctive_tags.csv")
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["group", "rank", "tag", "kl", "count_target", "count_reference",
                 "chi2", "stars"]
            )
            for group in sorted(bundle["distinctive_tags"]):
                for rank, t in enumerate(bundle["distinctive_tags"][group], 1):
                    writer.writerow(
                        [group, rank, t["tag"], t["kl"], t["count_target"],
                         t["count_reference"], t["chi2"], t["stars"]]
                    )
        written.append(path)

    if "frequency_comparison" in bundle:
        path = os.path.join(outdir, "frequency.csv")
        fc = bundle["frequency_comparison"]
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["category", "freq_a", "freq_b", "ratio_b_over_a"])
            for cat, fa, fb, ratio in zip(
                fc["categories"], fc["freq_a"], fc["freq_b"], fc["ratio_b_over_a"]
            ):
                writer.writerow([cat, fa, fb, "inf" if ratio is None else ratio])
        written.append(path)

    return written
