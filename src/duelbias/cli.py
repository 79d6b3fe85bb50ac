"""Command-line interface.

Subcommands:
    simulate   rank-recovery curve for a comparison-budget sweep
    design     balanced cross-group duel schedule
    fit        latent score tables per (category, dimension) tournament
    bias       full bias report with bootstrap CIs and rank curves
    duelstats  win fractions, binomial tests, rater macro histogram
    tags       distinctive-tag rankings
    freq       category frequency comparison

Exit codes: 0 success, 2 validation error, 3 numerical failure.
Flags override values from --config (JSON); DUELBIAS_OUTPUT_DIR sets the
default output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import bias as bias_mod
from . import tags as tags_mod
from .choice_model import FitConfig
from .datasets import load_column_map, parse_duels, parse_items, parse_tags
from .errors import (
    DegenerateFitError,
    NumericalError,
    ParseError,
    ReferentialError,
    SizeMismatchError,
    InfeasibleScheduleError,
    UnidentifiableItemsError,
    UnstableBootstrapError,
    ValidationError,
)
from .pipeline import (
    AnalysisConfig,
    duel_outcomes_json,
    fit_tournament,
    frequency_json,
    run_pipeline,
    write_json,
    write_report_bundle,
)
from .records import GROUP_A, GROUP_B
from .tournament import (
    DEFAULT_BUDGETS,
    sample_balanced_duels,
    simulate_rank_recovery,
)

_VALIDATION_ERRORS = (
    ParseError,
    ValidationError,
    ReferentialError,
    SizeMismatchError,
    InfeasibleScheduleError,
    FileNotFoundError,
)
_NUMERICAL_ERRORS = (
    DegenerateFitError,
    UnidentifiableItemsError,
    UnstableBootstrapError,
    NumericalError,
    FloatingPointError,
)

OUTPUT_DIR_ENV = "DUELBIAS_OUTPUT_DIR"


def _output_dir(args) -> str:
    return args.output_dir or os.environ.get(OUTPUT_DIR_ENV, ".")


def _outpath(args, name: str) -> str:
    outdir = _output_dir(args)
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _load_config_defaults(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config file must hold a JSON object")
    return cfg


def _merged(args, cfg: dict, key: str, default):
    """Priority: explicit flag > config file > default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def cmd_simulate(args) -> None:
    cfg = _load_config_defaults(args.config)
    budgets = _merged(args, cfg, "budgets", list(DEFAULT_BUDGETS))
    if isinstance(budgets, str):
        budgets = [int(b) for b in budgets.split(",")]
    replicates = int(_merged(args, cfg, "replicates", 50))
    seed = int(_merged(args, cfg, "seed", 0))
    n_items = int(_merged(args, cfg, "items", 100))
    if n_items % 2 != 0:
        raise ValidationError("--items must be even (two equal groups)")
    curve = simulate_rank_recovery(
        n_items_per_group=n_items // 2,
        budgets=budgets,
        replicates=replicates,
        seed=seed,
        outcome_noise=_merged(args, cfg, "outcome", "rater-normal"),
        rater_noise_scale=float(_merged(args, cfg, "rater_noise", 0.25)),
    )
    path = _outpath(args, "recovery_curve.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["budget", "mean_tau", "std_tau", "replicates", "seed"])
        for b, m, s in zip(curve.budgets, curve.mean_tau, curve.std_tau):
            writer.writerow([b, repr(m), repr(s), curve.replicates, curve.seed])
    print(path)


def cmd_design(args) -> None:
    catalog = parse_items(args.items, _column_map(args))
    group_a = catalog.ids(group=GROUP_A)
    group_b = catalog.ids(group=GROUP_B)
    plan = sample_balanced_duels(
        group_a,
        group_b,
        duels_per_item=args.duels_per_item,
        seed=args.seed,
        distinct_opponents=args.distinct_opponents,
    )
    path = _outpath(args, "schedule.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["pair_index", "item_a", "item_b"])
        for i, (a, b) in enumerate(plan.pairs):
            writer.writerow([i, a, b])
    print(path)


def _fit_config(args, cfg: dict) -> FitConfig:
    return FitConfig(
        max_iterations=int(_merged(args, cfg, "max_iterations", 10_000)),
        tolerance=float(_merged(args, cfg, "tolerance", 1e-8)),
        regularization_alpha=float(_merged(args, cfg, "alpha", 0.1)),
        normalization=_merged(args, cfg, "normalization", "geometric-mean-one"),
    )


def _column_map(args):
    if getattr(args, "column_map", None):
        return load_column_map(args.column_map)
    return None


def cmd_fit(args) -> None:
    cfg = _load_config_defaults(args.config)
    catalog = parse_items(args.items, _column_map(args))
    duels = parse_duels(args.duels, catalog, _column_map(args))
    fit_config = _fit_config(args, cfg)
    pairs = sorted(
        {
            (d.category, d.dimension)
            for d in duels
            if (args.category is None or d.category == args.category)
            and (args.dimension is None or d.dimension == args.dimension)
        }
    )
    if not pairs:
        raise ValidationError("no duels match the requested category/dimension")
    path = _outpath(args, "scores.csv")
    diagnostics = {}
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["category", "dimension", "item_id", "score"])
        for category, dimension in pairs:
            table = fit_tournament(catalog, duels, category, dimension, fit_config)
            for item in sorted(table.scores):
                writer.writerow([category, dimension, item, repr(table.scores[item])])
            diagnostics[f"{category}/{dimension}"] = {
                "converged": table.converged,
                "iterations": table.iterations,
                "log_likelihood": table.log_likelihood,
            }
    print(path)
    print(write_json(_outpath(args, "fit_diagnostics.json"), diagnostics))


def cmd_bias(args) -> None:
    cfg = _load_config_defaults(args.config)
    catalog = parse_items(args.items, _column_map(args))
    duels = parse_duels(args.duels, catalog, _column_map(args))
    tags = parse_tags(args.tags, _column_map(args)) if args.tags else None
    config = AnalysisConfig(
        dimensions=tuple(args.dimension) if args.dimension else None,
        categories=tuple(args.category) if args.category else None,
        bootstrap_replicates=int(_merged(args, cfg, "bootstrap", 1000)),
        bootstrap_unit=_merged(args, cfg, "unit", "duel"),
        seed=int(_merged(args, cfg, "seed", 0)),
        fit=_fit_config(args, cfg),
    )
    bundle = run_pipeline(config, catalog, duels, tags)
    for path in write_report_bundle(bundle, _output_dir(args)):
        print(path)


def cmd_duelstats(args) -> None:
    duels = parse_duels(args.duels, catalog=None, column_map=_column_map(args))
    if not duels:
        raise ValidationError(f"{args.duels}: no duel records")
    dimensions = sorted({d.dimension for d in duels})
    payload = {}
    for dimension in dimensions:
        dim_duels = [d for d in duels if d.dimension == dimension]
        macro = bias_mod.rater_macro_average(dim_duels)
        payload[dimension] = duel_outcomes_json(
            bias_mod.duel_win_fraction(dim_duels), macro
        )
        payload[dimension]["n_raters"] = len(macro.per_rater)
    print(write_json(_outpath(args, "duelstats.json"), payload))


def cmd_tags(args) -> None:
    catalog = parse_items(args.items, _column_map(args))
    records = parse_tags(args.tags, _column_map(args))
    for rec in records:
        if rec.item_id not in catalog:
            raise ReferentialError(
                f"{args.tags}: tag references unknown item {rec.item_id!r}"
            )
    stopwords = (
        tags_mod.load_stopword_prefixes(args.stopwords)
        if args.stopwords
        else None
    )
    lexicon = tags_mod.load_dash_lexicon(args.lexicon) if args.lexicon else None
    group_of = {r.item_id: catalog.group_of(r.item_id) for r in records}
    dists = tags_mod.aggregate_tags(records, group_of, stopwords, lexicon)
    if GROUP_A not in dists or GROUP_B not in dists:
        raise ValidationError("tags must cover items from both groups")
    list_a, list_b = tags_mod.distinctive_tags(
        dists[GROUP_A], dists[GROUP_B], top_k=args.top_k, min_count=args.min_count
    )
    path = _outpath(args, "distinctive_tags.csv")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["group", "rank", "tag", "kl", "count_target", "count_reference",
             "chi2", "p", "stars"]
        )
        for group, rows in ((GROUP_A, list_a), (GROUP_B, list_b)):
            for rank, t in enumerate(rows, 1):
                writer.writerow(
                    [group, rank, t.tag, repr(t.kl), t.count_target,
                     t.count_reference, repr(t.chi2), repr(float(t.p_value)),
                     t.stars]
                )
    print(path)


def cmd_freq(args) -> None:
    catalog = parse_items(args.items, _column_map(args))
    payload = frequency_json(bias_mod.frequency_divergence(catalog))
    print(write_json(_outpath(args, "frequency.json"), payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelbias",
        description="Bias measurement from crowd-sourced pairwise comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=None)
        p.add_argument("--config", default=None, help="JSON file with defaults")
        p.add_argument("--column-map", default=None, help="JSON column-name map")

    p = sub.add_parser("simulate", help="rank-recovery simulation sweep")
    p.add_argument("--items", type=int, default=None, help="total items (two groups)")
    p.add_argument("--budgets", default=None, help="comma-separated duel budgets")
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--outcome", choices=["rater-normal", "bradley-terry"], default=None,
        help="duel outcome model (default: rater-normal)",
    )
    p.add_argument(
        "--rater-noise", type=float, default=None,
        help="perception-noise scale for rater-normal (default 0.25; 0 = noiseless)",
    )
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design", help="balanced duel schedule")
    p.add_argument("--items", required=True)
    p.add_argument("--duels-per-item", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distinct-opponents", action="store_true")
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fit", help="fit score tables")
    p.add_argument("--items", required=True)
    p.add_argument("--duels", required=True)
    p.add_argument("--category", default=None)
    p.add_argument("--dimension", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--normalization", default=None)
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bias", help="full bias report")
    p.add_argument("--items", required=True)
    p.add_argument("--duels", required=True)
    p.add_argument("--tags", default=None)
    p.add_argument("--bootstrap", type=int, default=None)
    p.add_argument("--unit", choices=["duel", "item"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--category", action="append", default=None)
    p.add_argument("--dimension", action="append", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--normalization", default=None)
    common(p)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("duelstats", help="win fractions and rater statistics")
    p.add_argument("--duels", required=True)
    common(p)
    p.set_defaults(func=cmd_duelstats)

    p = sub.add_parser("tags", help="distinctive-tag rankings")
    p.add_argument("--tags", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--stopwords", default=None, help="stopword-prefix file")
    p.add_argument("--lexicon", default=None, help="dash-merge lexicon file")
    common(p)
    p.set_defaults(func=cmd_tags)

    p = sub.add_parser("freq", help="category frequency comparison")
    p.add_argument("--items", required=True)
    common(p)
    p.set_defaults(func=cmd_freq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
