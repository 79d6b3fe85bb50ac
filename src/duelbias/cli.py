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
For simulate, fit and bias, flags override values from --config (JSON),
whose keys are the setting flags' names with _ for -; fit, bias, design
and tags check every setting before they read any input file.
DUELBIAS_OUTPUT_DIR sets the default output directory.

``main()`` imports only the layers its command runs (``_LAYERS``):
``simulate`` and ``design`` load ``tournament``; ``fit``, ``bias``,
``duelstats`` and ``freq`` load ``pipeline`` and ``bias``, and ``bias
--tags`` also ``tags``; ``tags`` loads ``tags`` alone. ``tags``, ``--help``
and argument errors run without numpy.

``main()`` also registers ``gc.freeze`` with ``atexit``, once per process,
so that the interpreter's last full collection at shutdown skips the heap,
and, unless the user set it or numpy is already loaded, sets
``OPENBLAS_THREAD_TIMEOUT`` so that idle OpenBLAS workers sleep at once.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import os
import sys

from .datasets import load_column_map, load_json, parse_duels, parse_items
from .datasets import parse_tags, write_csv
from .errors import NumericalError, ValidationError
from .records import GROUP_A, GROUP_B
from .settings import (
    BOOTSTRAP_UNITS,
    DEFAULT_BUDGETS,
    DEFAULT_MIN_COUNT,
    DEFAULT_RATER_NOISE,
    DEFAULT_TOP_K,
    OUTCOME_BRADLEY_TERRY,
    OUTCOME_RATER_NORMAL,
    FitConfig,
    checked_float,
    checked_int,
)

# the names the commands use from the numeric layers, by module; they become
# globals of this module only when _bind_numeric binds their module
_NUMERIC = {
    "bias": ("duel_win_fraction", "frequency_divergence", "rater_macro_average"),
    "pipeline": (
        "AnalysisConfig",
        "duel_outcomes_json",
        "duels_by_dimension",
        "fit_tournament",
        "frequency_json",
        "run_pipeline",
        "select_tournaments",
        "write_json",
        "write_report_bundle",
        "write_scores",
        "written_scores",
    ),
    "tournament": (
        "check_schedule_settings",
        "sample_balanced_duels",
        "simulate_rank_recovery",
    ),
}


# the numeric layers each command runs
_LAYERS = {
    "simulate": ("tournament",),
    "design": ("tournament",),
    "fit": ("pipeline", "bias"),
    "bias": ("pipeline", "bias"),
    "duelstats": ("pipeline", "bias"),
    "freq": ("pipeline", "bias"),
}


def _bind_numeric(modules=tuple(_NUMERIC)) -> None:
    """Import the numeric layers ``modules`` and bind their ``_NUMERIC``
    names here. A name already bound is kept, such as a wrapper set on this
    module from outside before ``main()`` runs."""
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        for name in _NUMERIC[module]:
            globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    # a numeric name read from outside before main() bound it: every layer
    # is bound, whichever command runs next
    if any(name in names for names in _NUMERIC.values()):
        _bind_numeric()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


OUTPUT_DIR_ENV = "DUELBIAS_OUTPUT_DIR"


def _output_dir(args) -> str:
    return args.output_dir or os.environ.get(OUTPUT_DIR_ENV, ".")


def _outpath(args, name: str) -> str:
    outdir = _output_dir(args)
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


def _load_config_defaults(path) -> dict:
    cfg = {} if path is None else load_json(path)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config file must hold a JSON object")
    return cfg


def _converted(kind, key: str, value):
    """A flag's or --config value as ``kind``: int or float from a number or
    string, ``list`` as the ints of a list or comma-separated string. A bool,
    a float for an int, or a value that does not convert raises ValidationError."""
    if kind is list and isinstance(value, (str, list)):
        parts = value.split(",") if isinstance(value, str) else value
        return [_converted(int, key, part) for part in parts]
    if kind in (int, float):
        try:
            value = kind(value) if isinstance(value, str) else value
        except ValueError:
            pass  # rejected below as the string it is
        return (checked_int if kind is int else checked_float)(key, value)
    raise ValidationError(f"{key}: expected {kind.__name__}, got {value!r}")


def _merged(args, cfg: dict, key: str, default, kind=None):
    """Priority: explicit flag > config file > default; converted by
    ``_converted(kind, ...)`` if ``kind`` is given. Takes ``key`` out of
    ``cfg``, so that what is left names no setting (``_reject_unread``)."""
    value = cfg.pop(key, default)
    flag = getattr(args, key, None)
    value = value if flag is None else flag
    return value if kind is None else _converted(kind, key, value)


def _reject_unread(args, cfg: dict) -> None:
    """Reject the first ``--config`` key that no ``_merged`` call took out."""
    if cfg:
        raise ValidationError(f"{args.config}: unknown setting {next(iter(cfg))!r}")


def cmd_simulate(args) -> None:
    cfg = _load_config_defaults(args.config)
    budgets = _merged(args, cfg, "budgets", list(DEFAULT_BUDGETS), list)
    replicates = _merged(args, cfg, "replicates", 50, int)
    seed = _merged(args, cfg, "seed", 0, int)
    n_items = _merged(args, cfg, "items", 100, int)
    outcome = _merged(args, cfg, "outcome", OUTCOME_RATER_NORMAL)
    rater_noise = _merged(args, cfg, "rater_noise", DEFAULT_RATER_NOISE, float)
    _reject_unread(args, cfg)
    if n_items % 2 != 0:
        raise ValidationError("--items must be even (two equal groups)")
    curve = simulate_rank_recovery(
        n_items_per_group=n_items // 2,
        budgets=budgets,
        replicates=replicates,
        seed=seed,
        outcome_noise=outcome,
        rater_noise_scale=rater_noise,
    )
    path = write_csv(
        _outpath(args, "recovery_curve.csv"),
        ["budget", "mean_tau", "std_tau", "replicates", "seed"],
        (
            [b, repr(m), repr(s), curve.replicates, curve.seed]
            for b, m, s in zip(curve.budgets, curve.mean_tau, curve.std_tau)
        ),
    )
    print(path)


def cmd_design(args) -> None:
    check_schedule_settings(args.duels_per_item, args.seed)
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
    path = write_csv(
        _outpath(args, "schedule.csv"),
        ["pair_index", "item_a", "item_b"],
        ([i, a, b] for i, (a, b) in enumerate(plan.pairs)),
    )
    print(path)


def _fit_config(args, cfg: dict) -> FitConfig:
    d = FitConfig()
    return FitConfig(
        max_iterations=_merged(args, cfg, "max_iterations", d.max_iterations, int),
        tolerance=_merged(args, cfg, "tolerance", d.tolerance, float),
        regularization_alpha=_merged(args, cfg, "alpha", d.regularization_alpha, float),
        normalization=_merged(args, cfg, "normalization", d.normalization),
    )


def _column_map(args):
    return load_column_map(args.column_map) if args.column_map else None


def cmd_fit(args) -> None:
    cfg = _load_config_defaults(args.config)
    fit_config = _fit_config(args, cfg)
    _reject_unread(args, cfg)
    column_map = _column_map(args)
    catalog = parse_items(args.items, column_map)
    duels = parse_duels(args.duels, catalog, column_map)
    tournaments = select_tournaments(catalog, duels, args.dimension, args.category)
    # fit every tournament before writing, so an unconverged one leaves no
    # scores behind
    fits = [(t, fit_tournament(t, fit_config)) for t in tournaments]
    print(
        write_scores(
            _outpath(args, "scores.csv"),
            [(t.category, t.dimension, written_scores(s, fit_config)) for t, s in fits],
        )
    )
    diagnostics = {
        f"{t.category}/{t.dimension}": {
            "converged": s.converged,
            "iterations": s.iterations,
            "log_likelihood": s.log_likelihood,
        }
        for t, s in fits
    }
    print(write_json(_outpath(args, "fit_diagnostics.json"), diagnostics))


def cmd_bias(args) -> None:
    cfg = _load_config_defaults(args.config)
    d = AnalysisConfig()
    config = AnalysisConfig(
        dimensions=tuple(args.dimension) if args.dimension else None,
        categories=tuple(args.category) if args.category else None,
        bootstrap_replicates=_merged(
            args, cfg, "bootstrap", d.bootstrap_replicates, int
        ),
        bootstrap_unit=_merged(args, cfg, "unit", d.bootstrap_unit),
        seed=_merged(args, cfg, "seed", d.seed, int),
        fit=_fit_config(args, cfg),
    )
    _reject_unread(args, cfg)
    column_map = _column_map(args)
    catalog = parse_items(args.items, column_map)
    duels = parse_duels(args.duels, catalog, column_map)
    tags = parse_tags(args.tags, column_map) if args.tags else None
    bundle = run_pipeline(config, catalog, duels, tags)
    for path in write_report_bundle(bundle, _output_dir(args)):
        print(path)


def cmd_duelstats(args) -> None:
    duels = parse_duels(args.duels, catalog=None, column_map=_column_map(args))
    if not duels:
        raise ValidationError(f"{args.duels}: no duel records")
    payload = {}
    for dimension, dim_duels in duels_by_dimension(duels).items():
        macro = rater_macro_average(dim_duels)
        payload[dimension] = duel_outcomes_json(duel_win_fraction(dim_duels), macro)
        payload[dimension]["n_raters"] = len(macro.per_rater)
    print(write_json(_outpath(args, "duelstats.json"), payload))


def cmd_tags(args) -> None:
    from . import tags as tags_mod

    tags_mod.check_top_k(args.top_k)
    column_map = _column_map(args)
    catalog = parse_items(args.items, column_map)
    records = parse_tags(args.tags, column_map)
    stopwords = (
        tags_mod.load_stopword_prefixes(args.stopwords) if args.stopwords else None
    )
    lexicon = tags_mod.load_dash_lexicon(args.lexicon) if args.lexicon else None
    ranked = tags_mod.distinctive_tag_rows(
        catalog, records, stopwords, lexicon, args.top_k, args.min_count
    )
    path = _outpath(args, "distinctive_tags.csv")
    print(tags_mod.write_distinctive_tags(path, ranked))


def cmd_freq(args) -> None:
    catalog = parse_items(args.items, _column_map(args))
    payload = frequency_json(frequency_divergence(catalog))
    print(write_json(_outpath(args, "frequency.json"), payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelbias",
        description="Bias measurement from crowd-sourced pairwise comparisons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, column_map=True):
        p.add_argument("--output-dir", default=None)
        if config:
            p.add_argument("--config", default=None, help="JSON file with defaults")
        if column_map:
            p.add_argument("--column-map", default=None, help="JSON column-name map")

    def fit_options(p):
        defaults = FitConfig()
        p.add_argument("--alpha", default=None)
        p.add_argument(
            "--tolerance", default=None,
            help="converged once max |d/d log s| of the log-likelihood is "
            f"below this (default {defaults.tolerance})",
        )
        p.add_argument(
            "--max-iterations", default=None,
            help=f"cap on Newton steps per fit (default {defaults.max_iterations})",
        )
        p.add_argument("--normalization", default=None)

    p = sub.add_parser("simulate", help="rank-recovery simulation sweep")
    p.add_argument("--items", default=None, help="total items (two groups)")
    p.add_argument("--budgets", default=None, help="comma-separated duel budgets")
    p.add_argument("--replicates", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument(
        "--outcome", choices=[OUTCOME_RATER_NORMAL, OUTCOME_BRADLEY_TERRY],
        default=None, help=f"duel outcome model (default: {OUTCOME_RATER_NORMAL})",
    )
    p.add_argument(
        "--rater-noise", default=None,
        help=f"perception-noise scale for {OUTCOME_RATER_NORMAL} "
        f"(default {DEFAULT_RATER_NOISE}; 0 = noiseless)",
    )
    common(p, config=True, column_map=False)
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
    p.add_argument("--category", action="append", default=None)
    p.add_argument("--dimension", action="append", default=None)
    fit_options(p)
    common(p, config=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bias", help="full bias report")
    p.add_argument("--items", required=True)
    p.add_argument("--duels", required=True)
    p.add_argument("--tags", default=None)
    p.add_argument("--bootstrap", default=None)
    p.add_argument("--unit", choices=BOOTSTRAP_UNITS, default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--category", action="append", default=None)
    p.add_argument("--dimension", action="append", default=None)
    fit_options(p)
    common(p, config=True)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("duelstats", help="win fractions and rater statistics")
    p.add_argument("--duels", required=True)
    common(p)
    p.set_defaults(func=cmd_duelstats)

    p = sub.add_parser("tags", help="distinctive-tag rankings")
    p.add_argument("--tags", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--top-k", type=int, default=DEFAULT_TOP_K)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--stopwords", default=None, help="stopword-prefix file")
    p.add_argument("--lexicon", default=None, help="dash-merge lexicon file")
    common(p)
    p.set_defaults(func=cmd_tags)

    p = sub.add_parser("freq", help="category frequency comparison")
    p.add_argument("--items", required=True)
    common(p)
    p.set_defaults(func=cmd_freq)

    return parser


_heap_freeze_registered = False


def _freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` with ``atexit``, once per process.

    CPython's last full collection at shutdown walks the whole heap,
    numpy's objects included. ``atexit`` handlers run before it, and it
    skips frozen objects. Nothing needs that collection: every output file
    is closed before ``main()`` returns, no module defines a finalizer, and
    shutdown flushes stdout and stderr itself. An in-process caller's heap
    stays unfrozen until its interpreter exits."""
    global _heap_freeze_registered
    if not _heap_freeze_registered:
        atexit.register(gc.freeze)
        _heap_freeze_registered = True


BLAS_TIMEOUT_ENV = "OPENBLAS_THREAD_TIMEOUT"


def _idle_blas_workers_sleep() -> None:
    """Set ``OPENBLAS_THREAD_TIMEOUT=4`` unless it is set or numpy is loaded.

    The package makes no BLAS call, but the OpenBLAS that numpy loads starts
    its worker threads at import, and an idle worker spins for 2**28 cycles
    before it sleeps. 4 is OpenBLAS's floor: the worker sleeps after 2**4
    cycles. OpenBLAS reads the variable once, as numpy loads, so a process
    that has imported numpy keeps its setting, and the user's value and
    thread count are kept. With numpy 2.4.6 (scipy-openblas 0.3.31, which
    does not read ``GOTO_THREAD_TIMEOUT``) on 2 CPUs, the worker used
    0.06-0.07 s of CPU by default and 0.00 s with the timeout, and the
    median ``cpu_s`` of ``bench/run.py --workload refit-demo`` fell from
    0.253 to 0.167 s with ``wall_s`` unchanged."""
    if "numpy" not in sys.modules:
        os.environ.setdefault(BLAS_TIMEOUT_ENV, "4")


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    _idle_blas_workers_sleep()
    _bind_numeric(_LAYERS.get(args.command, ()))
    try:
        args.func(args)
    except (NumericalError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
