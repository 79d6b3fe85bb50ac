"""Traced in-process run of one ``duelbias`` command: the per-layer metrics.

Usage:
    python3 traced.py RESULT_JSON SPANS_TSV SECONDS OUT_DIR -- ARGS...

Runs ``duelbias.cli.main(ARGS + ["--output-dir", OUT_DIR])`` untraced, then
once with tracing, then untraced again at least once and until SECONDS have
passed; the untraced median is the baseline of ``trace.overhead_s``. Every run
writes to OUT_DIR, because report.json records its output directory, and
each run's output is then renamed to ``OUT_DIR-<label>`` for checking. Tracing
replaces public functions with timing wrappers from outside the package,
at the module where each name is looked up (modules bind imported names at
import time), and restores the originals afterwards. Spans stay in memory
and are written to SPANS_TSV at the end, one per line: name, start, end,
parent index (-1 for a root) and whether the call returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import duelbias.cli

# (module, attribute, span name). A function imported into several modules
# is patched in each, under one span name.
LOOKUPS = (
    ("duelbias.cli", "main", "cli.main"),
    ("duelbias.cli", "parse_items", "datasets.parse_items"),
    ("duelbias.cli", "parse_duels", "datasets.parse_duels"),
    ("duelbias.cli", "parse_tags", "datasets.parse_tags"),
    ("duelbias.cli", "run_pipeline", "pipeline.run"),
    ("duelbias.cli", "write_report_bundle", "pipeline.write"),
    ("duelbias.pipeline", "fit_tournament", "pipeline.fit_tournament"),
    ("duelbias.pipeline", "fit", "choice_model.fit"),
    ("duelbias.tournament", "fit", "choice_model.fit"),
    ("duelbias.bias", "bootstrap_ci", "bias.bootstrap_ci"),
    ("duelbias.bias", "rank_curve", "bias.rank_curve"),
    ("duelbias.bias", "median_percentile_rank", "bias.median_percentile_rank"),
    ("duelbias.bias", "percentile_rank", "stats.percentile_rank"),
    ("duelbias.bias", "binomial_two_sided", "stats.binomial_two_sided"),
    ("duelbias.tags", "aggregate_tags", "tags.aggregate"),
    ("duelbias.tags", "distinctive_tags", "tags.distinctive"),
    ("duelbias.cli", "simulate_rank_recovery", "tournament.simulate"),
    ("duelbias.tournament", "sample_balanced_duels", "tournament.schedule"),
    ("duelbias.tournament", "kendall_tau_values", "tournament.kendall"),
)

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Spans as (name, start, end, parent, ok) plus results seen at spans."""

    def __init__(self):
        self.spans: list = []
        self.fits: list = []  # (graph, ScoreTable) of every returned fit
        self.rows = 0
        self.tag_calls: list = []  # bound arguments of distinctive_tags
        self.report_bytes = 0
        self._stack: list[int] = []
        self._patched: list = []

    def _observe(self, name, original, args, kwargs, result):
        if name == "choice_model.fit":
            graph = args[0] if args else kwargs["graph"]
            self.fits.append((graph, result))
        elif name.startswith("datasets."):
            self.rows += len(result)
        elif name == "tags.distinctive":
            bound = inspect.signature(original).bind(*args, **kwargs)
            bound.apply_defaults()
            self.tag_calls.append(bound.arguments)
        elif name == "pipeline.write":
            self.report_bytes += sum(
                os.path.getsize(p) for p in result if os.path.basename(p) == "report.json"
            )

    def patch(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
            self._observe(name, original, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def install(self) -> None:
        for module_name, attr, name in LOOKUPS:
            self.patch(importlib.import_module(module_name), attr, name)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, ok in self.spans:
                f.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{int(ok)}\n")


def grad_inf(graph, table) -> float:
    """max |d/d log s| of the regularized log-likelihood at a fit's scores.

    For a duel won by w over l the log-likelihood log s_w - log(s_w + s_l)
    has gradient q = s_l / (s_w + s_l) for w and -q for l; each item's
    anchor term alpha * (log s + log a - 2 log(s + a)) adds
    alpha * (a - s) / (s + a).
    """
    s = table.score_array(graph.items)
    a, alpha = table.anchor_score, table.regularization
    g = alpha * (a - s) / (s + a)
    if graph.duels:
        d = np.asarray(graph.duels, dtype=np.intp)
        w, l = d[:, 0], d[:, 1]
        q = s[l] / (s[w] + s[l])
        n = graph.n_items
        g += np.bincount(w, q, n) - np.bincount(l, q, n)
    return float(np.max(np.abs(g)))


def _percentile(sorted_values: list[float], q: float) -> float:
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    values = sorted(values)
    if not values:
        return 0.0, "none"
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            return _percentile(values, q), f"p{q:g} of {len(values)}"
    return values[-1], f"max of {len(values)}"


def layer_metrics(tracer: Tracer, untraced_median_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and notes (labels, self-time ranking) from spans."""
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    failed = Counter()
    children = [0.0] * len(tracer.spans)
    for name, start, end, parent, ok in tracer.spans:
        if parent >= 0:
            children[parent] += end - start
    # Calls in this program are sequential, so a span's children never
    # overlap and their summed durations are the time they cover.
    fit_ms = []
    for i, (name, start, end, parent, ok) in enumerate(tracer.spans):
        total[name] += end - start
        self_s[name] += end - start - children[i]
        calls[name] += 1
        failed[name] += not ok
        if name == "choice_model.fit":
            fit_ms.append(1e3 * (end - start))

    fits = [table for _, table in tracer.fits]
    fit_tail, tail_label = tail(fit_ms)
    vocabulary = ranked = 0
    for arguments in tracer.tag_calls:
        a, b = arguments["tags_a"].counts, arguments["tags_b"].counts
        vocab = set(a) | set(b)
        vocabulary += len(vocab)
        ranked += sum(
            1 for t in vocab if a.get(t, 0) + b.get(t, 0) >= arguments["min_count"]
        )
    metrics = {
        "datasets.parse_s": sum(
            total[n] for n in ("datasets.parse_items", "datasets.parse_duels",
                               "datasets.parse_tags")
        ),
        "datasets.rows": tracer.rows,
        "choice_model.fit_calls": calls["choice_model.fit"],
        "choice_model.fit_s": total["choice_model.fit"],
        "choice_model.fit_ms.p50": _percentile(sorted(fit_ms), 50.0) if fit_ms else 0.0,
        "choice_model.fit_ms.tail": fit_tail,
        "choice_model.iterations": sum(t.iterations for t in fits),
        "choice_model.fit_errors": failed["choice_model.fit"],
        "choice_model.unconverged": sum(1 for t in fits if not t.converged),
        "choice_model.converged_ratio": (
            sum(1 for t in fits if t.converged) / len(fits) if fits else 0.0
        ),
        "choice_model.grad_inf_max": max(
            (grad_inf(g, t) for g, t in tracer.fits), default=0.0
        ),
        "pipeline.fit_tournament.self_s": self_s["pipeline.fit_tournament"],
        "pipeline.self_s": self_s["pipeline.run"],
        "pipeline.run_s": total["pipeline.run"],
        "pipeline.write_s": total["pipeline.write"],
        "pipeline.report_bytes": tracer.report_bytes,
        "bias.bootstrap_ci_s": total["bias.bootstrap_ci"],
        "bias.rank_curve_s": total["bias.rank_curve"],
        "bias.median_percentile_s": total["bias.median_percentile_rank"],
        "stats.percentile_rank_calls": calls["stats.percentile_rank"],
        "stats.percentile_rank_s": total["stats.percentile_rank"],
        "stats.binomial_s": total["stats.binomial_two_sided"],
        "tags.aggregate_s": total["tags.aggregate"],
        "tags.distinctive_s": total["tags.distinctive"],
        "tags.vocabulary": vocabulary,
        "tags.ranked": ranked,
        "tournament.simulate_s": total["tournament.simulate"],
        "tournament.schedule_s": total["tournament.schedule"],
        "tournament.kendall_s": total["tournament.kendall"],
        "cli.main_s": total["cli.main"],
        "trace.overhead_s": total["cli.main"] - untraced_median_s,
    }
    main_s = total["cli.main"]
    notes = {
        "fit_ms_tail": tail_label,
        "fit_share_of_main": total["choice_model.fit"] / main_s if main_s else 0.0,
        "self_s_ranking": sorted(
            ((n, round(self_s[n], 6)) for n in calls), key=lambda kv: -kv[1]
        ),
        "calls": dict(sorted(calls.items())),
        "layers_not_run": sorted(
            {n.split(".")[0] for _, _, n in LOOKUPS} - {n.split(".")[0] for n in calls}
        ),
    }
    return metrics, notes


def _call_main(argv: list[str]) -> tuple[float, object]:
    start = time.perf_counter()
    try:
        rc = duelbias.cli.main(argv)
    except Exception as exc:  # reported as a failed run, not a crash
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc


def main() -> None:
    result_path, spans_path, seconds, out_dir, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    deadline = time.perf_counter() + float(seconds)
    runs = []

    def run(label: str) -> None:
        elapsed, rc = _call_main([*args, "--output-dir", out_dir])
        kept = f"{out_dir}-{label}"
        if os.path.isdir(out_dir):
            os.replace(out_dir, kept)
        runs.append({"label": label, "seconds": elapsed, "rc": rc, "out_dir": kept})

    run("untraced-0")
    tracer = Tracer()
    tracer.install()
    try:
        run("traced")
    finally:
        tracer.restore()
    run("untraced-1")
    k = 2
    while time.perf_counter() + runs[0]["seconds"] <= deadline:
        run(f"untraced-{k}")
        k += 1

    untraced = sorted(r["seconds"] for r in runs if r["label"] != "traced")
    metrics, notes = layer_metrics(tracer, _percentile(untraced, 50.0))
    tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"runs": runs, "metrics": metrics, "notes": notes}, f, indent=1)


if __name__ == "__main__":
    main()
