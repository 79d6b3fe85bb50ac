#!/usr/bin/env python3
"""Score a ``duelbias bias`` report against its dataset's planted truth.

    python3 scripts/score_report.py REPORT TRUTH

REPORT is a ``report.json``; TRUTH is the ``truth.csv`` that
``scripts/generate_synthetic_dataset.py`` writes next to the inputs, with
one log-quality per item that every dimension shares. For each tournament
the script prints its truth, the mean log-quality of its group B items
minus that of its group A items; the report's score-bias point and its
error, point minus truth; and whether the score-bias CI covers the truth
and the triangle lower bound's CI covers |truth| / 2. For each dimension
it prints the same for the pooled ``mean_category_bias`` against the
equal-weight mean of its tournaments' truths. A last line counts the
tournaments' covers and gives their mean ratio of point to truth.

It reads the report as data and imports nothing of the package, so that it
cannot share a bug it is meant to find.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys


def category_truths(path: str) -> dict[str, float]:
    """Category -> mean log-quality of its group B items minus that of its
    group A items, from a truth.csv."""
    values: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            groups = values.setdefault(row["category"], {"A": [], "B": []})
            groups[row["group"]].append(float(row["log_quality"]))
    return {category: _mean(g["B"]) - _mean(g["A"])
            for category, g in values.items()}


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)


def _scored(truth: float, estimate: dict, bound: dict) -> dict:
    low, high = estimate["ci"]
    bound_low, bound_high = bound["ci"]
    return {
        "truth": truth,
        "point": estimate["point"],
        "error": estimate["point"] - truth,
        "bias_covers": low <= truth <= high,
        "bound_covers": bound_low <= abs(truth) / 2 <= bound_high,
    }


def score(report: dict, truths: dict[str, float]) -> dict[str, dict]:
    """Row name -> the row's truth, point, error, bias_covers and
    bound_covers: one row per tournament, named as in the report, then one
    per dimension, named ``pooled/<dimension>``."""
    rows = {}
    by_dimension: dict[str, list[float]] = {}
    for name in sorted(report["tournaments"]):
        t = report["tournaments"][name]
        truth = truths[t["category"]]
        rows[name] = _scored(truth, t["score_bias"], t["triangle_lower_bound"])
        by_dimension.setdefault(t["dimension"], []).append(truth)
    for dimension in sorted(report["pooled"]):
        pooled = report["pooled"][dimension]
        rows[f"pooled/{dimension}"] = _scored(
            _mean(by_dimension[dimension]), pooled["mean_category_bias"],
            pooled["triangle_lower_bound"],
        )
    return rows


def table(rows: dict[str, dict]) -> list[str]:
    """The rows as aligned text lines under a header, then a summary of the
    tournaments' rows."""
    width = max(len("row"), *map(len, rows))
    lines = [f"{'row':<{width}} {'truth':>8} {'point':>8} {'error':>8}"
             " bias-CI-covers bound-CI-covers"]
    for name, r in rows.items():
        lines.append(
            f"{name:<{width}} {r['truth']:8.4f} {r['point']:8.4f} "
            f"{r['error']:+8.4f} {_yes(r['bias_covers']):>14} "
            f"{_yes(r['bound_covers']):>15}"
        )
    tournaments = [r for name, r in rows.items() if not name.startswith("pooled/")]
    n = len(tournaments)
    bias = sum(r["bias_covers"] for r in tournaments)
    bound = sum(r["bound_covers"] for r in tournaments)
    ratios = [r["point"] / r["truth"] for r in tournaments if r["truth"] != 0]
    ratio = f"{_mean(ratios):.2f}" if ratios else "undefined"
    lines.append(f"tournaments: score-bias CI covers {bias}/{n}, triangle CI "
                 f"covers {bound}/{n}, mean point/truth {ratio}")
    return lines


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("report")
    parser.add_argument("truth")
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as f:
        report = json.load(f)
    print("\n".join(table(score(report, category_truths(args.truth)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
