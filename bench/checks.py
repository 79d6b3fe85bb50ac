"""Output checks for one CLI run. Each returns a list of failure messages."""

from __future__ import annotations

import csv
import json
import math
import os

SCORE_BIAS_TOLERANCE = 1e-9
# README calibration of the default rater-normal outcome model: 500 duels
# over 100 items recover a ranking with mean Kendall tau of about 0.80.
CALIBRATION_BUDGET = 500
CALIBRATION_TAU = 0.80
CALIBRATION_TOLERANCE = 0.10


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _groups(items_csv: str) -> dict[str, str]:
    with open(items_csv, encoding="utf-8", newline="") as f:
        return {row["item_id"]: row["group"] for row in csv.DictReader(f)}


def check_report(out_dir: str, items_csv: str) -> list[str]:
    """report.json is strict JSON and each tournament's score bias matches
    its scores: mean log-score of B minus mean log-score of A."""
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path, encoding="utf-8") as f:
            report = json.loads(f.read(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"]
    group_of = _groups(items_csv)
    errors = []
    tournaments = report.get("tournaments") or {}
    if not tournaments:
        errors.append("report.json: no tournaments")
    for key, t in sorted(tournaments.items()):
        logs = {"A": [], "B": []}
        for item, score in t["scores"].items():
            logs[group_of[item]].append(math.log(score))
        if not logs["A"] or not logs["B"]:
            errors.append(f"{key}: a group has no scores")
            continue
        expected = math.fsum(logs["B"]) / len(logs["B"]) - math.fsum(logs["A"]) / len(
            logs["A"]
        )
        point = t["score_bias"]["point"]
        if abs(point - expected) > SCORE_BIAS_TOLERANCE:
            errors.append(f"{key}: score_bias.point {point!r} != {expected!r}")
        low, high = t["score_bias"]["ci"]
        if not low <= high:
            errors.append(f"{key}: score_bias.ci [{low!r}, {high!r}] is reversed")
    return errors


def check_recovery(out_dir: str) -> list[str]:
    """mean_tau lies in [-1, 1] and matches the README calibration at 500."""
    path = os.path.join(out_dir, "recovery_curve.csv")
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return [f"recovery_curve.csv: {exc}"]
    errors = []
    by_budget = {}
    for row in rows:
        tau = float(row["mean_tau"])
        by_budget[int(row["budget"])] = tau
        if not -1.0 <= tau <= 1.0:
            errors.append(f"budget {row['budget']}: mean_tau {tau!r} outside [-1, 1]")
    tau = by_budget.get(CALIBRATION_BUDGET)
    if tau is None:
        errors.append(f"recovery_curve.csv: no row for budget {CALIBRATION_BUDGET}")
    elif abs(tau - CALIBRATION_TAU) > CALIBRATION_TOLERANCE:
        errors.append(
            f"budget {CALIBRATION_BUDGET}: mean_tau {tau!r} not within "
            f"{CALIBRATION_TAU} +/- {CALIBRATION_TOLERANCE}"
        )
    return errors


def check_tags(out_dir: str, top_k: int) -> list[str]:
    """At most ``top_k`` rows per group, sorted by descending kl."""
    path = os.path.join(out_dir, "distinctive_tags.csv")
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        return [f"distinctive_tags.csv: {exc}"]
    errors = []
    per_group: dict[str, list[float]] = {}
    for row in rows:
        per_group.setdefault(row["group"], []).append(float(row["kl"]))
    if sorted(per_group) != ["A", "B"]:
        errors.append(f"distinctive_tags.csv: groups {sorted(per_group)}")
    for group, kls in sorted(per_group.items()):
        if len(kls) > top_k:
            errors.append(f"group {group}: {len(kls)} rows > top_k {top_k}")
        if any(x < y for x, y in zip(kls, kls[1:])):
            errors.append(f"group {group}: rows not sorted by descending kl")
    return errors
