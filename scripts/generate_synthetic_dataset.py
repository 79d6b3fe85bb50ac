#!/usr/bin/env python3
"""Generate a synthetic demo dataset (items.csv, duels.csv, tags.csv) and
its planted truth (truth.csv).

Items in group B carry a known log-quality offset over group A, duel
outcomes follow the latent-score choice rule, and a few raw tag strings
exercise the normalization pipeline. truth.csv holds each item's drawn
log-quality, shared by every dimension, which ``scripts/score_report.py``
scores a report against. Use the output to try the CLI:

    python3 scripts/generate_synthetic_dataset.py --out demo/
    duelbias bias --items demo/items.csv --duels demo/duels.csv \
        --tags demo/tags.csv --bootstrap 200 --output-dir demo/report
    python3 scripts/score_report.py demo/report/report.json demo/truth.csv
"""

import argparse
import os

import numpy as np

from duelbias.datasets import write_csv, write_duels, write_items, write_tags
from duelbias.records import DuelRecord, ItemCatalog, ItemRecord, TagRecord
from duelbias.tournament import sample_balanced_duels

RAW_TAGS = [
    "fresh",
    "looks tasty",
    "very greasy",
    "mouth watering",
    "mouthwatering",
    "colorful",
    "plain",
    "seems healthy",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo")
    parser.add_argument("--categories", default="pizza,salad,burger")
    parser.add_argument("--dimensions", default="tasty,healthy")
    parser.add_argument("--items-per-side", type=int, default=10)
    parser.add_argument("--duels-per-item", type=int, default=10)
    parser.add_argument("--offset", type=float, default=0.5,
                        help="group B log-quality offset")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    categories = args.categories.split(",")
    dimensions = args.dimensions.split(",")

    items, duels, tags = [], [], []
    log_quality: dict[str, float] = {}
    for cat in categories:
        for i in range(args.items_per_side):
            a_id, b_id = f"a-{cat}-{i}", f"b-{cat}-{i}"
            items.append(ItemRecord(a_id, "A", cat, None))
            items.append(ItemRecord(b_id, "B", cat, None))
            log_quality[a_id] = float(rng.normal(0.0, 0.5))
            log_quality[b_id] = float(rng.normal(args.offset, 0.5))
    quality = {k: float(np.exp(v)) for k, v in log_quality.items()}

    catalog = ItemCatalog(items)
    k = 0
    for cat in categories:
        ids_a = catalog.ids(group="A", category=cat)
        ids_b = catalog.ids(group="B", category=cat)
        for dim in dimensions:
            plan = sample_balanced_duels(
                ids_a, ids_b, args.duels_per_item, seed=args.seed + k
            )
            for a, b in plan.pairs:
                p_a = quality[a] / (quality[a] + quality[b])
                winner = "A" if rng.random() < p_a else "B"
                duel_id = f"d{k}"
                rater = f"r{k % 7}"
                duels.append(DuelRecord(duel_id, cat, dim, a, b, winner, rater))
                tagged = a if rng.random() < 0.5 else b
                tags.append(
                    TagRecord(duel_id, tagged, rater, RAW_TAGS[k % len(RAW_TAGS)])
                )
                k += 1

    os.makedirs(args.out, exist_ok=True)
    write_items(os.path.join(args.out, "items.csv"), catalog)
    write_duels(os.path.join(args.out, "duels.csv"), duels)
    write_tags(os.path.join(args.out, "tags.csv"), tags)
    write_csv(
        os.path.join(args.out, "truth.csv"),
        ["item_id", "group", "category", "log_quality"],
        ((r.item_id, r.group, r.category, repr(log_quality[r.item_id]))
         for r in items),
    )
    print(
        f"wrote {len(items)} items, {len(duels)} duels, {len(tags)} tags "
        f"and their truth to {args.out}/"
    )


if __name__ == "__main__":
    main()
