"""Seeded benchmark inputs.

The demo and large duel sets come from ``scripts/generate_synthetic_dataset.py``,
called unchanged. The large-vocabulary tag log and its catalog are generated
here, because the demo sets carry only eight raw tags.
"""

from __future__ import annotations

import csv
import hashlib
import os
import random
import subprocess
import sys

GENERATOR = os.path.join("scripts", "generate_synthetic_dataset.py")

LARGE_SET_ARGS = (
    "--items-per-side", "200",
    "--categories", "pizza,salad,burger,pasta,soup",
)

# Two-word tags built from these lists give a vocabulary of a few thousand.
# None of the first words is a stopword prefix, so normalization keeps them.
_ADJECTIVES = (
    "crispy soggy golden burnt fresh stale juicy dry spicy mild sweet sour "
    "bitter salty smoky cheesy creamy crunchy chewy tender tough flaky thick "
    "thin rich light heavy oily lean glossy dull bright pale dark charred "
    "rustic fancy simple messy neat tiny huge hearty delicate bold bland "
    "zesty tangy savory fragrant earthy nutty buttery garlicky herby peppery "
    "lemony fruity sticky silky grainy fluffy dense airy warm cold lukewarm "
    "colorful rainbow"
).split()
_NOUNS = (
    "crust sauce cheese topping bread bun patty leaf dressing broth noodle "
    "edge center plate bowl portion slice layer filling glaze crumb onion "
    "tomato pepper mushroom olive herb basil garlic bacon egg bean rice "
    "lettuce cucumber carrot corn pickle mustard ketchup mayo gravy stock "
    "soup pasta salad burger pizza fries wrap taco roll cake pie cookie "
    "dough skin shell rind"
).split()
# Spellings the packaged dash lexicon merges into one canonical tag.
_LEXICON_VARIANTS = (
    "mouth watering", "mouthwatering", "home made", "homemade", "deep fried",
    "deepfried", "stir fried", "stirfried", "over cooked", "bite sized",
    "bitesized",
)
_PREFIXES = ("", "", "", "", "looks ", "very ", "Seems ", "appears ")

TAG_VOCABULARY = 3000
TAG_ITEMS_PER_GROUP = 100
TAG_ROWS = 36000
GENERATOR_TIMEOUT_S = 120


def run_generator(root: str, out_dir: str, seed: int, extra=()) -> None:
    """Run the repository's dataset generator into ``out_dir``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run(
        [sys.executable, os.path.join(root, GENERATOR), "--out", out_dir,
         "--seed", str(seed), *extra],
        check=True, cwd=root, env=env, stdout=subprocess.DEVNULL,
        timeout=GENERATOR_TIMEOUT_S,
    )


def demo_set(root: str, out_dir: str, seed: int) -> dict[str, str]:
    """Default demo set: 60 items, 600 duels, 6 tournaments of 20 items."""
    run_generator(root, out_dir, seed)
    return {
        "items": os.path.join(out_dir, "items.csv"),
        "duels": os.path.join(out_dir, "duels.csv"),
    }


def large_set(root: str, out_dir: str, seed: int) -> dict[str, str]:
    """2,000 items, 20,000 duels, 10 tournaments of 400 items."""
    run_generator(root, out_dir, seed, LARGE_SET_ARGS)
    return {
        "items": os.path.join(out_dir, "items.csv"),
        "duels": os.path.join(out_dir, "duels.csv"),
    }


def tag_vocab_set(out_dir: str, seed: int) -> dict[str, str]:
    """Catalog plus a tag log over a vocabulary of about 3,000 tags.

    Every tag has a random overall weight and a random split between the
    groups, so the pointwise KL values differ from tag to tag. About 45,000
    mentions over 3,000 tags leave nearly every tag above the CLI's default
    ``--min-count`` of 5. Raw strings carry stopword prefixes, mixed case,
    comma-joined pairs and dash-lexicon spellings, so normalization runs on
    every path.
    """
    rng = random.Random(seed)
    combos = [f"{a} {n}" for a in _ADJECTIVES for n in _NOUNS]
    vocab = rng.sample(combos, TAG_VOCABULARY - len(_LEXICON_VARIANTS))
    vocab += _LEXICON_VARIANTS
    weights = [2.0 + rng.expovariate(1.0) for _ in vocab]
    share_a = [rng.betavariate(2.0, 2.0) for _ in vocab]
    cum = {"A": [], "B": []}
    for group, shares in (("A", share_a), ("B", [1.0 - s for s in share_a])):
        total = 0.0
        for w, s in zip(weights, shares):
            total += w * s
            cum[group].append(total)

    os.makedirs(out_dir, exist_ok=True)
    items_path = os.path.join(out_dir, "items.csv")
    tags_path = os.path.join(out_dir, "tags.csv")
    with open(items_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["item_id", "group", "category", "external_ref"])
        for group in ("A", "B"):
            for i in range(TAG_ITEMS_PER_GROUP):
                writer.writerow([f"{group.lower()}-{i}", group, "dish", ""])
    with open(tags_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["duel_id", "item_id", "rater_id", "raw_tag"])
        for k in range(TAG_ROWS):
            group = "AB"[k % 2]
            item = f"{group.lower()}-{rng.randrange(TAG_ITEMS_PER_GROUP)}"
            parts = rng.choices(vocab, cum_weights=cum[group], k=rng.choice((1, 1, 1, 2)))
            raw = ", ".join(
                rng.choice(_PREFIXES) + (p.upper() if rng.random() < 0.05 else p)
                for p in parts
            )
            writer.writerow([f"t{k}", item, f"r{k % 97}", raw])
    return {"items": items_path, "tags": tags_path}


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()
