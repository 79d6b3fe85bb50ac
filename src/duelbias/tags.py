"""Free-form tag normalization and distinctive-tag ranking.

Raters attach short free-form tags to items. After normalization, tags
most distinctive of each group are ranked by pointwise KL divergence
between the two groups' smoothed tag distributions, with a chi-square
test for significance on each tag that is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .datasets import open_utf8
from .errors import ParseError, ReferentialError, ValidationError
from .records import TagRecord
from .stats import PValue, chi_square_2x2

DEFAULT_SMOOTHING = 0.5
DEFAULT_TOP_K = 20
DEFAULT_MIN_COUNT = 5

_STAR_THRESHOLDS = ((1e-4, "****"), (1e-3, "***"), (1e-2, "**"), (5e-2, "*"))
_DATA = resources.files("duelbias").joinpath("data")  # the packaged tag files


def default_stopword_prefixes() -> frozenset[str]:
    with resources.as_file(_DATA.joinpath("stopword_prefixes.txt")) as path:
        return load_stopword_prefixes(path)


def default_dash_lexicon() -> dict[str, str]:
    with resources.as_file(_DATA.joinpath("dash_lexicon.tsv")) as path:
        return load_dash_lexicon(path)


def load_stopword_prefixes(path) -> frozenset[str]:
    """One prefix word per line, UTF-8."""
    with open_utf8(path) as f:
        return frozenset(line.strip().lower() for line in f if line.strip())


def load_dash_lexicon(path) -> dict[str, str]:
    """Lines of "variant<TAB>canonical", UTF-8."""
    lexicon = {}
    with open_utf8(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(
                    "expected 'variant<TAB>canonical'", line=lineno, path=path
                )
            lexicon[parts[0].strip().lower()] = parts[1].strip().lower()
    return lexicon


def normalize_tag(
    raw: str,
    stopword_prefixes: frozenset[str] | None = None,
    dash_merge_lexicon: Mapping[str, str] | None = None,
) -> list[str]:
    """Split on commas, trim, lowercase, strip leading stopwords, and map
    dash variants to their canonical form. Empty results are dropped."""
    if stopword_prefixes is None:
        stopword_prefixes = default_stopword_prefixes()
    if dash_merge_lexicon is None:
        dash_merge_lexicon = default_dash_lexicon()
    out = []
    for part in raw.split(","):
        tag = part.strip().lower()
        words = tag.split()
        while words and words[0] in stopword_prefixes:
            words = words[1:]
        tag = " ".join(words)
        tag = dash_merge_lexicon.get(tag, tag)
        if tag:
            out.append(tag)
    return out


@dataclass(frozen=True)
class TagDistribution:
    """Normalized-tag counts for one group, with additive smoothing.

    Probabilities are (count + eps) / (total + eps * |vocabulary|), with eps
    ``DEFAULT_SMOOTHING``, where the vocabulary is supplied by the caller
    (usually the union over both groups) so both distributions share the
    same support. ``counts`` must not change after ``total`` is first read.
    """

    counts: dict[str, int]

    @cached_property
    def total(self) -> int:
        return sum(self.counts.values())

    def probability(self, tag: str, vocabulary: Sequence[str]) -> float:
        eps = DEFAULT_SMOOTHING
        denom = self.total + eps * len(vocabulary)
        return (self.counts.get(tag, 0) + eps) / denom

    @classmethod
    def from_tags(cls, tags: Iterable[str]) -> "TagDistribution":
        counts: dict[str, int] = {}
        for tag in tags:
            counts[tag] = counts.get(tag, 0) + 1
        return cls(counts=counts)


def aggregate_tags(
    records: Iterable[TagRecord],
    group_of: Mapping[str, str],
    stopword_prefixes: frozenset[str] | None = None,
    dash_merge_lexicon: Mapping[str, str] | None = None,
) -> dict[str, TagDistribution]:
    """Normalize raw tag records and aggregate per-mention counts by group.

    A record whose item has no group in ``group_of`` raises ReferentialError.
    """
    if stopword_prefixes is None:
        stopword_prefixes = default_stopword_prefixes()
    if dash_merge_lexicon is None:
        dash_merge_lexicon = default_dash_lexicon()
    normalized: dict[str, list[str]] = {}  # raw text -> its tags
    per_group: dict[str, list[str]] = {}
    for rec in records:
        group = group_of.get(rec.item_id)
        if group is None:
            raise ReferentialError(
                f"tag in duel {rec.duel_id!r} references unknown item {rec.item_id!r}"
            )
        tags = normalized.get(rec.raw_text)
        if tags is None:
            tags = normalized[rec.raw_text] = normalize_tag(
                rec.raw_text, stopword_prefixes, dash_merge_lexicon
            )
        per_group.setdefault(group, []).extend(tags)
    return {g: TagDistribution.from_tags(tags) for g, tags in per_group.items()}


def pointwise_kl(p_target: float, p_reference: float) -> float:
    """Per-tag KL contribution p * ln(p/q); positive when the tag is more
    typical of the target distribution."""
    for p in (p_target, p_reference):
        if not 0.0 < p <= 1.0:
            raise ValidationError(
                f"probabilities must be in (0, 1] after smoothing, got {p}"
            )
    return p_target * math.log(p_target / p_reference)


def significance_stars(p: PValue) -> str:
    value = float(p) if p.value is not None else 0.0
    for threshold, stars in _STAR_THRESHOLDS:
        if value < threshold:
            return stars
    return ""


@dataclass(frozen=True)
class DistinctiveTag:
    tag: str
    kl: float
    count_target: int
    count_reference: int
    chi2: float
    p_value: PValue
    stars: str = field(compare=False, default="")


def _rank_direction(
    target: TagDistribution,
    reference: TagDistribution,
    vocabulary: list[str],
    top_k: int,
    min_count: int,
) -> list[DistinctiveTag]:
    total_t, total_r = target.total, reference.total
    candidates = []
    for tag in vocabulary:
        ct = target.counts.get(tag, 0)
        cr = reference.counts.get(tag, 0)
        if ct + cr < min_count:
            continue
        kl = pointwise_kl(
            target.probability(tag, vocabulary), reference.probability(tag, vocabulary)
        )
        candidates.append((-kl, -(ct + cr), tag, ct, cr))
    # tags are distinct, so the order never looks past the tag
    candidates.sort()
    rows = []
    for neg_kl, _, tag, ct, cr in candidates[:top_k]:
        if not 0 < ct + cr < total_t + total_r:
            raise ValidationError(
                f"tag {tag!r}: {ct + cr} of {total_t + total_r} tag mentions, so "
                "its 2x2 chi-square table has an empty column"
            )
        chi2, p = chi_square_2x2([[ct, total_t - ct], [cr, total_r - cr]])
        rows.append(
            DistinctiveTag(
                tag=tag,
                kl=-neg_kl,
                count_target=ct,
                count_reference=cr,
                chi2=chi2,
                p_value=p,
                stars=significance_stars(p),
            )
        )
    return rows


def distinctive_tags(
    tags_a: TagDistribution,
    tags_b: TagDistribution,
    top_k: int = DEFAULT_TOP_K,
    min_count: int = DEFAULT_MIN_COUNT,
) -> tuple[list[DistinctiveTag], list[DistinctiveTag]]:
    """Tags most distinctive of group A and of group B, ranked by pointwise
    KL divergence on smoothed probabilities over the union vocabulary.

    Tags with fewer than min_count total mentions are dropped, and at most
    top_k (at least 1) are kept per group. Each entry carries the 2x2
    chi-square statistic (tag vs. rest, group vs. group), its p-value, and
    star annotations (* <0.05 up to **** <0.0001).
    """
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    if tags_a.total == 0 or tags_b.total == 0:
        raise ValidationError("both tag distributions must be non-empty")
    vocabulary = sorted(set(tags_a.counts) | set(tags_b.counts))
    list_a = _rank_direction(tags_a, tags_b, vocabulary, top_k, min_count)
    list_b = _rank_direction(tags_b, tags_a, vocabulary, top_k, min_count)
    return list_a, list_b
