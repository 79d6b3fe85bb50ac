"""Free-form tag normalization and distinctive-tag ranking.

Raters attach short free-form tags to items. After normalization, tags
most distinctive of each group are ranked by pointwise KL divergence
between the two groups' smoothed tag distributions, with a chi-square
test for significance on each tag that is kept. The tag stage of a run
(``distinctive_tag_rows``, ``write_distinctive_tags``) lives here too, so
that ``duelbias tags`` runs without numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .datasets import open_utf8, write_csv
from .errors import ParseError, ReferentialError, ValidationError
from .records import GROUP_A, GROUP_B, Frozen, ItemCatalog, TagRecord, TagTable
from .settings import DEFAULT_MIN_COUNT, DEFAULT_TOP_K
from .stats import PValue, chi_square_2x2, pvalue_json

DEFAULT_SMOOTHING = 0.5

_STAR_THRESHOLDS = ((1e-4, "****"), (1e-3, "***"), (1e-2, "**"), (5e-2, "*"))
_DATA = resources.files("duelbias").joinpath("data")  # the packaged tag files


@cache
def default_stopword_prefixes() -> frozenset[str]:
    """The packaged stopword prefixes, read once per process."""
    with resources.as_file(_DATA.joinpath("stopword_prefixes.txt")) as path:
        return load_stopword_prefixes(path)


def default_dash_lexicon() -> dict[str, str]:
    """A copy of the packaged dash lexicon, which is read once per process,
    so that a caller may change it."""
    return dict(_packaged_dash_lexicon())


@cache
def _packaged_dash_lexicon() -> Mapping[str, str]:
    with resources.as_file(_DATA.joinpath("dash_lexicon.tsv")) as path:
        return MappingProxyType(load_dash_lexicon(path))


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
    stopword_prefixes, dash_merge_lexicon = _with_defaults(
        stopword_prefixes, dash_merge_lexicon
    )
    tags = (
        _normalize_part(part, stopword_prefixes, dash_merge_lexicon)
        for part in raw.split(",")
    )
    return [tag for tag in tags if tag]


def _with_defaults(stopword_prefixes, dash_merge_lexicon):
    """The given stopword prefixes and dash lexicon, the packaged one in
    place of None."""
    if stopword_prefixes is None:
        stopword_prefixes = default_stopword_prefixes()
    if dash_merge_lexicon is None:
        dash_merge_lexicon = _packaged_dash_lexicon()
    return stopword_prefixes, dash_merge_lexicon


def _normalize_part(part, stopword_prefixes, dash_merge_lexicon) -> str:
    """The tag of one comma part of a raw text; empty if none is left."""
    words = part.lower().split()
    while words and words[0] in stopword_prefixes:
        words = words[1:]
    tag = " ".join(words)
    return dash_merge_lexicon.get(tag, tag)


class TagDistribution(Frozen):
    """Normalized-tag counts for one group, with additive smoothing.

    Probabilities are (count + eps) / (total + eps * |vocabulary|), with eps
    ``DEFAULT_SMOOTHING``, where the vocabulary is supplied by the caller
    (usually the union over both groups) so both distributions share the
    same support. ``counts`` must not change after the distribution is made,
    which sums them into ``total``.
    """

    __slots__ = ("counts", "total")
    _fields = ("counts",)

    def __init__(self, counts: dict[str, int]):
        self._bind(counts, sum(counts.values()))

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
    Rows are counted once per distinct (group, raw text), and each distinct
    comma part is normalized once; a group's tags keep the order of their
    first mention.
    """
    stopword_prefixes, dash_merge_lexicon = _with_defaults(
        stopword_prefixes, dash_merge_lexicon
    )
    table = TagTable.of(records)
    groups = list(map(group_of.get, table.item_ids))
    if None in groups:
        k = groups.index(None)
        raise ReferentialError(
            f"tag in duel {table.duel_ids[k]!r} references unknown item "
            f"{table.item_ids[k]!r}"
        )
    tag_of: dict[str, str] = {}  # comma part -> its tag, empty if none
    per_group: dict[str, dict[str, int]] = {}
    for (group, raw), n in Counter(zip(groups, table.raw_texts)).items():
        counts = per_group.setdefault(group, {})
        for part in raw.split(","):
            tag = tag_of.get(part)
            if tag is None:
                tag = tag_of[part] = _normalize_part(
                    part, stopword_prefixes, dash_merge_lexicon
                )
            if tag:
                counts[tag] = counts.get(tag, 0) + n
    return {g: TagDistribution(counts) for g, counts in per_group.items()}


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


class DistinctiveTag(Frozen):
    __slots__ = (
        "tag", "kl", "count_target", "count_reference", "chi2", "p_value", "stars"
    )
    _defaults = {"stars": ""}

    def _compared(self) -> tuple:
        return self._values()[:-1]  # not stars


def _rank_direction(
    target: TagDistribution,
    reference: TagDistribution,
    vocabulary: list[str],
    top_k: int,
    min_count: int,
) -> list[DistinctiveTag]:
    total_t, total_r = target.total, reference.total
    # TagDistribution.probability's denominators, computed once per call
    eps = DEFAULT_SMOOTHING
    denom_t, denom_r = (total + eps * len(vocabulary) for total in (total_t, total_r))
    candidates = []
    for tag in vocabulary:
        ct = target.counts.get(tag, 0)
        cr = reference.counts.get(tag, 0)
        if ct + cr < min_count:
            continue
        kl = pointwise_kl((ct + eps) / denom_t, (cr + eps) / denom_r)
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


def check_top_k(top_k: int) -> None:
    """Raise ValidationError unless ``distinctive_tags`` accepts ``top_k``;
    a caller can check it before it reads any input."""
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")


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
    check_top_k(top_k)
    if tags_a.total == 0 or tags_b.total == 0:
        raise ValidationError("both tag distributions must be non-empty")
    vocabulary = sorted(set(tags_a.counts) | set(tags_b.counts))
    list_a = _rank_direction(tags_a, tags_b, vocabulary, top_k, min_count)
    list_b = _rank_direction(tags_b, tags_a, vocabulary, top_k, min_count)
    return list_a, list_b


def distinctive_tag_rows(
    catalog: ItemCatalog,
    tags: Sequence[TagRecord],
    stopwords: frozenset[str] | None = None,
    lexicon: Mapping[str, str] | None = None,
    top_k: int = DEFAULT_TOP_K,
    min_count: int = DEFAULT_MIN_COUNT,
) -> dict[str, list[dict]]:
    """The ``tag_json`` rows of each group's most distinctive tags. Raises
    ValidationError unless the tags cover items from both groups."""
    group_of = {r.item_id: r.group for r in catalog.records}
    dists = aggregate_tags(tags, group_of, stopwords, lexicon)
    if GROUP_A not in dists or GROUP_B not in dists:
        raise ValidationError("tags must cover items from both groups")
    ranked = distinctive_tags(
        dists[GROUP_A], dists[GROUP_B], top_k=top_k, min_count=min_count
    )
    return dict(zip((GROUP_A, GROUP_B), ([tag_json(t) for t in r] for r in ranked)))


def tag_json(t: DistinctiveTag) -> dict:
    return {
        "tag": t.tag,
        "kl": t.kl,
        "count_target": t.count_target,
        "count_reference": t.count_reference,
        "chi2": t.chi2,
        "p": pvalue_json(t.p_value),
        "stars": t.stars,
    }


def write_distinctive_tags(path: str, ranked: Mapping[str, Sequence[dict]]) -> str:
    """Write ``tag_json`` rows per group, ranked from 1; returns the path."""
    header = ["group", "rank", "tag", "kl", "count_target", "count_reference",
              "chi2", "p", "stars"]
    rows = []
    for group in sorted(ranked):
        for rank, t in enumerate(ranked[group], 1):
            p = PValue(value=t["p"].get("value"), log10_value=t["p"].get("log10"))
            rows.append(
                [group, rank, t["tag"], repr(t["kl"]), t["count_target"],
                 t["count_reference"], repr(t["chi2"]), repr(float(p)), t["stars"]]
            )
    return write_csv(path, header, rows)
