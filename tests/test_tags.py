import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias.errors import ParseError, ReferentialError, ValidationError
from duelbias.records import TagRecord
from duelbias.tags import (
    TagDistribution,
    aggregate_tags,
    default_dash_lexicon,
    default_stopword_prefixes,
    distinctive_tags,
    load_dash_lexicon,
    load_stopword_prefixes,
    normalize_tag,
    pointwise_kl,
    significance_stars,
)
from duelbias.stats import PValue
from oracles import (
    all_rows_distinctive_tags,
    chi2_stat_observed_expected,
    per_record_aggregate_tags,
)


class TestNormalizeTag:
    def test_comma_split_and_lowercase(self):
        assert normalize_tag("Fresh, GREEN, crispy") == ["fresh", "green", "crispy"]

    def test_strips_leading_stopwords(self):
        assert normalize_tag("looks delicious") == ["delicious"]
        assert normalize_tag("very very tasty") == ["tasty"]
        assert normalize_tag("seems appears healthy") == ["healthy"]

    def test_stopword_only_tag_dropped(self):
        assert normalize_tag("looks") == []
        assert normalize_tag("very, fresh") == ["fresh"]

    def test_dash_variants_merge(self):
        assert normalize_tag("mouth watering") == ["mouth-watering"]
        assert normalize_tag("mouthwatering") == ["mouth-watering"]
        assert normalize_tag("mouth-watering") == ["mouth-watering"]

    def test_interior_stopwords_kept(self):
        assert normalize_tag("tastes very good") == ["tastes very good"]

    def test_idempotent(self):
        samples = [
            "Looks Mouth Watering, fresh",
            "very tasty",
            "GREEN,  , crispy",
        ]
        for raw in samples:
            once = normalize_tag(raw)
            again = [t for tag in once for t in normalize_tag(tag)]
            assert once == again

    def test_custom_resources(self):
        tags = normalize_tag(
            "totally rad",
            stopword_prefixes=frozenset({"totally"}),
            dash_merge_lexicon={"rad": "radical"},
        )
        assert tags == ["radical"]

    def test_default_resources_load(self):
        assert "looks" in default_stopword_prefixes()
        assert default_dash_lexicon()["mouthwatering"] == "mouth-watering"

    def test_default_resources_are_the_packaged_files_as_written(self):
        # the packaged files are lowercase with two fields per lexicon line,
        # so the user-file loaders read them verbatim
        data = resources.files("duelbias").joinpath("data")
        lines = {
            name: [
                line.strip()
                for line in data.joinpath(name).read_text("utf-8").splitlines()
                if line.strip()
            ]
            for name in ("stopword_prefixes.txt", "dash_lexicon.tsv")
        }
        assert default_stopword_prefixes() == frozenset(lines["stopword_prefixes.txt"])
        assert default_dash_lexicon() == dict(
            line.split("\t") for line in lines["dash_lexicon.tsv"]
        )

    def test_user_files_lowercased_and_blank_lines_skipped(self, tmp_path):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text("Looks\n\n  VERY \n", encoding="utf-8")
        assert load_stopword_prefixes(stopwords) == frozenset({"looks", "very"})
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("\nMouth Watering\t Mouth-Watering\n\n", encoding="utf-8")
        assert load_dash_lexicon(lexicon) == {"mouth watering": "mouth-watering"}

    @pytest.mark.parametrize("bad_line", ["no tab", "a\tb\tc"])
    def test_lexicon_line_needs_one_tab(self, tmp_path, bad_line):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text(f"a\tb\n\n{bad_line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_dash_lexicon(lexicon)
        # the layout of every CSV row error
        assert str(info.value) == f"{lexicon}: line 3: expected 'variant<TAB>canonical'"
        assert info.value.line == 3


class TestTagDistribution:
    def test_smoothed_probability(self):
        dist = TagDistribution.from_tags(["x", "x", "y"])
        vocab = ["x", "y", "z"]
        # (2 + 0.5) / (3 + 0.5 * 3)
        assert dist.probability("x", vocab) == pytest.approx(2.5 / 4.5)
        assert dist.probability("z", vocab) == pytest.approx(0.5 / 4.5)

    def test_probabilities_sum_to_one_over_vocabulary(self):
        dist = TagDistribution.from_tags(["a", "b", "b", "c"])
        vocab = ["a", "b", "c", "d", "e"]
        total = sum(dist.probability(t, vocab) for t in vocab)
        assert total == pytest.approx(1.0)


class TestPointwiseKL:
    def test_derived_values(self):
        assert pointwise_kl(0.02, 0.005) == pytest.approx(0.02 * math.log(4.0))
        assert pointwise_kl(0.005, 0.02) == pytest.approx(0.005 * math.log(0.25))

    def test_sign_tracks_direction(self):
        assert pointwise_kl(0.1, 0.01) > 0
        assert pointwise_kl(0.01, 0.1) < 0
        assert pointwise_kl(0.05, 0.05) == 0.0

    def test_rejects_zero_probability(self):
        with pytest.raises(ValidationError):
            pointwise_kl(0.0, 0.1)
        with pytest.raises(ValidationError):
            pointwise_kl(0.1, 0.0)

    @given(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0))
    def test_antisymmetric_ratio(self, p, q):
        # swapping arguments flips the sign of the log factor
        forward = pointwise_kl(p, q)
        backward = pointwise_kl(q, p)
        if p != q:
            assert (forward > 0) != (backward > 0) or forward == backward == 0


class TestSignificanceStars:
    @pytest.mark.parametrize(
        "p, stars",
        [
            (0.2, ""),
            (0.04, "*"),
            (0.009, "**"),
            (0.0009, "***"),
            (0.00009, "****"),
        ],
    )
    def test_thresholds(self, p, stars):
        assert significance_stars(PValue(value=p)) == stars

    def test_underflowed_pvalue_gets_max_stars(self):
        assert significance_stars(PValue(log10_value=-400.0)) == "****"


class TestDistinctiveTags:
    def test_planted_overrepresented_tag_ranks_first(self):
        rng = np.random.default_rng(0)
        common = [f"t{i}" for i in range(20)]
        tags_a = list(rng.choice(common, size=960)) + ["planted"] * 40
        tags_b = list(rng.choice(common, size=990)) + ["planted"] * 10
        dist_a = TagDistribution.from_tags(tags_a)
        dist_b = TagDistribution.from_tags(tags_b)
        list_a, list_b = distinctive_tags(dist_a, dist_b)
        assert list_a[0].tag == "planted"
        assert list_a[0].count_target == 40
        assert float(list_a[0].p_value) < 0.001
        assert list_a[0].stars in ("***", "****")
        assert all(row.tag != "planted" or row.kl < 0 for row in list_b)

    def test_chi2_matches_observed_expected_oracle(self):
        dist_a = TagDistribution.from_tags(["x"] * 40 + ["other"] * 960)
        dist_b = TagDistribution.from_tags(["x"] * 10 + ["other"] * 990)
        list_a, _ = distinctive_tags(dist_a, dist_b)
        row = next(r for r in list_a if r.tag == "x")
        assert row.chi2 == pytest.approx(
            chi2_stat_observed_expected([[40, 960], [10, 990]]), abs=1e-9
        )

    def test_min_count_filter(self):
        dist_a = TagDistribution.from_tags(["rare"] * 2 + ["common"] * 50)
        dist_b = TagDistribution.from_tags(["common"] * 50)
        list_a, _ = distinctive_tags(dist_a, dist_b, min_count=5)
        assert all(row.tag != "rare" for row in list_a)
        list_a2, _ = distinctive_tags(dist_a, dist_b, min_count=2)
        assert any(row.tag == "rare" for row in list_a2)

    def test_top_k_truncates(self):
        tags = [f"t{i}" for i in range(30) for _ in range(6)]
        dist_a = TagDistribution.from_tags(tags)
        dist_b = TagDistribution.from_tags(tags[::-1])
        list_a, _ = distinctive_tags(dist_a, dist_b, top_k=7)
        assert len(list_a) == 7

    def test_tie_break_is_deterministic(self):
        # symmetric counts force equal KL; ties break by total count then name
        dist_a = TagDistribution.from_tags(["b"] * 10 + ["a"] * 10 + ["z"] * 30)
        dist_b = TagDistribution.from_tags(["b"] * 5 + ["a"] * 5 + ["z"] * 40)
        list_a, _ = distinctive_tags(dist_a, dist_b)
        tied = [r.tag for r in list_a if r.count_target == 10]
        assert tied == sorted(tied)

    def test_tag_without_a_chi_square_test_rejected(self):
        # the only tag of both groups leaves its 2x2 table a column of zeros
        dist = TagDistribution.from_tags(["fresh"] * 6)
        with pytest.raises(ValidationError, match="'fresh'"):
            distinctive_tags(dist, dist)
        # a tag that is not kept is not tested
        assert distinctive_tags(dist, dist, min_count=13) == ([], [])

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_below_1_rejected(self, top_k):
        dist = TagDistribution.from_tags(["fresh"] * 6 + ["crisp"] * 6)
        with pytest.raises(ValidationError, match=f"top_k must be >= 1, got {top_k}"):
            distinctive_tags(dist, dist, top_k=top_k)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValidationError):
            distinctive_tags(
                TagDistribution.from_tags([]), TagDistribution.from_tags(["x"])
            )


class TestAggregateTags:
    def test_per_mention_counts_by_group(self):
        records = [
            TagRecord("d1", item_id="a1", rater_id="r", raw_text="Fresh, looks tasty"),
            TagRecord("d1", item_id="b1", rater_id="r", raw_text="fresh"),
            TagRecord("d2", item_id="a1", rater_id="s", raw_text="fresh"),
        ]
        group_of = {"a1": "A", "b1": "B"}
        dists = aggregate_tags(records, group_of)
        assert dists["A"].counts == {"fresh": 2, "tasty": 1}
        assert dists["B"].counts == {"fresh": 1}

    def test_unknown_item_raises(self):
        records = [TagRecord("d1", item_id="ghost", rater_id="r", raw_text="x")]
        with pytest.raises(
            ReferentialError, match="duel 'd1' references unknown item 'ghost'"
        ):
            aggregate_tags(records, {})


def _tag_log(seed, mirrored):
    """Seeded tag records over a pool of raw texts, each used many times,
    with stopword prefixes, mixed case, comma-joined tags and dash
    variants; each text leans to one group by its own share. Mirrored,
    group B repeats group A's raw texts, so every tag has equal counts and
    a KL of exactly 0; otherwise "salty" and "sweet", which come only as a
    pair, tie on KL and count."""
    rng = np.random.default_rng(seed)
    words = [
        f"{adjective} {noun}"
        for adjective in ("crisp", "soft", "oily", "fresh", "burnt")
        for noun in ("crust", "bun", "rice", "salad", "sauce", "bread")
    ]
    pool = [
        f"{prefix}{word}"
        for word in words
        for prefix in ("", "looks ", "Very ", "SEEMS ")
    ]
    pool += ["mouth watering", "mouthwatering", "salty, sweet", "Fresh bun,, oily rice"]
    share_a = rng.uniform(0.1, 0.9, size=len(pool))
    records = []
    for k in range(1500):
        j = rng.integers(len(pool))
        groups = "AB" if mirrored else "AB"[int(rng.random() > share_a[j])]
        for group in groups:
            item = f"{group.lower()}{rng.integers(5)}"
            records.append(TagRecord(f"d{k}", item, f"r{k % 7}", pool[j]))
    group_of = {f"{g.lower()}{i}": g for g in "AB" for i in range(5)}
    return records, group_of


class TestTagOracle:
    """aggregate_tags and distinctive_tags against the per-record
    normalization and the all-rows ranking they replaced (oracles)."""

    RESOURCES = {
        "default": (None, None),
        "custom": (frozenset({"looks", "very"}), {"thin crust": "thin-crust"}),
    }

    @staticmethod
    def details(rows):
        return [
            (r.tag, r.kl, r.count_target, r.count_reference, r.chi2, r.p_value, r.stars)
            for r in rows
        ]

    @pytest.mark.parametrize("resources", sorted(RESOURCES))
    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_distributions_and_rankings(self, seed, mirrored, resources):
        records, group_of = _tag_log(seed, mirrored)
        stopwords, lexicon = self.RESOURCES[resources]
        dists = aggregate_tags(records, group_of, stopwords, lexicon)
        if resources == "default":
            stopwords, lexicon = default_stopword_prefixes(), default_dash_lexicon()
        expected = per_record_aggregate_tags(records, group_of, stopwords, lexicon)
        assert dists == expected
        assert list(dists) == list(expected)
        for g in dists:
            assert list(dists[g].counts.items()) == list(expected[g].counts.items())

        a, b = dists["A"], dists["B"]
        vocabulary = set(a.counts) | set(b.counts)
        totals = sorted({a.counts.get(t, 0) + b.counts.get(t, 0) for t in vocabulary})
        boundary = totals[len(totals) // 2]
        vocabulary = len(vocabulary)
        for min_count in (boundary, boundary + 1):
            for top_k in (1, 20, vocabulary + 5):
                got = distinctive_tags(a, b, top_k=top_k, min_count=min_count)
                want = all_rows_distinctive_tags(a, b, top_k, min_count)
                assert [self.details(rows) for rows in got] == [
                    self.details(rows) for rows in want
                ]
        # the boundary tags are in at min_count and out one above it
        counted = [
            len(distinctive_tags(a, b, vocabulary, m)[0])
            for m in (boundary, boundary + 1)
        ]
        assert counted[0] > counted[1]
        if mirrored:
            assert {r.kl for r in distinctive_tags(a, b, vocabulary)[0]} == {0.0}
