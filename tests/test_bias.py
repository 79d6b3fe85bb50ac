import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias.bias import (
    _RESAMPLE_BLOCK_VALUES,
    DEFAULT_RANK_GRID,
    _draw_indices,
    _sorted_percentiles,
    bootstrap_ci,
    duel_win_fraction,
    frequency_divergence,
    median_percentile_rank,
    percentile_ci,
    rank_curve,
    rater_macro_average,
    resample_two_groups,
    score_bias,
    score_correlations,
    triangle_lower_bound,
)
from duelbias.errors import UnstableBootstrapError, ValidationError
from duelbias.records import DuelRecord, ItemCatalog, ItemRecord
from duelbias.stats import midpoint_ranks, percentile_rank
from oracles import loop_resample_two_groups


def make_duels(outcomes, rater="r1"):
    """outcomes: iterable of 'A'/'B' winners."""
    return [
        DuelRecord(
            duel_id=f"d{i}",
            category="pizza",
            dimension="tasty",
            item_a=f"a{i}",
            item_b=f"b{i}",
            winner=w,
            rater_id=rater,
        )
        for i, w in enumerate(outcomes)
    ]


class TestWinFraction:
    def test_even_split(self):
        wf = duel_win_fraction(make_duels("AB" * 5))
        assert wf.fraction == 0.5
        assert float(wf.p_value) == pytest.approx(1.0)

    def test_sweep(self):
        wf = duel_win_fraction(make_duels("B" * 10))
        assert wf.fraction == 1.0
        assert float(wf.p_value) == pytest.approx(0.001953125, abs=1e-12)

    def test_zero_wins(self):
        wf = duel_win_fraction(make_duels("A" * 10))
        assert wf.fraction == 0.0
        assert wf.wins == 0
        assert float(wf.p_value) == pytest.approx(0.001953125, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            duel_win_fraction([])


class TestRaterMacroAverage:
    def test_unweighted_over_raters(self):
        duels = make_duels("B" * 8, rater="heavy") + make_duels("A" * 2, rater="light")
        summary = rater_macro_average(duels)
        assert summary.per_rater == {"heavy": 1.0, "light": 0.0}
        assert summary.macro_mean == pytest.approx(0.5)

    def test_histogram_bins(self):
        duels = make_duels("BBBA", rater="x") + make_duels("BA", rater="y")
        summary = rater_macro_average(duels)
        # x: 0.75, y: 0.5
        counts = {
            (low, high): c for low, high, c in summary.histogram if c
        }
        assert counts == {(0.5, 0.55): 1, (0.75, 0.8): 1}

    def test_fraction_one_lands_in_top_bin(self):
        summary = rater_macro_average(make_duels("BB"))
        top = summary.histogram[-1]
        assert top[1] == pytest.approx(1.0)
        assert top[2] == 1


class TestScoreBias:
    def test_log_scale_example(self):
        # log means: (ln 2 + ln 4)/2 - (ln 1 + ln 3)/2 = ln(8/3)/2... compute directly
        got = score_bias([1.0, 3.0], [2.0, 4.0])
        expected = (math.log(2) + math.log(4)) / 2 - (math.log(1) + math.log(3)) / 2
        assert got == pytest.approx(expected)

    def test_sign_flips_when_groups_swap(self):
        a, b = [1.0, 2.0], [3.0, 5.0]
        assert score_bias(a, b) == pytest.approx(-score_bias(b, a))

    @given(
        st.lists(st.floats(0.01, 100), min_size=1, max_size=10),
        st.lists(st.floats(0.01, 100), min_size=1, max_size=10),
        st.integers(-6, 6),
    )
    @settings(max_examples=200)
    def test_log_bias_gauge_invariance(self, a, b, j):
        k = 2.0**j
        base = score_bias(a, b)
        scaled = score_bias([k * x for x in a], [k * x for x in b])
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_empty_group_rejected(self):
        with pytest.raises(ValidationError):
            score_bias([], [1.0])


def _numpy_cases(seed, count=200):
    """Value arrays of 1 to 40 rows and 1 to 3 columns, rounded so that they
    hold ties, some with NaN, inf, -inf or huge values, and none mixing
    -0.0 with 0.0 (the sort and numpy's partition may order those apart)."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n, k = int(rng.integers(1, 41)), int(rng.integers(1, 4))
        values = np.round(rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 3), 2)
        if t % 3 == 0:
            special = [np.nan, np.inf, -np.inf, 1e308, -1e308]
            values[rng.integers(n), rng.integers(k)] = rng.choice(special)
        values[values == 0] = -0.0 if t % 2 else 0.0
        yield values


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.array_equal(x, y, equal_nan=True) and np.array_equal(
        np.signbit(x), np.signbit(y)
    )


class TestBootstrapCI:
    def test_deterministic_for_seed(self):
        data = list(np.random.default_rng(0).normal(size=40))
        r1 = bootstrap_ci(data, np.mean, replicates=200, seed=5)
        r2 = bootstrap_ci(data, np.mean, replicates=200, seed=5)
        assert r1 == r2

    def test_constant_statistic_gives_degenerate_interval(self):
        point, low, high = bootstrap_ci([1, 2, 3], lambda _: 7.0, replicates=100)
        assert (point, low, high) == (7.0, 7.0, 7.0)

    def test_interval_brackets_point_for_mean(self):
        data = list(np.random.default_rng(1).normal(size=60))
        point, low, high = bootstrap_ci(data, np.mean, replicates=500, seed=2)
        assert low <= point <= high

    def test_interval_narrows_with_sample_size(self):
        rng = np.random.default_rng(4)
        small = list(rng.normal(size=20))
        large = list(rng.normal(size=2000))
        _, lo_s, hi_s = bootstrap_ci(small, np.mean, replicates=300, seed=0)
        _, lo_l, hi_l = bootstrap_ci(large, np.mean, replicates=300, seed=0)
        assert hi_l - lo_l < hi_s - lo_s

    def test_unstable_statistic_raises(self):
        def fragile(sample):
            if len(set(sample)) < 2:
                raise ValueError("degenerate")
            return float(np.mean(sample))

        with pytest.raises(UnstableBootstrapError):
            bootstrap_ci([1.0, 2.0], fragile, replicates=200, seed=0)

    def test_programming_error_propagates(self):
        def broken(sample):
            if len(set(sample)) < 2:
                raise TypeError("bug in the statistic")
            return float(np.mean(sample))

        with pytest.raises(TypeError, match="bug in the statistic"):
            bootstrap_ci([1.0, 2.0], broken, replicates=200, seed=0)

    def test_too_few_replicates(self):
        with pytest.raises(ValidationError):
            bootstrap_ci([1, 2, 3], np.mean, replicates=50)


class TestPercentileCI:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_equal_to_numpy_percentile(self):
        for values in _numpy_cases(0):
            for v in (values, values[:, 0], list(values[:, 0])):
                want = np.percentile(v, [2.5, 97.5], axis=0)
                assert _same_bits(percentile_ci(v), want), v


class TestMedianPercentileRank:
    def test_identical_distributions_near_50(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert median_percentile_rank(xs, xs) == pytest.approx(50.0)

    def test_dominant_group_b(self):
        assert median_percentile_rank([1, 2, 3], [10, 20, 30]) == 100.0

    def test_dominated_group_b(self):
        assert median_percentile_rank([10, 20, 30], [1, 2, 3]) == 0.0

    def test_hand_example(self):
        # median of B is 3.5; two of four A-scores lie below it
        assert median_percentile_rank([1, 2, 4, 5], [3, 4]) == 50.0

    def test_median_has_numpy_bits(self):
        a = [-1.0, 0.1, 0.2, 0.30000000000000004, 2.0]
        for b in _numpy_cases(1):
            b = b[:, 0]
            want = percentile_rank(float(np.median(b)), a)
            assert _same_bits(median_percentile_rank(a, b), want), b
        # the two middle values' mean rounds: 0.1 + 0.2 is not 0.3
        assert median_percentile_rank(a, [0.1, 0.2]) == percentile_rank(0.15, a)
        assert median_percentile_rank(a, [5.0, 0.2, 0.1, -3.0]) == 40.0


class TestRankCurve:
    def test_shifted_grid_example(self):
        curve = rank_curve([2, 3, 4, 5], [1, 2, 3, 4], grid=(25, 50, 75))
        ys = [p.y for p in curve]
        assert ys == [pytest.approx(0.0), pytest.approx(25.0), pytest.approx(50.0)]
        for p in curve:
            assert p.y < p.x

    def test_identity_when_groups_match(self):
        xs = list(range(1, 101))
        curve = rank_curve(xs, xs, grid=(10, 50, 90))
        for p in curve:
            assert p.y == pytest.approx(p.x, abs=1.0)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=25),
        st.lists(st.floats(-50, 50), min_size=2, max_size=25),
    )
    @settings(max_examples=200)
    def test_monotone_nondecreasing(self, a, b):
        curve = rank_curve(a, b, grid=(10, 25, 50, 75, 90))
        ys = [p.y for p in curve]
        assert all(y1 <= y2 for y1, y2 in zip(ys, ys[1:]))

    def test_median_point_matches_median_percentile(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=15)
            b = rng.normal(size=17)
            (point,) = rank_curve(a, b, grid=(50,))
            assert point.y == pytest.approx(median_percentile_rank(a, b))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_percentiles_have_numpy_bits(self):
        a = np.linspace(-3, 3, 11)
        grid = (0, 2.5, 10, 33.3, 50, 90, 100)
        for b in _numpy_cases(2):
            want = midpoint_ranks(np.percentile(b[:, 0], grid), a)
            got = [p.y for p in rank_curve(a, b[:, 0], grid)]
            assert _same_bits(got, want), b

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_curve([], [1.0])


def _boundary_replicates(n_a, n_b):
    """Replicate counts one either side of a block boundary of
    resample_two_groups, where that boundary is a cheap replicate count
    for the per-replicate loop (small groups make blocks of thousands)."""
    block = max(1, _RESAMPLE_BLOCK_VALUES // (n_a + n_b))
    boundary = block * -(-101 // block)
    return (boundary - 1, boundary + 1) if boundary <= 2000 else ()


class TestResampleTwoGroups:
    @pytest.mark.parametrize(
        "n_a, n_b",
        [(1, 2), (2, 7), (7, 1), (13, 9), (400, 400), (1000, 1000), (400, 1000)],
    )
    @pytest.mark.parametrize("grid", [(), (50,) + DEFAULT_RANK_GRID, (0, 100)])
    def test_bit_identical_to_per_replicate_loop(self, n_a, n_b, grid):
        rng = np.random.default_rng(n_a * 1009 + n_b)
        # rounded normals give ties within and between the groups
        a = np.round(rng.normal(size=n_a), 1)
        b = np.round(rng.normal(0.3, 1.2, size=n_b), 1)
        for replicates in (100, 1000) + _boundary_replicates(n_a, n_b):
            seed = replicates + len(grid)
            diffs, rows = resample_two_groups(a, b, replicates, seed, grid)
            want_diffs, want_rows = loop_resample_two_groups(
                a, b, replicates, seed, grid
            )
            assert np.array_equal(diffs, want_diffs), replicates
            assert np.array_equal(rows, want_rows), replicates
            assert rows.shape == (replicates, len(grid))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            resample_two_groups(np.array([0.0, np.nan]), np.ones(3), 100, 0)

    @pytest.mark.parametrize("a, b", [([], [1.0, 2.0]), ([1.0, 2.0], [])])
    def test_empty_group_rejected(self, a, b):
        with pytest.raises(ValidationError):
            resample_two_groups(np.array(a), np.array(b), 100, 0, (50,))

    @pytest.mark.parametrize(
        "a, b",
        [
            # a constant A group: every grid percentile ties all of A or none
            ([0.3] * 40, [0.1, 0.3, 0.3, 0.5, 0.3, 0.2, 0.7]),
            # -0.0 and 0.0 compare equal, so they tie within and across groups
            ([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.0], [0.0, -0.0, -0.0, 0.5, 0.0]),
        ],
    )
    def test_ties_bit_identical_to_per_replicate_loop(self, a, b):
        a, b = np.array(a), np.array(b)
        grid = (50,) + DEFAULT_RANK_GRID + (0, 100)
        for replicates, seed in ((100, 0), (1000, 7)):
            diffs, rows = resample_two_groups(a, b, replicates, seed, grid)
            want_diffs, want_rows = loop_resample_two_groups(
                a, b, replicates, seed, grid
            )
            assert np.array_equal(diffs, want_diffs)
            assert np.array_equal(rows, want_rows)

    @pytest.mark.parametrize(
        "a, b",
        [
            # a resample holding -inf and inf can have a NaN grid percentile
            ([0, 1, 2, 3], [-np.inf, 0.5, np.inf, 1.5, np.inf]),
            ([0, np.inf, 2, 3], [0, 0.5, 1.5]),
            ([0, -np.inf, 2, 3], [0, 0.5, 1.5]),
            ([0, 1, 2, 3], [0, -np.inf, 1.5]),
        ],
    )
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValidationError):
            resample_two_groups(
                np.array(a, dtype=float), np.array(b, dtype=float), 100, 0, (50, 5, 95)
            )

    @pytest.mark.parametrize(
        "n, grid", [(1000, ()), (200, tuple(range(5, 101, 5)))]
    )
    def test_memory_stays_flat_in_replicates(self, n, grid):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=n), rng.normal(size=n)
        tracemalloc.start()
        try:
            resample_two_groups(a, b, 1000, 0, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (1000, 1000) int64 index matrix alone would take 7.6 MiB
        assert peak < 4 * 2**20


class TestDrawIndices:
    @pytest.mark.parametrize(
        "bounds, widths",
        [
            # powers of two reject nothing; 400 and 3 reject about 300 and 1
            # raw values in 2**32, so these blocks take the multiply-shift
            ((400, 3), (400, 3)),
            ((2**20, 7, 2), (5, 9, 1)),
            # 2**31 + 1 rejects about half of all raw values: every block
            # falls back to the per-index call
            ((2**31 + 1,), (6,)),
            ((13, 2**31 + 1), (4, 3)),
            # numpy draws nothing for a bound of 1
            ((1, 200), (1, 200)),
            ((1,), (5,)),
        ],
    )
    def test_same_values_and_stream_as_per_index_bounds(self, bounds, widths):
        for seed in range(5):
            for m in (1, 3, 64):
                rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
                out = np.empty((m, sum(widths)), dtype=np.uint64)
                got = _draw_indices(rng, bounds, widths, out)
                want = want_rng.integers(
                    0, np.repeat(bounds, widths), size=(m, sum(widths))
                )
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (seed, m)
                assert rng.integers(0, 2**63) == want_rng.integers(0, 2**63)


class TestSortedPercentiles:
    GRID = (0, 2.5, 5, 33.3, 50, 66.7, 95, 97.5, 100)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.7], [-0.0], [0.0]],
            [[1.0, 2.0], [-0.0, 0.0], [0.0, -0.0], [3.0, 3.0]],
            [[0.1, 0.2, 0.4], [-1.0, -0.0, 0.0], [0.5, 0.5, 0.5]],
            [[0.1, 0.2, 0.2, 0.9], [-0.0, -0.0, 0.0, 0.0], [-2.0, -1.5, 1e300, 1e300]],
        ],
    )
    def test_equal_to_numpy_percentile(self, rows):
        rows = np.sort(np.array(rows), axis=1)
        for grid in (self.GRID, (50,) + DEFAULT_RANK_GRID, (100, 0)):
            got = _sorted_percentiles(rows, grid)
            want = np.percentile(rows, grid, axis=1).T
            assert np.array_equal(got, want), grid
            assert np.array_equal(np.signbit(got), np.signbit(want)), grid

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 201])
    def test_equal_on_rounded_normal_rows(self, n):
        rng = np.random.default_rng(n)
        rows = np.sort(np.round(rng.normal(size=(30, n)), 1), axis=1)
        got = _sorted_percentiles(rows, self.GRID)
        assert np.array_equal(got, np.percentile(rows, self.GRID, axis=1).T)


class TestScoreCorrelations:
    def test_perfectly_aligned_dimensions(self):
        tables = {
            "tasty": {"i1": 1.0, "i2": 2.0, "i3": 4.0},
            "healthy": {"i1": 2.0, "i2": 4.0, "i3": 8.0},
        }
        dims, r, p = score_correlations(tables)
        assert dims == ("tasty", "healthy")
        assert r[0, 1] == pytest.approx(1.0)
        assert r[1, 0] == pytest.approx(1.0)
        assert np.allclose(np.diag(r), 1.0)

    def test_item_set_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            score_correlations({"u": {"i1": 1.0}, "v": {"i2": 1.0}})


class TestFrequencyDivergence:
    def catalog(self):
        items = []
        counts = {"pizza": (4, 2), "salad": (1, 3), "burger": (5, 5)}
        k = 0
        for cat, (na, nb) in counts.items():
            for _ in range(na):
                items.append(ItemRecord(f"x{k}", "A", cat, ""))
                k += 1
            for _ in range(nb):
                items.append(ItemRecord(f"x{k}", "B", cat, ""))
                k += 1
        return ItemCatalog(items)

    def test_frequencies_and_ratio(self):
        comp = frequency_divergence(self.catalog())
        freq = dict(zip(comp.categories, zip(comp.freq_a, comp.freq_b)))
        assert freq["pizza"] == (pytest.approx(0.4), pytest.approx(0.2))
        ratio = dict(zip(comp.categories, comp.ratio_b_over_a))
        assert ratio["pizza"] == pytest.approx(0.5)
        assert ratio["salad"] == pytest.approx(3.0)

    def test_absent_category_gets_infinite_ratio(self):
        items = [
            ItemRecord("a1", "A", "pizza", ""),
            ItemRecord("a2", "A", "pizza", ""),
            ItemRecord("a3", "A", "burger", ""),
            ItemRecord("b1", "B", "pizza", ""),
            ItemRecord("b2", "B", "pizza", ""),
            ItemRecord("b3", "B", "salad", ""),
            ItemRecord("b4", "B", "burger", ""),
        ]
        comp = frequency_divergence(ItemCatalog(items))
        ratio = dict(zip(comp.categories, comp.ratio_b_over_a))
        assert math.isinf(ratio["salad"])

    def test_single_category_rejected(self):
        items = [ItemRecord("a", "A", "pizza", ""), ItemRecord("b", "B", "pizza", "")]
        with pytest.raises(ValidationError):
            frequency_divergence(ItemCatalog(items))


class TestTriangleLowerBound:
    def test_positive_bias(self):
        bound, (low, high) = triangle_lower_bound(0.52, (0.46, 0.56))
        assert bound == pytest.approx(0.26)
        assert low == pytest.approx(0.20)
        assert high == pytest.approx(0.30)

    def test_negative_bias_mirrors_first(self):
        bound, (low, high) = triangle_lower_bound(-0.58, (-0.64, -0.50))
        assert bound == pytest.approx(0.29)
        assert low == pytest.approx(0.21)
        assert high == pytest.approx(0.35)

    def test_zero_bias(self):
        bound, (low, high) = triangle_lower_bound(0.0, (-0.1, 0.1))
        assert bound == 0.0
        assert (low, high) == (pytest.approx(-0.1), pytest.approx(0.1))

    @given(
        st.floats(-2, 2),
        st.floats(0, 0.5),
        st.floats(0, 0.5),
    )
    def test_bound_inside_shifted_interval_width(self, bias, below, above):
        ci = (bias - below, bias + above)
        bound, (low, high) = triangle_lower_bound(bias, ci)
        assert bound == pytest.approx(abs(bias) / 2)
        # interval width is preserved by the shift
        assert high - low == pytest.approx((ci[1] - ci[0]), abs=1e-9)
