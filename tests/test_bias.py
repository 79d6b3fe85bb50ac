import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias.bias import (
    DEFAULT_RANK_GRID,
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
from duelbias import bias as bias_mod
from duelbias import pipeline, tournament
from duelbias.errors import UnstableBootstrapError, ValidationError
from duelbias.pipeline import AnalysisConfig, dump_report, run_pipeline
from duelbias.records import DuelRecord, ItemCatalog, ItemRecord
from duelbias.settings import BLOCK_VALUES
from duelbias.stats import midpoint_ranks, percentile_rank
from duelbias.tournament import simulate_rank_recovery
from oracles import loop_resample_two_groups


GRID_ERROR = r"^grid percentiles must lie in \[0, 100\]: "


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

    @pytest.mark.parametrize("a, b", [
        ([0.0, 1.0], [1.0, 2.0]),
        ([-1.0, 1.0], [1.0, 2.0]),
        ([math.inf, 1.0], [1.0, 2.0]),
        ([1.0, 2.0], [1.0, math.nan]),
    ])
    def test_score_not_positive_and_finite_rejected(self, a, b):
        # numpy's RuntimeWarnings are errors in this suite: none may be raised
        with pytest.raises(ValidationError, match="positive and finite"):
            score_bias(a, b)


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

    @pytest.mark.parametrize("grid", [(-10, 50, 110), (-10,), (110,), (math.nan,)])
    def test_grid_outside_0_to_100_rejected(self, grid):
        with pytest.raises(ValidationError, match=GRID_ERROR):
            rank_curve(np.arange(10.0), np.arange(10.0) + 0.5, grid=grid)

    def test_grid_ends_accepted(self):
        curve = rank_curve(np.arange(10.0), np.arange(10.0) + 0.5, grid=(0, 100))
        assert [p.x for p in curve] == [0.0, 100.0]


def _boundary_replicates(n_a, n_b):
    """Replicate counts one either side of a block boundary of
    resample_two_groups, where that boundary is a cheap replicate count
    for the per-replicate loop (small groups make blocks of thousands)."""
    block = max(1, BLOCK_VALUES // (2 * (n_a + n_b)))
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

    @pytest.mark.parametrize("n_b", [1, 2, 7, 30, 400])
    def test_a_draws_do_not_depend_on_b(self, n_b):
        # against a B of zeros a replicate's difference is exactly -mean(A*),
        # and against an A of zeros exactly mean(B*); so when each group is
        # drawn alone, (a, b) gives their sum, whatever B's size and values
        a = np.round(np.random.default_rng(8).normal(size=30), 1)
        seed = 5
        minus_mean_a, _ = resample_two_groups(a, np.zeros(1), 1000, seed)
        b = np.round(np.random.default_rng(n_b).normal(size=n_b), 1)
        for other in (np.zeros(n_b), b, b[::-1] + 3):
            diffs, _ = resample_two_groups(a, other, 1000, seed)
            mean_b, _ = resample_two_groups(np.zeros(30), other, 1000, seed)
            assert np.array_equal(diffs, mean_b + minus_mean_a)

    @pytest.mark.parametrize("n_a", [1, 2, 7, 30, 400])
    def test_b_draws_do_not_depend_on_a(self, n_a):
        # the mirror image: B's resampled means are the same against an A
        # of any size and values
        b = np.round(np.random.default_rng(9).normal(size=30), 1)
        seed = 6
        mean_b, _ = resample_two_groups(np.zeros(1), b, 1000, seed)
        a = np.round(np.random.default_rng(n_a).normal(size=n_a), 1)
        for other in (np.zeros(n_a), a, a[::-1] - 2):
            diffs, _ = resample_two_groups(other, b, 1000, seed)
            minus_mean_a, _ = resample_two_groups(other, np.zeros(30), 1000, seed)
            assert np.array_equal(diffs, mean_b + minus_mean_a)

    @pytest.mark.parametrize("block_values", [1, 97, 300, 2**20])
    def test_no_output_depends_on_the_block_size(self, monkeypatch, block_values):
        # 13 + 9 items: blocks of 1, 2 and 6 rows, and one of all 301 rows
        rng = np.random.default_rng(12)
        a = np.round(rng.normal(size=13), 1)
        b = np.round(rng.normal(0.3, 1.2, size=9), 1)
        grid = (50,) + DEFAULT_RANK_GRID
        want_diffs, want_rows = resample_two_groups(a, b, 301, 3, grid)
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", block_values)
        diffs, rows = resample_two_groups(a, b, 301, 3, grid)
        assert np.array_equal(diffs, want_diffs)
        assert np.array_equal(rows, want_rows)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            resample_two_groups(np.array([0.0, np.nan]), np.ones(3), 100, 0)

    @pytest.mark.parametrize("grid", [(-10,), (50, 110), (math.nan,)])
    def test_grid_outside_0_to_100_rejected(self, grid):
        with pytest.raises(ValidationError, match=GRID_ERROR):
            resample_two_groups(np.arange(10.0), np.arange(10.0) + 0.5, 100, 0, grid)

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
            # 200 + 200 normals rounded to whole numbers: a few long runs of ties
            tuple(np.round(np.random.default_rng(5).normal(size=(2, 200)))),
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

    @pytest.mark.parametrize(
        "n, grid, bound",
        [(200, DEFAULT_RANK_GRID, 1.5e6), (1000, (), 1.0e6)],
        ids=["grid-200", "pooled-1000"],
    )
    def test_warm_call_scratch_is_bounded(self, n, grid, bound):
        # a large-set run's tournament call (200 + 200 items, rank grid) and
        # pooled call (1000 + 1000 items); the first call pays numpy's
        # one-time allocations
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=n), rng.normal(size=n)
        resample_two_groups(a, b, 1000, 0, grid)
        tracemalloc.start()
        try:
            resample_two_groups(a, b, 1000, 1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a block row holds an index and a value per drawn item; blocks sized
        # as if it held one value per item would peak at 2.34 and 1.50 MB
        assert peak <= bound


def _two_category_set(seed, n_side=6, n_duels=150):
    """Catalog and duels of four tournaments (two categories, two
    dimensions), ``n_side`` items a side, with Bradley-Terry outcomes."""
    rng = np.random.default_rng(seed)
    records, duels = [], []
    for category in ("pizza", "salad"):
        ids = {g: [f"{category}-{g}{i}" for i in range(n_side)] for g in "AB"}
        records += [ItemRecord(i, g, category) for g in "AB" for i in ids[g]]
        for dimension in ("tasty", "healthy"):
            quality = rng.normal(scale=0.5, size=(2, n_side))
            for _ in range(n_duels):
                a, b = rng.integers(n_side, size=2)
                p_a = 1 / (1 + math.exp(quality[1, b] - quality[0, a]))
                duels.append(DuelRecord(
                    f"d{len(duels)}", category, dimension, ids["A"][a],
                    ids["B"][b], "A" if rng.random() < p_a else "B", "r1",
                ))
    return ItemCatalog(records), duels


def _count_calls(monkeypatch, module, name) -> list:
    """Replace ``module.name`` with a wrapper that appends each call's result
    to the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(module, name, counted)
    return calls


class TestBlocksAreInvisible:
    """Every lockstep batch gives the same outputs whatever its blocks: with
    97 values a block, each refit block holds one replicate, each item
    resample a few, and each simulation block a few replicates or one. The
    block counts show that the patched rule is the one that ran."""

    @pytest.mark.parametrize("unit", ["duel", "item"])
    def test_report_is_byte_identical(self, monkeypatch, unit):
        # four tournaments of 12 items and 150 duels, and two pooled
        # resamples of 24 items, at 150 replicates
        catalog, duels = _two_category_set(3)
        config = AnalysisConfig(bootstrap_replicates=150, bootstrap_unit=unit, seed=2)
        # each item resample's rows per block: 150 replicates in blocks of b
        # rows take -(-150 // b) blocks
        blocks = _count_calls(monkeypatch, bias_mod, "rows_per_block")
        refits = _count_calls(monkeypatch, pipeline, "fit_duel_arrays")
        default = dump_report(run_pipeline(config, catalog, duels))
        refit_blocks = 4 if unit == "duel" else 0
        assert (blocks, len(refits)) == ([150] * 6, refit_blocks)
        blocks.clear()
        refits.clear()
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", 97)
        assert dump_report(run_pipeline(config, catalog, duels)) == default
        # item resamples of 4 and 2 rows a block, refit blocks of one row
        assert sum(-(-150 // b) for b in blocks) == 4 * 38 + 2 * 75
        assert len(refits) == 150 * refit_blocks

    def test_recovery_curve_is_equal(self, monkeypatch):
        kwargs = dict(n_items_per_group=5, budgets=(10, 20, 50), replicates=7, seed=4)
        fits = _count_calls(monkeypatch, tournament, "fit_duel_arrays")
        default = simulate_rank_recovery(**kwargs)
        assert len(fits) == 3
        fits.clear()
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", 97)
        assert simulate_rank_recovery(**kwargs) == default
        # blocks of 9, 4 and 1 replicates at budgets 10, 20 and 50
        assert len(fits) == 1 + 2 + 7


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

    def test_constant_dimension_gives_undefined_pairs(self):
        tables = {
            "tasty": {"i1": 1.0, "i2": 2.0, "i3": 4.0},
            "healthy": {"i1": 1.0, "i2": 1.0, "i3": 1.0},
            "cheap": {"i1": 4.0, "i2": 2.0, "i3": 1.0},
        }
        _, r, p = score_correlations(tables)
        assert np.isnan(r[0, 1]) and np.isnan(r[1, 2]) and np.isnan(r[2, 1])
        assert p[0][1] is p[1][0] is p[1][2] is None
        assert r[0, 2] == pytest.approx(-1.0) and p[0][2] is not None
        assert np.allclose(np.diag(r), 1.0)

    def test_equal_scores_off_one_give_undefined_pairs(self):
        # log(1.003) is not the rounded mean of three copies of itself
        items = ("i1", "i2", "i3")
        tables = {
            "tasty": dict(zip(items, (1.0, 2.0, 3.0))),
            "healthy": dict.fromkeys(items, 1.003),
        }
        _, r, p = score_correlations(tables)
        assert np.isnan(r[0, 1]) and np.isnan(r[1, 0])
        assert p[0][1] is p[1][0] is None

    def test_all_ties_report_has_null_correlation(self):
        # every A-B pair duels twice, each side winning once: every score
        # fits to 1 in both dimensions
        items = [ItemRecord(f"{g.lower()}{k}", g, "pizza") for g in "AB" for k in range(2)]
        duels = [
            DuelRecord(f"d{k}", "pizza", dim, a.item_id, b.item_id, winner, "r")
            for k, (dim, a, b, winner) in enumerate(
                product(("tasty", "healthy"), items[:2], items[2:], "AB")
            )
        ]
        config = AnalysisConfig(bootstrap_unit="item", bootstrap_replicates=100)
        bundle = run_pipeline(config, ItemCatalog(items), duels)
        assert bundle["score_correlations"] == {
            "dimensions": ["healthy", "tasty"],
            "r": [[1.0, None], [None, 1.0]],
            "p": [[{"value": 0.0}, None], [None, {"value": 0.0}]],
        }
        dump_report(bundle)  # null, not NaN: the report stays valid JSON


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
    # the interval is for |bias|/2: the image of the bias's CI under d -> |d|/2
    def test_positive_bias(self):
        bound, (low, high) = triangle_lower_bound(0.52, (0.46, 0.56))
        assert bound == pytest.approx(0.26)
        assert low == pytest.approx(0.23)
        assert high == pytest.approx(0.28)

    def test_negative_bias_mirrors_first(self):
        bound, (low, high) = triangle_lower_bound(-0.58, (-0.64, -0.50))
        assert bound == pytest.approx(0.29)
        assert low == pytest.approx(0.25)
        assert high == pytest.approx(0.32)

    def test_zero_bias(self):
        bound, (low, high) = triangle_lower_bound(0.0, (-0.1, 0.1))
        assert bound == 0.0
        assert (low, high) == (0.0, pytest.approx(0.05))

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    def test_interval_is_the_image_of_the_ci(self, bias, a, b):
        ci = (min(a, b), max(a, b))
        bound, (low, high) = triangle_lower_bound(bias, ci)
        assert bound == abs(bias) / 2
        assert 0.0 <= low <= high
        if ci[0] <= bias <= ci[1]:  # a CI that holds the bias holds the bound
            assert low <= bound <= high
        if not ci[0] <= 0.0 <= ci[1]:  # off zero, the width halves
            assert high - low == pytest.approx((ci[1] - ci[0]) / 2, abs=1e-12)
