import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duelbias.stats import (
    PValue,
    average_ranks,
    binomial_two_sided,
    chi_square_2x2,
    midpoint_ranks,
    pearson,
    percentile_rank,
    spearman,
)
from oracles import (
    brute_percentile_rank,
    chi2_stat_observed_expected,
    exact_binomial_two_sided,
)


class TestPValue:
    def test_exactly_one_representation(self):
        with pytest.raises(ValueError):
            PValue()
        with pytest.raises(ValueError):
            PValue(value=0.5, log10_value=-400.0)

    def test_log10_reserved_for_underflow(self):
        with pytest.raises(ValueError):
            PValue(log10_value=-5.0)

    def test_from_log10_switches_representation(self):
        p = PValue.from_log10(-2.0)
        assert p.value == pytest.approx(0.01)
        q = PValue.from_log10(-350.0)
        assert q.log10_value == -350.0
        assert float(q) == 0.0

    def test_log10_agrees_with_value(self):
        assert PValue(value=0.01).log10 == pytest.approx(-2.0)


class TestBinomial:
    def test_null_observation(self):
        assert float(binomial_two_sided(5, 10)) == pytest.approx(1.0)

    def test_extreme_observation(self):
        # 2 * 0.5**10, by exact tail enumeration
        assert float(binomial_two_sided(10, 10)) == pytest.approx(0.001953125, abs=1e-12)
        assert float(binomial_two_sided(0, 10)) == pytest.approx(0.001953125, abs=1e-12)

    def test_matches_exact_enumeration_small_n(self):
        for n in range(1, 21):
            for k in range(n + 1):
                expected = float(exact_binomial_two_sided(k, n))
                assert float(binomial_two_sided(k, n)) == pytest.approx(
                    expected, abs=1e-12
                ), (k, n)

    def test_symmetry(self):
        for n in (7, 12, 33):
            for k in range(n + 1):
                assert binomial_two_sided(k, n).log10 == pytest.approx(
                    binomial_two_sided(n - k, n).log10, rel=1e-9
                )

    def test_underflow_range_uses_log10(self):
        p = binomial_two_sided(7408, 12000)
        assert p.log10 < -100

    def test_deep_underflow(self):
        p = binomial_two_sided(200_000, 200_000)
        assert p.log10_value is not None
        assert p.log10_value == pytest.approx(200_000 * math.log10(0.5) + math.log10(2), rel=1e-6)

    def test_asymmetric_null(self):
        # P(X=0 or outcomes as unlikely) for n=3, p0=0.1
        p = binomial_two_sided(3, 3, 0.1)
        assert float(p) == pytest.approx(0.001, rel=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_two_sided(5, 4)
        with pytest.raises(ValueError):
            binomial_two_sided(-1, 4)
        with pytest.raises(ValueError):
            binomial_two_sided(0, 0)


class TestChiSquare:
    def test_identical_proportions(self):
        stat, p = chi_square_2x2([[10, 90], [10, 90]])
        assert stat == 0.0
        assert float(p) == 1.0

    def test_perfect_separation(self):
        stat, p = chi_square_2x2([[10, 0], [0, 10]])
        assert stat == pytest.approx(20.0)
        assert float(p) == pytest.approx(7.744216431e-06, rel=1e-6)

    def test_all_ones(self):
        stat, p = chi_square_2x2([[1, 1], [1, 1]])
        assert stat == 0.0
        assert float(p) == 1.0

    def test_group_swap_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c, d = rng.integers(1, 200, size=4)
            s1, _ = chi_square_2x2([[a, b], [c, d]])
            s2, _ = chi_square_2x2([[c, d], [a, b]])
            assert s1 == pytest.approx(s2, rel=1e-12)

    def test_matches_observed_expected_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = rng.integers(1, 500, size=(2, 2))
            stat, _ = chi_square_2x2(table.tolist())
            assert stat == pytest.approx(
                chi2_stat_observed_expected(table), abs=1e-9
            )

    def test_p_against_scipy_tail(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(13)
        for _ in range(50):
            table = rng.integers(1, 500, size=(2, 2))
            stat, p = chi_square_2x2(table.tolist())
            assert float(p) == pytest.approx(
                float(scipy_stats.chi2.sf(stat, 1)), abs=1e-9
            )

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError):
            chi_square_2x2([[0, 0], [5, 5]])
        with pytest.raises(ValueError):
            chi_square_2x2([[0, 5], [0, 5]])

    def test_huge_statistic_log10(self):
        stat, p = chi_square_2x2([[5000, 0], [0, 5000]])
        assert p.log10 < -1000


class TestSpearman:
    def test_monotone(self):
        rho, _ = spearman([1, 2, 3, 4], [10, 20, 25, 100])
        assert rho == pytest.approx(1.0)

    def test_reversal(self):
        rho, _ = spearman([1, 2, 3, 4], [4, 3, 2, 1])
        assert rho == pytest.approx(-1.0)

    def test_textbook_example(self):
        # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d^2 summing to 4
        rho, _ = spearman([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
        assert rho == pytest.approx(0.8)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = rng.normal(size=12)
            ys = rng.normal(size=12)
            rho1, _ = spearman(xs, ys)
            rho2, _ = spearman(np.exp(xs), ys**3)
            assert rho1 == pytest.approx(rho2, abs=1e-12)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = rng.normal(size=30)
            ys = xs + rng.normal(size=30)
            rho, p = spearman(xs, ys)
            ref = scipy_stats.spearmanr(xs, ys)
            assert rho == pytest.approx(ref.statistic, abs=1e-12)
            assert float(p) == pytest.approx(ref.pvalue, rel=1e-6)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 1, 1], [1, 2, 3])


class TestPearson:
    def test_affine_relation(self):
        r, p = pearson([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
        assert r == pytest.approx(1.0)
        assert float(p) == 0.0

    def test_negation(self):
        r, _ = pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert r == pytest.approx(-1.0)

    def test_hand_computed(self):
        r, _ = pearson([1, 2, 3], [1, 2, 4])
        assert r == pytest.approx(9 / math.sqrt(84), abs=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=15)
        ys = rng.normal(size=15)
        r1, _ = pearson(xs, ys)
        r2, _ = pearson(2.5 * xs + 1.0, 0.3 * ys - 7.0)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(15)
        for _ in range(20):
            xs = rng.normal(size=25)
            ys = 0.5 * xs + rng.normal(size=25)
            r, p = pearson(xs, ys)
            ref = scipy_stats.pearsonr(xs, ys)
            assert r == pytest.approx(ref.statistic, abs=1e-12)
            assert float(p) == pytest.approx(ref.pvalue, rel=1e-6)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            pearson([2, 2, 2], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])


class TestPercentileRank:
    def test_below_all(self):
        assert percentile_rank(-5.0, [1, 2, 3]) == 0.0

    def test_single_equal_element(self):
        assert percentile_rank(4.0, [4.0]) == 50.0

    def test_hand_computed(self):
        assert percentile_rank(2.5, [1, 2, 3, 4]) == 50.0

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.floats(-150, 150),
        st.floats(-150, 150),
    )
    def test_monotone_in_value(self, sample, v1, v2):
        lo, hi = min(v1, v2), max(v1, v2)
        assert percentile_rank(lo, sample) <= percentile_rank(hi, sample)

    @given(
        st.one_of(
            st.lists(st.integers(-5, 5), min_size=1, max_size=40),
            st.lists(
                st.floats(-3, 3).map(lambda x: round(x, 1)), min_size=1, max_size=40
            ),
        ),
        st.lists(st.integers(-60, 60).map(lambda k: k / 10), max_size=10),
    )
    def test_matches_brute_force_with_ties(self, sample, values):
        values = values + sample[:3]  # values equal to sample elements
        expected = [brute_percentile_rank(v, sample) for v in values]
        assert midpoint_ranks(values, np.sort(sample)).tolist() == expected
        assert [percentile_rank(v, sample) for v in values] == expected

    def test_average_ranks_handles_ties(self):
        assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
