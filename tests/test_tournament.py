import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias import tournament
from duelbias.errors import (
    InfeasibleScheduleError,
    SizeMismatchError,
    ValidationError,
)
from duelbias.tournament import (
    kendall_tau,
    kendall_tau_values,
    sample_balanced_duels,
    simulate_rank_recovery,
)
from oracles import brute_kendall_tau_b


class TestSampleBalancedDuels:
    def test_study_scale_schedule(self):
        group_a = [f"a{i}" for i in range(50)]
        group_b = [f"b{i}" for i in range(50)]
        plan = sample_balanced_duels(group_a, group_b, duels_per_item=10, seed=1)
        assert len(plan.pairs) == 500
        counts = plan.appearance_counts()
        assert all(c == 10 for c in counts.values())

    def test_single_pair_repeated(self):
        plan = sample_balanced_duels(["a"], ["b"], duels_per_item=3, seed=0)
        assert plan.pairs == (("a", "b"),) * 3

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            sample_balanced_duels(["a", "b", "c"], ["w", "x", "y", "z"], 1, seed=0)

    def test_cross_group_pairs_only(self):
        group_a = [f"a{i}" for i in range(5)]
        group_b = [f"b{i}" for i in range(5)]
        plan = sample_balanced_duels(group_a, group_b, 4, seed=3)
        for a, b in plan.pairs:
            assert a in group_a and b in group_b

    def test_seed_determinism(self):
        args = ([1, 2, 3], [4, 5, 6], 2)
        assert sample_balanced_duels(*args, seed=9) == sample_balanced_duels(
            *args, seed=9
        )

    def test_different_seeds_differ(self):
        group_a = list(range(20))
        group_b = list(range(20, 40))
        p1 = sample_balanced_duels(group_a, group_b, 3, seed=0)
        p2 = sample_balanced_duels(group_a, group_b, 3, seed=1)
        assert p1.pairs != p2.pairs

    def test_distinct_opponents_mode(self):
        group_a = list(range(6))
        group_b = list(range(6, 12))
        plan = sample_balanced_duels(
            group_a, group_b, 4, seed=2, distinct_opponents=True
        )
        counts = plan.appearance_counts()
        assert all(c == 4 for c in counts.values())
        opponents = {}
        for a, b in plan.pairs:
            opponents.setdefault(a, set()).add(b)
        assert all(len(opp) == 4 for opp in opponents.values())

    def test_distinct_opponents_infeasible(self):
        with pytest.raises(InfeasibleScheduleError):
            sample_balanced_duels(
                [1, 2], [3, 4], duels_per_item=3, seed=0, distinct_opponents=True
            )

    @given(
        n=st.integers(1, 12),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**30),
    )
    @settings(max_examples=50, deadline=None)
    def test_regularity_property(self, n, k, seed):
        group_a = [f"a{i}" for i in range(n)]
        group_b = [f"b{i}" for i in range(n)]
        plan = sample_balanced_duels(group_a, group_b, k, seed=seed)
        counts = plan.appearance_counts()
        assert len(plan.pairs) == k * n
        assert all(c == k for c in counts.values())


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap(self):
        # 5 concordant of 6 pairs: (5 - 1) / 6
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_symmetry(self):
        a = [3, 1, 4, 2, 5]
        b = [2, 5, 1, 4, 3]
        assert kendall_tau(a, b) == pytest.approx(kendall_tau(b, a))

    def test_item_set_mismatch(self):
        with pytest.raises(ValidationError):
            kendall_tau([1, 2, 3], [1, 2, 4])

    def test_values_against_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            xs = rng.integers(0, 6, size=12).astype(float)  # ties likely
            ys = rng.integers(0, 6, size=12).astype(float)
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            assert kendall_tau_values(xs, ys) == pytest.approx(
                brute_kendall_tau_b(xs, ys), abs=1e-12
            )

    def test_constant_input_rejected(self):
        with pytest.raises(ValidationError):
            kendall_tau_values([1.0, 1.0], [0.0, 1.0])


class TestSimulateRankRecovery:
    def test_seed_determinism(self):
        c1 = simulate_rank_recovery(5, budgets=[10, 20], replicates=2, seed=7)
        c2 = simulate_rank_recovery(5, budgets=[10, 20], replicates=2, seed=7)
        assert c1 == c2

    def test_budget_results_independent_of_sweep(self):
        full = simulate_rank_recovery(5, budgets=[10, 20, 40], replicates=3, seed=1)
        solo = simulate_rank_recovery(5, budgets=[20], replicates=3, seed=1)
        assert full.mean_tau[1] == solo.mean_tau[0]

    def test_infeasible_budget_named(self):
        with pytest.raises(InfeasibleScheduleError, match="17"):
            simulate_rank_recovery(5, budgets=[17], replicates=1, seed=0)

    def test_more_budget_helps(self):
        curve = simulate_rank_recovery(10, budgets=[10, 200], replicates=10, seed=3)
        assert curve.mean_tau[1] > curve.mean_tau[0]

    def test_bradley_terry_outcomes_are_noisier(self):
        noiseless = simulate_rank_recovery(
            10, budgets=[100], replicates=5, seed=2, rater_noise_scale=0.0
        )
        bt = simulate_rank_recovery(
            10, budgets=[100], replicates=5, seed=2, outcome_noise="bradley-terry"
        )
        assert bt.mean_tau[0] < noiseless.mean_tau[0]

    def test_unknown_outcome_model(self):
        with pytest.raises(ValidationError):
            simulate_rank_recovery(5, budgets=[10], replicates=1, outcome_noise="x")

    def test_tau_bounds(self):
        curve = simulate_rank_recovery(5, budgets=[5, 10], replicates=3, seed=11)
        assert all(-1.0 <= m <= 1.0 for m in curve.mean_tau)
        assert all(s >= 0.0 for s in curve.std_tau)

    def test_last_bit_fit_noise_leaves_tau_unchanged(self, monkeypatch):
        # replicate seed 2 at budget 100 (the second replicate of `simulate
        # --seed 1`): the optimum ties exchangeable items exactly, and a fit
        # may reproduce that tie only to the last bits
        curve = simulate_rank_recovery(50, budgets=(100,), replicates=1, seed=2)
        exact = tournament.fit
        rng = np.random.default_rng(0)

        def perturbed_fit(graph, config):
            table = exact(graph, config)
            scores = {
                item: s * math.exp(1e-13 * rng.choice((-1.0, 1.0)))
                for item, s in table.scores.items()
            }
            return dataclasses.replace(table, scores=scores)

        monkeypatch.setattr(tournament, "fit", perturbed_fit)
        assert simulate_rank_recovery(50, budgets=(100,), replicates=1, seed=2) == curve
