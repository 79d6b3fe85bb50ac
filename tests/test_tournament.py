import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias import tournament
from duelbias.choice_model import FitConfig
from duelbias.errors import (
    InfeasibleScheduleError,
    NumericalError,
    SizeMismatchError,
    ValidationError,
)
from duelbias.tournament import (
    kendall_tau_values,
    sample_balanced_duels,
    simulate_rank_recovery,
)
from oracles import brute_kendall_tau_b, loop_simulate_rank_recovery


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(seed=1.5), "seed: expected int, got 1.5"),
            (dict(seed=True), "seed: expected int, got True"),
            (dict(duels_per_item=2.0), "duels_per_item: expected int, got 2.0"),
        ],
    )
    def test_non_integral_settings_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            sample_balanced_duels(**{"group_a": [1, 2], "group_b": [3, 4],
                                     "duels_per_item": 2, "seed": 0, **kwargs})

    def test_numpy_integer_settings_accepted(self):
        args = ([1, 2, 3], [4, 5, 6])
        assert sample_balanced_duels(*args, np.int64(2), seed=np.uint32(9)) == (
            sample_balanced_duels(*args, 2, seed=9)
        )

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            sample_balanced_duels(["a"], ["b"], duels_per_item=1, seed=-1)

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
        assert kendall_tau_values([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert kendall_tau_values([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_single_swap(self):
        # 5 concordant of 6 pairs: (5 - 1) / 6
        assert kendall_tau_values([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_symmetry(self):
        a = [3, 1, 4, 2, 5]
        b = [2, 5, 1, 4, 3]
        assert kendall_tau_values(a, b) == pytest.approx(kendall_tau_values(b, a))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kendall_tau_values([1, 2, 3], [1, 2])
        with pytest.raises(ValidationError):
            kendall_tau_values([[1, 2, 3]], [1, 2, 3])

    def test_values_against_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            xs = rng.integers(0, 6, size=12).astype(float)  # ties likely
            ys = rng.integers(0, 6, size=12).astype(float)
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            tau = kendall_tau_values(xs, ys)
            assert type(tau) is float
            assert tau == pytest.approx(brute_kendall_tau_b(xs, ys), abs=1e-12)

    def test_rows_against_brute_force(self):
        # one tau per row of (rows, n) input, ties included, each equal to
        # the tau of that row alone
        rng = np.random.default_rng(18)
        xs = rng.integers(0, 5, size=(40, 13)).astype(float)
        ys = rng.integers(0, 5, size=(40, 13)).astype(float)
        taus = kendall_tau_values(xs, ys)
        assert taus.shape == (40,)
        for x, y, tau in zip(xs, ys, taus):
            assert tau == kendall_tau_values(x, y)
            assert tau == pytest.approx(brute_kendall_tau_b(x, y), abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ValidationError):
            kendall_tau_values([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValidationError):
            kendall_tau_values([[0.0, 1.0], [2.0, 2.0]], [[0.0, 1.0], [0.0, 1.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            kendall_tau_values([0.0, float("nan"), 1.0], [0.0, 1.0, 2.0])


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(rater_noise_scale=float("nan")), "rater_noise_scale"),
            (dict(rater_noise_scale=float("inf")), "rater_noise_scale"),
            (dict(rater_noise_scale=-0.1), "rater_noise_scale"),
            (dict(budgets=[]), "at least one budget"),
            (dict(seed=-1), "seed must be >= 0"),
            (dict(seed=1.5), "seed: expected int, got 1.5"),
            (dict(seed=False), "seed: expected int, got False"),
            (dict(replicates=2.5), "replicates: expected int, got 2.5"),
            (dict(budgets=[10.0]), "budgets: expected int, got 10.0"),
            (dict(n_items_per_group=5.0), "n_items_per_group: expected int"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            simulate_rank_recovery(
                **{"n_items_per_group": 5, "budgets": [10], "replicates": 1, **kwargs}
            )

    def test_numpy_integer_settings_accepted(self):
        curve = simulate_rank_recovery(
            np.int64(5), np.array([10, 20]), np.int32(2), np.uint16(7)
        )
        assert curve == simulate_rank_recovery(5, (10, 20), 2, 7)
        assert type(curve.seed) is type(curve.replicates) is int

    def test_tau_bounds(self):
        curve = simulate_rank_recovery(5, budgets=[5, 10], replicates=3, seed=11)
        assert all(-1.0 <= m <= 1.0 for m in curve.mean_tau)
        assert all(s >= 0.0 for s in curve.std_tau)

    def test_last_bit_fit_noise_leaves_tau_unchanged(self, monkeypatch):
        # replicate seed 2 at budget 100 (the second replicate of `simulate
        # --seed 1`): the optimum ties exchangeable items exactly, and a fit
        # may reproduce that tie only to the last bits
        curve = simulate_rank_recovery(50, budgets=(100,), replicates=1, seed=2)
        exact = tournament.fit_duel_arrays
        rng = np.random.default_rng(0)
        calls = []

        def perturbed_fit(*args):
            fits = exact(*args)
            calls.append(len(fits.scores))
            signs = rng.choice((-1.0, 1.0), size=fits.scores.shape)
            return fits.replace(scores=fits.scores * np.exp(1e-13 * signs))

        monkeypatch.setattr(tournament, "fit_duel_arrays", perturbed_fit)
        assert simulate_rank_recovery(50, budgets=(100,), replicates=1, seed=2) == curve
        assert calls == [1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_items_per_group=50, budgets=(100, 500), replicates=3, seed=1),
            dict(
                n_items_per_group=10, budgets=(10, 50), replicates=4, seed=3,
                outcome_noise="bradley-terry",
            ),
            dict(
                n_items_per_group=10, budgets=(20, 100), replicates=4, seed=4,
                rater_noise_scale=0.0,
            ),
            # one duel per item: a single perfect matching
            dict(n_items_per_group=12, budgets=(12,), replicates=5, seed=5),
        ],
    )
    def test_matches_per_replicate_loop(self, kwargs):
        assert simulate_rank_recovery(**kwargs) == loop_simulate_rank_recovery(
            **kwargs
        )

    def test_blocks_match_per_replicate_loop(self, monkeypatch):
        # blocks of 6, 3 and 1 replicates at budgets 10, 20 and 50, so every
        # budget's 7 replicates cross at least one block boundary
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", 60)
        kwargs = dict(n_items_per_group=5, budgets=(10, 20, 50), replicates=7, seed=6)
        assert simulate_rank_recovery(**kwargs) == loop_simulate_rank_recovery(
            **kwargs
        )

    def test_memory_stays_flat_in_replicates(self, monkeypatch):
        # blocks of 4 replicates: 16 times the replicates, about the same peak
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", 400)
        peaks = {}
        for replicates in (8, 128):
            tracemalloc.start()
            try:
                simulate_rank_recovery(10, (100,), replicates, 0)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[128] < 1.25 * peaks[8]

    def test_unconverged_fit_raises(self, monkeypatch):
        # one Newton step is too few: no tau of an unconverged fit is kept
        monkeypatch.setattr(
            tournament, "SIMULATION_FIT_CONFIG", FitConfig(max_iterations=1)
        )
        with pytest.raises(NumericalError, match="replicate seed 0 at budget 10 "):
            simulate_rank_recovery(10, (10, 20), 3, 0)
