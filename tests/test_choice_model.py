import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from duelbias.choice_model import (
    ComparisonGraph,
    FitConfig,
    ScoreTable,
    fit,
    fit_duel_arrays,
    log_likelihood,
    regularized_log_likelihood,
    win_probability,
)
from duelbias.errors import (
    DegenerateFitError,
    ReferentialError,
    UnidentifiableItemsError,
    ValidationError,
)
from oracles import grid_search_log_likelihood, regularized_gradient


def graph_of(pairs, items=None):
    return ComparisonGraph.from_pairs(pairs, items=items)


class TestWinProbability:
    def test_symmetry(self):
        assert win_probability(1.0, 1.0) == 0.5

    def test_direct_values(self):
        assert win_probability(3.0, 1.0) == pytest.approx(0.75)
        assert win_probability(0.9, 0.1) == pytest.approx(0.9)

    def test_complement(self):
        assert win_probability(2.0, 5.0) + win_probability(5.0, 2.0) == pytest.approx(1.0)

    @given(
        st.floats(1e-6, 1e6), st.floats(1e-6, 1e6), st.floats(1e-3, 1e3)
    )
    def test_scale_invariance(self, a, b, k):
        assert win_probability(k * a, k * b) == pytest.approx(
            win_probability(a, b), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValidationError):
            win_probability(bad, 1.0)
        with pytest.raises(ValidationError):
            win_probability(1.0, bad)


class TestComparisonGraph:
    def test_self_duel_rejected(self):
        with pytest.raises(ValidationError):
            ComparisonGraph(items=("a", "b"), duels=((0, 0),))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError):
            ComparisonGraph(items=("a",), duels=((0, 1),))

    def test_pairs_and_arrays_give_equal_graphs(self):
        items, pairs = ("a", "b", "c"), ((1, 0), (2, 0), (0, 2))
        expected = ComparisonGraph(items=items, duels=pairs)
        array = np.array(pairs)
        for duels in (list(pairs), array, array.astype(np.int32), array.astype(np.uint8)):
            g = ComparisonGraph(items=list(items), duels=duels)
            assert g == expected and hash(g) == hash(expected)
            assert g.items == items
            assert g.duels == pairs
            assert g.duel_array.dtype == np.intp and g.duel_array.shape == (3, 2)
            assert not g.duel_array.flags.writeable
        # the graph holds its own copy, and no field can be set
        held = ComparisonGraph(items, array)
        array[0] = (2, 1)
        assert ComparisonGraph(items, array) != expected
        assert held.duels == pairs
        with pytest.raises(AttributeError):
            g.items = ()

    @pytest.mark.parametrize(
        "duels", [(), [], np.empty((0, 2), np.intp), np.empty((0, 2))]
    )
    def test_empty_graph(self, duels):
        g = ComparisonGraph(items=("a", "b"), duels=duels)
        assert g == ComparisonGraph(items=("a", "b"), duels=())
        assert g.duels == ()
        assert g.duel_array.shape == (0, 2) and g.duel_array.dtype == np.intp
        assert log_likelihood(g, {"a": 1.0, "b": 2.0}) == 0.0
        assert fit(g).scores == {"a": 1.0, "b": 1.0}

    @pytest.mark.parametrize(
        "duels, message",
        [
            (((0, 1), (2, 2), (0, 3)), "item 'c' dueled itself"),
            (((0, 1), (0, 3), (2, 2)), r"duel index out of range: \(0, 3\)"),
            (((1, 0), (-1, 2), (1, 1)), r"duel index out of range: \(-1, 2\)"),
            (((1, 1), (0, -1)), "item 'b' dueled itself"),
            (((2, 0), (5, 5)), r"duel index out of range: \(5, 5\)"),
        ],
    )
    def test_first_bad_pair_in_input_order_is_reported(self, duels, message):
        for form in (duels, np.array(duels)):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                ComparisonGraph(items=("a", "b", "c"), duels=form)

    @pytest.mark.parametrize(
        "duels",
        [
            ((0.5, 1), (2, 1), (1, 2)),  # fit used to truncate 0.5 to item 0
            ((1.0, 0),),
            ((True, 0), (2, 1)),  # numpy would count True as 1
            ((False, True),),
            (("0", "1"),),
            ((None, 1),),
            np.array([[0.0, 1.0]]),
            np.array([[True, False]]),
        ],
    )
    def test_non_integer_indices_rejected(self, duels):
        with pytest.raises(ValidationError, match="^duel indices must be integers$"):
            ComparisonGraph(items=("a", "b", "c"), duels=duels)

    @pytest.mark.parametrize("duels", [((0, 1, 2),), ((0, 1), (2,)), (0, 1)])
    def test_duels_must_be_pairs(self, duels):
        with pytest.raises(ValidationError, match=r"^duels must be \(winner, loser\) pairs"):
            ComparisonGraph(items=("a", "b", "c"), duels=duels)

    def test_from_pairs_infers_sorted_items(self):
        g = graph_of([("b", "a"), ("c", "a")])
        assert g.items == ("a", "b", "c")
        assert g.duels == ((1, 0), (2, 0))

    def test_from_pairs_names_an_unknown_item(self):
        with pytest.raises(ReferentialError, match=r"^unknown item 'z'$"):
            ComparisonGraph.from_pairs([("a", "z")], items=["a", "b"])


class TestLogLikelihood:
    def test_single_duel_equal_scores(self):
        g = graph_of([("a", "b")])
        assert log_likelihood(g, {"a": 1.0, "b": 1.0}) == pytest.approx(
            math.log(0.5)
        )

    def test_empty_sum(self):
        g = ComparisonGraph(items=("a", "b"), duels=())
        assert log_likelihood(g, {"a": 1.0, "b": 2.0}) == 0.0

    def test_two_duels_closed_form(self):
        g = graph_of([("a", "b"), ("a", "b")])
        assert log_likelihood(g, {"a": 3.0, "b": 1.0}) == pytest.approx(
            2 * math.log(0.75)
        )

    def test_missing_score(self):
        g = graph_of([("a", "b")])
        with pytest.raises(LookupError):
            log_likelihood(g, {"a": 1.0})


class TestFit:
    def test_symmetric_record_gives_equal_scores(self):
        g = graph_of([("a", "b")] * 5 + [("b", "a")] * 5)
        t = fit(g)
        assert t.scores["a"] == pytest.approx(t.scores["b"], rel=1e-9)

    def test_two_item_mle_matches_empirical_rate(self):
        g = graph_of([("a", "b")] * 3 + [("b", "a")] * 1)
        t = fit(g, FitConfig(regularization_alpha=0.0))
        assert win_probability(t.scores["a"], t.scores["b"]) == pytest.approx(
            0.75, abs=1e-6
        )

    def test_three_cycle_gives_equal_scores(self):
        g = graph_of([("a", "b"), ("b", "c"), ("c", "a")])
        t = fit(g)
        values = list(t.scores.values())
        assert max(values) == pytest.approx(min(values), rel=1e-6)

    def test_geometric_mean_normalization(self):
        g = graph_of([("a", "b")] * 4 + [("b", "c")] * 3 + [("c", "a")] * 2)
        t = fit(g)
        product = np.prod(list(t.scores.values()))
        assert product == pytest.approx(1.0, rel=1e-9)

    def test_sum_one_normalization(self):
        g = graph_of([("a", "b")] * 4 + [("b", "a")] * 2)
        t = fit(g, FitConfig(normalization="sum-one"))
        assert sum(t.scores.values()) == pytest.approx(1.0, rel=1e-9)

    def test_refit_reproduces_log_likelihood(self):
        g = graph_of([("a", "b")] * 4 + [("b", "c")] * 3 + [("c", "a")] * 2)
        t1, t2 = fit(g), fit(g)
        assert t1.log_likelihood == pytest.approx(t2.log_likelihood, abs=1e-9)
        assert t1.scores == t2.scores

    def test_empty_duels_with_alpha_zero(self):
        g = ComparisonGraph(items=("a", "b"), duels=())
        with pytest.raises(DegenerateFitError):
            fit(g, FitConfig(regularization_alpha=0.0))

    def test_unidentifiable_items_listed(self):
        g = ComparisonGraph(items=("a", "b", "c"), duels=((0, 1),))
        with pytest.raises(UnidentifiableItemsError) as exc:
            fit(g, FitConfig(regularization_alpha=0.0))
        assert exc.value.item_ids == ("c",)

    def test_not_strongly_connected_reports_nonconvergence(self):
        # a always beats b: with alpha=0 the MLE diverges
        g = graph_of([("a", "b")] * 6)
        t = fit(g, FitConfig(regularization_alpha=0.0, max_iterations=500))
        assert not t.converged

    def test_regularization_makes_all_win_finite(self):
        g = graph_of([("a", "b")] * 6)
        t = fit(g)
        assert t.converged
        assert t.scores["a"] > t.scores["b"] > 0

    def test_local_max_property(self):
        rng = np.random.default_rng(21)
        items = ("a", "b", "c", "d")
        for trial in range(20):
            pairs = []
            for _ in range(rng.integers(4, 13)):
                w, l = rng.choice(4, size=2, replace=False)
                pairs.append((items[w], items[l]))
            g = graph_of(pairs, items=items)
            t = fit(g)
            assert t.converged
            base = regularized_log_likelihood(g, t, t.regularization, t.anchor_score)
            for item in items:
                for eps in (0.01, -0.01):
                    perturbed = dict(t.scores)
                    perturbed[item] = perturbed[item] * math.exp(eps)
                    value = regularized_log_likelihood(
                        g, perturbed, t.regularization, t.anchor_score
                    )
                    assert value <= base + 1e-12

    def test_permutation_equivariance(self):
        pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")]
        renamed = [(p[0].replace("a", "z"), p[1].replace("a", "z")) for p in pairs]
        t1 = fit(graph_of(pairs))
        t2 = fit(graph_of(renamed))
        for old, new in (("a", "z"), ("b", "b"), ("c", "c")):
            assert t1.scores[old] == pytest.approx(t2.scores[new], rel=1e-9)

    def test_extra_win_never_decreases_score(self):
        rng = np.random.default_rng(33)
        items = ("a", "b", "c")
        for _ in range(20):
            pairs = []
            for _ in range(rng.integers(3, 10)):
                w, l = rng.choice(3, size=2, replace=False)
                pairs.append((items[w], items[l]))
            before = fit(graph_of(pairs, items=items))
            after = fit(graph_of(pairs + [("a", "b")], items=items))
            assert after.scores["a"] >= before.scores["a"] - 1e-9

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(101)
        config = FitConfig()
        for _ in range(25):
            n = int(rng.integers(2, 5))
            items = tuple(range(n))
            pairs = []
            for _ in range(rng.integers(1, 13)):
                w, l = rng.choice(n, size=2, replace=False)
                pairs.append((int(w), int(l)))
            g = graph_of(pairs, items=items)
            t = fit(g, config)
            fitted = regularized_log_likelihood(
                g, t, config.regularization_alpha, t.anchor_score
            )
            oracle = grid_search_log_likelihood(
                n, g.duels, config.regularization_alpha
            )
            assert fitted == pytest.approx(oracle, abs=1e-3)
            assert fitted >= oracle - 1e-3

    def test_warm_start_reaches_same_optimum(self):
        g = graph_of([("a", "b")] * 4 + [("b", "c")] * 3 + [("c", "a")] * 2)
        cold = fit(g)
        warm = fit(g, initial_scores={"a": 2.0, "b": 0.5, "c": 1.0})
        for item in cold.scores:
            assert cold.scores[item] == pytest.approx(warm.scores[item], rel=1e-6)


def random_graph(n, n_duels, seed, win_cycle):
    """Seeded Bradley-Terry duels over n items; with ``win_cycle`` item i
    also beats item i + 1 (mod n), which makes the win graph strongly
    connected."""
    rng = np.random.default_rng(seed)
    quality = rng.normal(scale=1.5, size=n)
    pairs = [(i, (i + 1) % n) for i in range(n)] if win_cycle else []
    while len(pairs) < n_duels:
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        p_a = 1.0 / (1.0 + math.exp(quality[b] - quality[a]))
        pairs.append((a, b) if rng.random() < p_a else (b, a))
    return graph_of(pairs, items=tuple(range(n)))


class TestOptimality:
    @pytest.mark.parametrize("n", [2, 20, 400])
    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_gradient_below_tolerance(self, n, alpha, start):
        config = FitConfig(regularization_alpha=alpha)
        for seed in range(3):
            g = random_graph(n, 10 * n, seed, win_cycle=alpha == 0.0)
            initial = None
            if start == "warm":
                rng = np.random.default_rng(1000 + seed)
                initial = {i: math.exp(x) for i, x in enumerate(rng.normal(0, 2, n))}
            t = fit(g, config, initial_scores=initial)
            assert t.converged
            # the oracle's anchor sits at score 1; t.anchor_score is its image
            log_scores = [
                math.log(t.scores[i]) - math.log(t.anchor_score) for i in g.items
            ]
            grad = regularized_gradient(n, g.duels, alpha, log_scores)
            assert max(abs(x) for x in grad) <= config.tolerance

    def test_large_fit_takes_few_newton_steps(self):
        # first-order sweeps need thousands of iterations on this problem
        g = random_graph(400, 4000, seed=7, win_cycle=False)
        t = fit(g)
        assert t.converged
        assert t.iterations <= 30

    def test_no_maximizer_returns_starting_scores_at_once(self):
        # a1 and a2 beat b1 and b2 in every duel: with alpha=0 no maximizer
        g = graph_of(
            [("a1", "b1"), ("a1", "b2"), ("a2", "b1"), ("a2", "b2"), ("a1", "a2"),
             ("a2", "a1"), ("b1", "b2"), ("b2", "b1")]
        )
        t = fit(g, FitConfig(regularization_alpha=0.0))
        assert not t.converged
        assert t.iterations == 0
        assert t.scores == {item: 1.0 for item in g.items}


def bootstrap_weights(m, replicates, seed):
    """Duel multiplicities of ``replicates`` resamples of m duels."""
    rng = np.random.default_rng(seed)
    draws = [rng.integers(0, m, size=m) for _ in range(replicates)]
    return np.array([np.bincount(idx, minlength=m) for idx in draws])


def shared_duels(g):
    """The (1, m) winner and loser arrays of one duel list shared by every
    row of a batch: the duels of ``g``."""
    return np.array(g.duels, dtype=np.intp).T[:, None]


class TestFitReplicates:
    @pytest.mark.parametrize(
        "n, alpha", [(2, 0.1), (20, 0.1), (200, 0.1), (2, 0.0), (20, 0.0)]
    )
    def test_every_converged_replicate_meets_tolerance(self, n, alpha):
        config = FitConfig(regularization_alpha=alpha)
        g = random_graph(n, 10 * n, seed=n, win_cycle=alpha == 0.0)
        weights = bootstrap_weights(len(g.duels), 30, seed=n)
        fits = fit_duel_arrays(n, *shared_duels(g), config, weights)
        assert fits.converged.sum() >= 20
        for row, scores, anchor in zip(
            weights[fits.converged],
            fits.scores[fits.converged],
            fits.anchor_scores[fits.converged],
        ):
            log_scores = np.log(scores) - math.log(anchor)
            grad = regularized_gradient(n, g.duels, alpha, log_scores, weights=row)
            assert max(abs(x) for x in grad) <= config.tolerance

    @pytest.mark.parametrize("n, alpha", [(2, 0.1), (20, 0.1), (20, 0.0)])
    def test_each_row_runs_as_if_alone(self, n, alpha):
        # own CG stops, step caps, convergence test and step count: a row of
        # the batch is bit-identical to the same row fitted by itself
        config = FitConfig(regularization_alpha=alpha)
        g = random_graph(n, 10 * n, seed=n, win_cycle=alpha == 0.0)
        weights = bootstrap_weights(len(g.duels), 30, seed=n)
        rng = np.random.default_rng(n)
        initial = np.exp(rng.normal(size=n))
        batch = fit_duel_arrays(n, *shared_duels(g), config, weights, initial)
        assert len(set(batch.iterations.tolist())) > 1
        for r in range(len(weights)):
            alone = fit_duel_arrays(
                n, *shared_duels(g), config, weights[r : r + 1], initial
            )
            assert np.array_equal(alone.scores[0], batch.scores[r])
            assert alone.anchor_scores[0] == batch.anchor_scores[r]
            assert alone.iterations[0] == batch.iterations[r]
            assert alone.converged[0] == batch.converged[r]

    def test_fit_is_one_row_of_unit_weights(self):
        g = random_graph(20, 200, seed=3, win_cycle=False)
        table = fit(g)
        fits = fit_duel_arrays(20, *shared_duels(g))
        assert fits.scores[0].tolist() == [table.scores[i] for i in g.items]
        assert fits.iterations[0] == table.iterations
        assert fits.converged[0] == table.converged

    def test_step_cap_applies_per_row(self):
        g = random_graph(20, 200, seed=4, win_cycle=False)
        weights = bootstrap_weights(len(g.duels), 30, seed=4)
        free = fit_duel_arrays(20, *shared_duels(g), weights=weights)
        cap = int(np.median(free.iterations))
        capped = fit_duel_arrays(
            20, *shared_duels(g), FitConfig(max_iterations=cap), weights
        )
        within = free.iterations <= cap
        assert 0 < within.sum() < len(weights)
        assert capped.converged.tolist() == within.tolist()
        assert capped.iterations.tolist() == np.minimum(free.iterations, cap).tolist()
        assert np.array_equal(capped.scores[within], free.scores[within])

    def test_alpha_zero_rows_without_maximizer_keep_starting_scores(self):
        g = graph_of([("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")])
        weights = np.array([[1, 1, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]])
        fits = fit_duel_arrays(
            3, *shared_duels(g), FitConfig(regularization_alpha=0.0), weights
        )
        # row 1 leaves c without a win, row 2 leaves nothing beating b
        assert fits.converged.tolist() == [True, False, False]
        assert fits.iterations[1:].tolist() == [0, 0]
        assert (fits.scores[1:] == 1.0).all()

    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    def test_rows_with_own_duels_run_as_if_alone(self, alpha):
        # every row brings its own duel arrays; in every third row item 0
        # never loses, so with alpha 0 that row has no maximizer and leaves
        # from the middle of the batch before the first step
        config = FitConfig(regularization_alpha=alpha)
        rows = 12
        graphs = [random_graph(20, 200, seed=s, win_cycle=True) for s in range(rows)]
        winners, losers = (
            np.array([[duel[k] for duel in g.duels] for g in graphs]) for k in (0, 1)
        )
        unbeaten = np.arange(rows) % 3 == 1
        flip = unbeaten[:, None] & (losers == 0)
        losers[flip], winners[flip] = winners[flip], 0
        batch = fit_duel_arrays(20, winners, losers, config)
        assert len(set(batch.iterations.tolist())) > 1
        for r in range(rows):
            alone = fit_duel_arrays(20, winners[r : r + 1], losers[r : r + 1], config)
            assert np.array_equal(alone.scores[0], batch.scores[r])
            assert alone.anchor_scores[0] == batch.anchor_scores[r]
            assert alone.iterations[0] == batch.iterations[r]
            assert alone.converged[0] == batch.converged[r]
            g = ComparisonGraph(
                tuple(range(20)), tuple(zip(winners[r].tolist(), losers[r].tolist()))
            )
            table = fit(g, config)
            assert batch.scores[r].tolist() == [table.scores[i] for i in g.items]
            assert batch.converged[r] == table.converged
        if alpha == 0.0:
            assert batch.converged.tolist() == (~unbeaten).tolist()

    @pytest.mark.parametrize(
        "winners, losers",
        [
            ([[0, 1]], [[1, 2]]),  # item 2 of 2
            ([[0, -1]], [[1, 0]]),
            ([[0, 1]], [[1, 1]]),  # item 1 dueled itself
            ([[0, 1]], [[1, 0], [1, 0]]),
            ([0, 1], [1, 0]),
            ([[0.0, 1.0]], [[1.0, 0.0]]),
        ],
    )
    def test_duel_arrays_validated(self, winners, losers):
        with pytest.raises(ValidationError):
            fit_duel_arrays(2, np.array(winners), np.array(losers))

    @pytest.mark.parametrize(
        "initial_scores",
        [[0.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, np.inf, 1.0], [1.0, 1.0]],
    )
    def test_initial_scores_validated(self, initial_scores):
        with pytest.raises(ValidationError):
            fit_duel_arrays(
                3, [[0, 1, 2]], [[1, 2, 0]], initial_scores=np.array(initial_scores)
            )
        # fit checks its start the same way, before any Newton step
        g = graph_of([("a", "b"), ("b", "c"), ("c", "a")])
        if len(initial_scores) == g.n_items:
            with pytest.raises(ValidationError, match="finite and positive"):
                fit(g, initial_scores=dict(zip(g.items, initial_scores)))

    def test_weights_need_one_column_per_duel(self):
        g = graph_of([("a", "b"), ("b", "a")])
        with pytest.raises(ValidationError):
            fit_duel_arrays(2, *shared_duels(g), weights=np.ones((3, 3)))
        with pytest.raises(ValidationError):
            fit_duel_arrays(2, *shared_duels(g), weights=np.ones(2))
        # per-row duel arrays need one row of weights each
        winners, losers = np.array([[0, 1], [1, 0]]), np.array([[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            fit_duel_arrays(2, winners, losers, weights=np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    def test_weights_must_be_finite_and_nonnegative(self, bad, alpha):
        # such a weight has no maximizer: it used to run every Newton step
        winners, losers = np.array([[0, 1, 2, 0]]), np.array([[1, 2, 0, 2]])
        weights = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, bad, 1.0]])
        config = FitConfig(regularization_alpha=alpha)
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            fit_duel_arrays(3, winners, losers, config, weights)
        # a zero weight, a duel left out of a bootstrap resample, is fine
        weights[1, 2] = 0.0
        assert fit_duel_arrays(3, winners, losers, config, weights).converged[0]


class TestScoreTable:
    def test_rejects_nonpositive_scores(self):
        with pytest.raises(ValidationError):
            ScoreTable(
                scores={"a": -1.0},
                normalization="geometric-mean-one",
                log_likelihood=0.0,
                iterations=1,
                converged=True,
                regularization=0.0,
            )


class TestFitConfig:
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integral_max_iterations_rejected(self, value):
        with pytest.raises(ValidationError, match="^max_iterations: expected int, got "):
            FitConfig(max_iterations=value)

    @pytest.mark.parametrize("field", ["tolerance", "regularization_alpha"])
    @pytest.mark.parametrize(
        "value", [True, False, np.True_, "0.1", None, 1j, np.complex128(1), 10**400],
        ids=["True", "False", "numpy-True", "str", "None", "complex", "complex128",
             "huge-int"],
    )
    def test_non_real_float_settings_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field}: expected float, got "):
            FitConfig(**{field: value})

    @pytest.mark.parametrize(
        "value", [1, np.int64(1), np.float32(1.0), np.float64(1.0)],
        ids=["int", "int64", "float32", "float64"],
    )
    def test_float_settings_are_python_floats(self, value):
        # so that report.json writes 1.0 for each, as for the CLI's --alpha 1
        config = FitConfig(tolerance=value, regularization_alpha=value)
        written = [config.tolerance, config.regularization_alpha]
        assert all(type(got) is float for got in written)
        assert json.dumps(written) == "[1.0, 1.0]"

    def test_negative_zero_alpha_is_zero(self):
        alpha = FitConfig(regularization_alpha=-0.0).regularization_alpha
        assert math.copysign(1.0, alpha) == 1.0

    def test_numpy_integer_max_iterations_accepted(self):
        config = FitConfig(max_iterations=np.int64(7))
        assert config == FitConfig(max_iterations=7)
        assert type(config.max_iterations) is int

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValidationError):
            FitConfig(regularization_alpha=-0.1)
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError):
                FitConfig(tolerance=value)
            with pytest.raises(ValidationError):
                FitConfig(regularization_alpha=value)
        with pytest.raises(ValidationError):
            FitConfig(normalization="bogus")
