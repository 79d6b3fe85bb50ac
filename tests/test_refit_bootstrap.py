"""The batched duel-unit refit bootstrap against the per-replicate refits it
replaced (``oracles.loop_refit_bias_replicates``)."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from duelbias.bias import percentile_ci
from duelbias.choice_model import SUM_ONE, FitConfig
from duelbias.cli import main
from duelbias.datasets import write_duels, write_items
from duelbias.errors import UnstableBootstrapError
from duelbias import pipeline
from duelbias.pipeline import (
    AnalysisConfig,
    _derived_seed,
    fit_tournament,
    refit_bias_replicates,
    run_pipeline,
    select_tournaments,
)
from duelbias.records import DuelRecord, ItemCatalog, ItemRecord
from oracles import loop_refit_bias_replicates

# CIs and replicate values of the two paths agree to this: the same
# resamples, fitted from the same start to the same gradient tolerance
AGREEMENT = 1e-7


def tournament(seed, n_side=4, n_duels=200, sparse_outcomes=""):
    """Catalog and pizza/tasty duels: ``n_side`` items a side in ``n_duels``
    random cross-group duels with Bradley-Terry outcomes. With
    ``sparse_outcomes``, one more B item "bx" plays one duel per letter,
    won by the group the letter names."""
    rng = np.random.default_rng(seed)
    ids = {g: [f"{g.lower()}{i}" for i in range(n_side)] for g in "AB"}
    records = [ItemRecord(i, g, "pizza") for g in "AB" for i in ids[g]]
    if sparse_outcomes:
        records.append(ItemRecord("bx", "B", "pizza"))
    quality = {i: rng.normal(scale=0.5) for g in "AB" for i in ids[g]}
    pairs = []
    for _ in range(n_duels):
        a, b = ids["A"][rng.integers(n_side)], ids["B"][rng.integers(n_side)]
        p_a = 1.0 / (1.0 + math.exp(quality[b] - quality[a]))
        pairs.append((a, b, "A" if rng.random() < p_a else "B"))
    for k, winner in enumerate(sparse_outcomes):
        pairs.append((ids["A"][k % n_side], "bx", winner))
    duels = [
        DuelRecord(f"d{k}", "pizza", "tasty", a, b, winner, "r1")
        for k, (a, b, winner) in enumerate(pairs)
    ]
    return ItemCatalog(records), duels


def batched(catalog, duels, config, seed):
    [pizza_tasty] = select_tournaments(catalog, duels)
    point = fit_tournament(pizza_tasty, config.fit)
    return refit_bias_replicates(pizza_tasty, point, config, seed)


def per_replicate(catalog, duels, config, seed):
    """The refits as the pipeline ran them before: warm-started from the
    point fit's scores."""
    [pizza_tasty] = select_tournaments(catalog, duels)
    point = fit_tournament(pizza_tasty, config.fit)
    return loop_refit_bias_replicates(
        catalog, duels, "pizza", "tasty", config.fit, config.bootstrap_replicates,
        seed, point.scores,
    )


class TestRefitBiasReplicates:
    @pytest.mark.parametrize("alpha", [0.1, 0.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_replicate_refits(self, seed, alpha):
        catalog, duels = tournament(seed)
        config = AnalysisConfig(
            bootstrap_replicates=200, fit=FitConfig(regularization_alpha=alpha)
        )
        values = batched(catalog, duels, config, seed)
        expected, discards = per_replicate(catalog, duels, config, seed)
        assert len(values) == 200 - sum(discards.values())
        np.testing.assert_allclose(values, expected, rtol=0, atol=AGREEMENT)

    @pytest.mark.parametrize("block_duels", [1, 450, 2**16])
    def test_weights_are_the_per_replicate_draws(self, monkeypatch, block_duels):
        # 200 duels: blocks of 1, of 2 (the last one short) and of all 101
        catalog, duels = tournament(3)
        config = AnalysisConfig(bootstrap_replicates=101)
        seen = []
        fit_duel_arrays = pipeline.fit_duel_arrays

        def spy(n, winners, losers, config, weights, *args):
            assert winners.shape == losers.shape == (1, 200)
            seen.append(weights.copy())
            return fit_duel_arrays(n, winners, losers, config, weights, *args)

        monkeypatch.setattr(pipeline, "fit_duel_arrays", spy)
        monkeypatch.setattr("duelbias.settings.BLOCK_VALUES", block_duels)
        batched(catalog, duels, config, 9)
        rng = np.random.default_rng(9)
        expected = [
            np.bincount(rng.integers(0, 200, size=200), minlength=200)
            for _ in range(101)
        ]
        assert np.array_equal(np.concatenate(seen), np.stack(expected))

    def test_raw_scores_in_sum_one_gauge(self):
        catalog, duels = tournament(5, n_side=6, n_duels=150)
        config = AnalysisConfig(
            bootstrap_replicates=100,
            fit=FitConfig(normalization=SUM_ONE),
        )
        values = batched(catalog, duels, config, 5)
        expected, discards = per_replicate(catalog, duels, config, 5)
        assert discards == {}
        np.testing.assert_allclose(values, expected, rtol=0, atol=AGREEMENT)

    def test_alpha_zero_discards_silent_and_disconnected_replicates(self):
        # bx wins 3 and loses 4 of its 7 duels: a resample may drop all its
        # wins or all its losses (no longer strongly connected) or, rarely,
        # all its duels (silent)
        catalog, duels = tournament(1, sparse_outcomes="AAAABBB")
        config = AnalysisConfig(
            bootstrap_replicates=1000, fit=FitConfig(regularization_alpha=0.0)
        )
        values = batched(catalog, duels, config, 1)
        expected, discards = per_replicate(catalog, duels, config, 1)
        assert discards == {"unconverged": 67, "UnidentifiableItemsError": 1}
        assert len(values) == 1000 - 68
        np.testing.assert_allclose(values, expected, rtol=0, atol=AGREEMENT)

    def test_more_than_10_percent_discards_abort(self):
        # bx plays two duels, so about one resample in seven leaves it silent
        catalog, duels = tournament(0, sparse_outcomes="AB")
        config = AnalysisConfig(
            bootstrap_replicates=200, fit=FitConfig(regularization_alpha=0.0)
        )
        _, discards = per_replicate(catalog, duels, config, 0)
        failures = sum(discards.values())
        assert failures > 20 and discards["UnidentifiableItemsError"] > 0
        with pytest.raises(
            UnstableBootstrapError,
            match=(
                f"^category 'pizza', dimension 'tasty': {failures} of 200 "
                "bootstrap replicates failed$"
            ),
        ):
            batched(catalog, duels, config, 0)

    def test_unstable_refit_names_its_tournament_once(self, tmp_path, capsys):
        catalog, duels = tournament(0, sparse_outcomes="AB")
        config = AnalysisConfig(
            bootstrap_replicates=200, fit=FitConfig(regularization_alpha=0.0)
        )
        message = (
            r"category 'pizza', dimension 'tasty': \d+ of 200 bootstrap "
            "replicates failed"
        )
        with pytest.raises(UnstableBootstrapError, match=f"^{message}$"):
            run_pipeline(config, catalog, duels)

        items_path, duels_path = tmp_path / "items.csv", tmp_path / "duels.csv"
        write_items(items_path, catalog)
        write_duels(duels_path, duels)
        out = tmp_path / "out"
        rc = main(
            ["bias", "--items", str(items_path), "--duels", str(duels_path),
             "--alpha", "0", "--unit", "duel", "--bootstrap", "200",
             "--output-dir", str(out)]
        )
        assert rc == 3
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_pipeline_ci_is_percentile_ci_of_per_replicate_refits(self):
        catalog, duels = tournament(7, n_side=10, n_duels=100)
        config = AnalysisConfig(bootstrap_replicates=300, seed=4)
        bundle = run_pipeline(config, catalog, duels)
        seed = _derived_seed(config.seed, "pizza", "tasty")
        expected, discards = per_replicate(catalog, duels, config, seed)
        assert discards == {}
        np.testing.assert_allclose(
            bundle["tournaments"]["pizza/tasty"]["score_bias"]["ci"],
            percentile_ci(expected),
            rtol=0,
            atol=AGREEMENT,
        )

    def test_memory_stays_flat_in_replicates(self):
        catalog, duels = tournament(11, n_side=200, n_duels=4000)
        peaks = {}
        for replicates in (100, 1000):
            config = AnalysisConfig(bootstrap_replicates=replicates)
            tracemalloc.start()
            try:
                batched(catalog, duels, config, 0)
                peaks[replicates] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] < 1.25 * peaks[100]
