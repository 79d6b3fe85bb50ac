"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: brute
force enumeration, exact rational arithmetic, and grid search. The refit
bootstrap and the rank-recovery simulation are checked against the paths
they replaced: one graph and one single fit per replicate.
"""

import math
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from duelbias.choice_model import ComparisonGraph, fit
from duelbias.errors import DuelBiasError
from duelbias.tournament import (
    OUTCOME_RATER_NORMAL,
    SIMULATION_FIT_CONFIG,
    RecoveryCurve,
    _TAU_DECIMALS,
    kendall_tau_values,
    sample_balanced_duels,
)


def exact_binomial_two_sided(k: int, n: int) -> Fraction:
    """Two-sided binomial p-value against 1/2 with exact rational arithmetic."""
    pmf = [Fraction(comb(n, j), 2**n) for j in range(n + 1)]
    observed = pmf[k]
    return sum(p for p in pmf if p <= observed)


def chi2_stat_observed_expected(table) -> float:
    """Pearson statistic via the sum over cells of (O-E)^2/E."""
    obs = np.asarray(table, dtype=float)
    row = obs.sum(axis=1, keepdims=True)
    col = obs.sum(axis=0, keepdims=True)
    expected = row * col / obs.sum()
    return float(((obs - expected) ** 2 / expected).sum())


def brute_kendall_tau_b(xs, ys) -> float:
    """Tau-b by explicit enumeration of all item pairs."""
    n = len(xs)
    concordant = discordant = tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(xs[i] > xs[j]) - int(xs[i] < xs[j])
            dy = int(ys[i] > ys[j]) - int(ys[i] < ys[j])
            if dx == 0:
                tied_x += 1
            if dy == 0:
                tied_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    return (concordant - discordant) / np.sqrt((n0 - tied_x) * (n0 - tied_y))


def brute_percentile_rank(value, sample) -> float:
    below = sum(1 for s in sample if s < value)
    equal = sum(1 for s in sample if s == value)
    return 100.0 * (below + 0.5 * equal) / len(sample)


def regularized_gradient(n_items, duels, alpha, log_scores, weights=None):
    """Gradient of the regularized objective in log-scores, by plain loops.

    The anchor is fixed at score 1. For a duel won by w over l, the term
    log s_w - log(s_w + s_l) has derivative s_l / (s_w + s_l) in log s_w
    and the negative of that in log s_l; each item's anchor term
    alpha * (log s - 2 log(s + 1)) adds alpha * (1 - s) / (1 + s). Duel j
    counts ``weights[j]`` times (default once).
    """
    if weights is None:
        weights = [1.0] * len(duels)
    grad = [0.0] * n_items
    for (w, l), k in zip(duels, weights):
        s_w, s_l = math.exp(log_scores[w]), math.exp(log_scores[l])
        grad[w] += k * s_l / (s_w + s_l)
        grad[l] -= k * s_l / (s_w + s_l)
    for i in range(n_items):
        s = math.exp(log_scores[i])
        grad[i] += alpha * (1.0 - s) / (1.0 + s)
    return grad


def _objective_on_grid(log_scores, duels, alpha):
    """Regularized Bradley-Terry objective for a batch of log-score vectors.

    log_scores: (m, n) candidate vectors; anchor fixed at score 1.
    """
    s = np.exp(log_scores)
    total = np.zeros(len(log_scores))
    for w, l in duels:
        total += log_scores[:, w] - np.log(s[:, w] + s[:, l])
    if alpha > 0:
        total += alpha * np.sum(
            log_scores - 2.0 * np.log(s + 1.0), axis=1
        )
    return total


def grid_search_log_likelihood(
    n_items, duels, alpha, span=3.0, final_step=0.01
):
    """Maximize the regularized objective by refining grid search.

    Returns the best objective value found with a final grid step of 0.01
    in log-score space. The objective is concave in log-scores, so
    refining around the best coarse point converges to the optimum.
    """
    center = np.zeros(n_items)
    step = span / 5.0
    offsets = np.arange(-5, 6)
    for _ in range(200):
        axes = [center[i] + step * offsets for i in range(n_items)]
        grid = np.array(list(product(*axes)))
        values = _objective_on_grid(grid, duels, alpha)
        best = int(np.argmax(values))
        on_boundary = np.any(np.abs(grid[best] - center) >= 5 * step - 1e-12)
        center = grid[best]
        if on_boundary:
            continue  # optimum may lie outside the span; recenter, same step
        if step <= final_step:
            return float(values[best])
        step = max(step / 5.0, final_step)
    raise RuntimeError("grid search failed to converge")


def loop_resample_two_groups(values_a, values_b, replicates, seed, grid=()):
    """Two-sample resampling one replicate at a time, each rank counted
    directly: the same draws as bias.resample_two_groups (A's indices,
    then B's, per replicate) with no blocks and no searchsorted."""
    rng = np.random.default_rng(seed)
    diffs = np.empty(replicates)
    rows = np.empty((replicates, len(grid)))
    for r in range(replicates):
        a = values_a[rng.integers(0, len(values_a), size=len(values_a))]
        b = values_b[rng.integers(0, len(values_b), size=len(values_b))]
        diffs[r] = b.mean() - a.mean()
        for j, q in enumerate(np.percentile(b, grid) if len(grid) else ()):
            below = np.count_nonzero(a < q)
            not_above = np.count_nonzero(a <= q)
            rows[r, j] = 50.0 * (below + not_above) / len(a)
    return diffs, rows


def loop_refit_bias_replicates(
    catalog, duels, category, dimension, fit_config, log_scale, replicates, seed,
    warm_start,
):
    """Duel-unit refit bootstrap of one tournament, one replicate at a time:
    the same draws as pipeline.refit_bias_replicates, but each resample of
    ``duels`` is filtered to the tournament, built into its own
    ComparisonGraph and fitted alone from ``warm_start``. A replicate whose
    fit raises a package error or does not converge is discarded.

    Returns the score bias of every kept replicate, in replicate order, and
    the discards counted by reason (the error's type name or "unconverged").
    """
    rng = np.random.default_rng(seed)
    values = []
    discards = {}
    for _ in range(replicates):
        idx = rng.integers(0, len(duels), size=len(duels))
        sample = [duels[i] for i in idx]
        pairs = [
            (d.winner_item, d.loser_item)
            for d in sample
            if d.category == category and d.dimension == dimension
        ]
        graph = ComparisonGraph.from_pairs(pairs, items=catalog.ids(category=category))
        try:
            table = fit(graph, fit_config, initial_scores=warm_start)
        except DuelBiasError as exc:
            reason = type(exc).__name__
        else:
            reason = None if table.converged else "unconverged"
        if reason is not None:
            discards[reason] = discards.get(reason, 0) + 1
            continue
        a, b = (
            np.array([table.scores[i] for i in catalog.ids(group=g, category=category)])
            for g in ("A", "B")
        )
        if log_scale:
            a, b = np.log(a), np.log(b)
        values.append(float(b.mean() - a.mean()))
    return np.array(values), discards


def loop_simulate_rank_recovery(
    n_items_per_group,
    budgets,
    replicates,
    seed,
    fit_config=SIMULATION_FIT_CONFIG,
    outcome_noise=OUTCOME_RATER_NORMAL,
    rater_noise_scale=0.25,
):
    """Rank-recovery simulation one replicate and one budget at a time: the
    same draws as tournament.simulate_rank_recovery, but each tournament is
    built as a ComparisonGraph of duel tuples from sample_balanced_duels and
    fitted alone, and each tau is computed on its own."""
    n = n_items_per_group
    taus = np.empty((replicates, len(budgets)))
    for r in range(replicates):
        qualities = np.random.default_rng([seed + r, 0]).standard_normal(2 * n)
        scores_true = np.exp(qualities)
        items = tuple(range(2 * n))
        for j, budget in enumerate(budgets):
            rng = np.random.default_rng([seed + r, budget])
            plan = sample_balanced_duels(
                items[:n], items[n:], budget // n, seed=int(rng.integers(2**63))
            )
            a_idx = np.array([p[0] for p in plan.pairs], dtype=np.intp)
            b_idx = np.array([p[1] for p in plan.pairs], dtype=np.intp)
            if outcome_noise == OUTCOME_RATER_NORMAL:
                noise = rater_noise_scale * rng.standard_normal((len(a_idx), 2))
                a_wins = qualities[a_idx] + noise[:, 0] > qualities[b_idx] + noise[:, 1]
            else:
                p_a = scores_true[a_idx] / (scores_true[a_idx] + scores_true[b_idx])
                a_wins = rng.random(len(a_idx)) < p_a
            duels = tuple(
                (int(a), int(b)) if win else (int(b), int(a))
                for a, b, win in zip(a_idx, b_idx, a_wins)
            )
            table = fit(ComparisonGraph(items=items, duels=duels), fit_config)
            fitted = np.round(np.log(table.score_array(items)), _TAU_DECIMALS)
            taus[r, j] = kendall_tau_values(scores_true, fitted)
    return RecoveryCurve(
        budgets=tuple(int(b) for b in budgets),
        mean_tau=tuple(float(m) for m in taus.mean(axis=0)),
        std_tau=tuple(float(s) for s in taus.std(axis=0, ddof=0)),
        replicates=replicates,
        seed=seed,
    )
