"""Bias statistics between two item populations.

Covers duel-outcome win fractions with exact binomial tests, per-rater
macro averages, score bias with bootstrap confidence intervals, median
percentile ranks and full rank curves, cross-dimension correlations,
category frequency divergence, and the triangle lower bound on the bias
against an unobserved reference population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import DuelBiasError, UnstableBootstrapError, ValidationError
from .records import GROUP_A, GROUP_B, DuelRecord, ItemCatalog
from .stats import (
    PValue,
    binomial_two_sided,
    midpoint_ranks,
    pearson,
    percentile_rank,
    spearman,
)

HISTOGRAM_BIN_WIDTH = 0.05
DEFAULT_RANK_GRID = tuple(range(5, 100, 5))
# resampled values gathered per block of replicates in resample_two_groups;
# bounds the block's working set at a few MiB for any group size
_RESAMPLE_BLOCK_VALUES = 2**16


@dataclass(frozen=True)
class WinFraction:
    fraction: float
    p_value: PValue
    n: int
    wins: int
    side: str  # which group's wins the fraction counts


@dataclass(frozen=True)
class RaterSummary:
    per_rater: dict[str, float]
    macro_mean: float
    histogram: tuple[tuple[float, float, int], ...]  # (bin_low, bin_high, count)


@dataclass(frozen=True)
class RankCurvePoint:
    x: float
    y: float
    ci_low: float | None = None
    ci_high: float | None = None


@dataclass(frozen=True)
class FrequencyComparison:
    categories: tuple[str, ...]
    freq_a: tuple[float, ...]
    freq_b: tuple[float, ...]
    ratio_b_over_a: tuple[float, ...]  # inf where the category is absent from A
    # None when undefined (fewer than 3 categories, or a constant profile)
    spearman_rho: float | None
    spearman_p: PValue | None


def duel_win_fraction(duels: Sequence[DuelRecord], side: str = GROUP_B) -> WinFraction:
    """Fraction of duels won by ``side`` with an exact two-sided binomial test
    against the fair-coin null."""
    if side not in (GROUP_A, GROUP_B):
        raise ValidationError(f"side must be 'A' or 'B', got {side!r}")
    n = len(duels)
    if n == 0:
        raise ValidationError("win fraction requires at least one duel")
    wins = sum(1 for d in duels if d.winner == side)
    return WinFraction(
        fraction=wins / n,
        p_value=binomial_two_sided(wins, n, 0.5),
        n=n,
        wins=wins,
        side=side,
    )


def rater_macro_average(
    duels: Sequence[DuelRecord], side: str = GROUP_B
) -> RaterSummary:
    """Per-rater win fractions for ``side`` and their unweighted mean.

    Every rater counts once in the macro mean regardless of how many duels
    they judged. The histogram uses fixed bins of width 0.05 on [0, 1].
    """
    totals: dict[str, int] = {}
    wins: dict[str, int] = {}
    for d in duels:
        totals[d.rater_id] = totals.get(d.rater_id, 0) + 1
        if d.winner == side:
            wins[d.rater_id] = wins.get(d.rater_id, 0) + 1
    per_rater = {r: wins.get(r, 0) / totals[r] for r in totals}
    if not per_rater:
        return RaterSummary(per_rater={}, macro_mean=float("nan"), histogram=())
    macro = math.fsum(per_rater.values()) / len(per_rater)
    n_bins = round(1.0 / HISTOGRAM_BIN_WIDTH)
    counts = [0] * n_bins
    for frac in per_rater.values():
        idx = min(int(frac / HISTOGRAM_BIN_WIDTH), n_bins - 1)
        counts[idx] += 1
    histogram = tuple(
        (i * HISTOGRAM_BIN_WIDTH, (i + 1) * HISTOGRAM_BIN_WIDTH, c)
        for i, c in enumerate(counts)
    )
    return RaterSummary(per_rater=per_rater, macro_mean=macro, histogram=histogram)


def score_bias(
    scores_a: Sequence[float], scores_b: Sequence[float], log_scale: bool = True
) -> float:
    """Mean score of group B minus mean score of group A.

    Both groups must come from the same joint fit. By default the means
    are taken over log-scores, which makes the difference independent of
    the normalization gauge; raw-score mode is available for comparison.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("score bias requires both groups non-empty")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if log_scale:
        a, b = np.log(a), np.log(b)
    return float(b.mean() - a.mean())


def bootstrap_ci(
    data: Sequence,
    statistic: Callable[[Sequence], float],
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float, float]:
    """Percentile bootstrap 95% confidence interval for ``statistic(data)``,
    resampling the rows of ``data`` with replacement.

    Replicates on which the statistic raises a ValueError, ArithmeticError
    or package error are discarded; more than 10% discards aborts with
    UnstableBootstrapError. Any other exception propagates. Returns
    (point, low, high).
    """
    if replicates < 100:
        raise ValidationError("bootstrap needs at least 100 replicates")
    if len(data) == 0:
        raise ValidationError("bootstrap requires non-empty data")
    point = statistic(data)
    rng = np.random.default_rng(seed)
    values = []
    failures = 0
    for _ in range(replicates):
        idx = rng.integers(0, len(data), size=len(data))
        sample = [data[i] for i in idx]
        try:
            values.append(float(statistic(sample)))
        except (ValueError, ArithmeticError, DuelBiasError):
            failures += 1
    if failures > 0.1 * replicates:
        raise UnstableBootstrapError(
            f"{failures} of {replicates} bootstrap replicates failed"
        )
    low, high = percentile_ci(values)
    return point, float(low), float(high)


def percentile_ci(values) -> np.ndarray:
    """Percentile 95% interval of bootstrap values along the first axis:
    row 0 holds the lows, row 1 the highs."""
    return np.percentile(values, [2.5, 97.5], axis=0)


def resample_two_groups(
    values_a: np.ndarray,
    values_b: np.ndarray,
    replicates: int,
    seed: int,
    grid: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Resample each group with replacement, independently, ``replicates``
    times from one generator seeded with ``seed``.

    Returns the per-replicate mean differences mean(b) - mean(a), shape
    (replicates,), and the rank-curve rows, shape (replicates, len(grid)):
    the midpoint percentile rank within the resampled A of each grid
    percentile of the resampled B. Each replicate draws A's indices, then
    B's, with one ``integers`` call each, so the random stream does not
    depend on the block size. The statistics are computed a block of
    replicates at a time, and each replicate's values are bit-identical
    to those computed for it alone. NaN values are rejected.
    """
    if replicates < 100:
        raise ValidationError("bootstrap needs at least 100 replicates")
    if np.isnan(values_a).any() or np.isnan(values_b).any():
        # NaN compares false with everything, so it has no midpoint rank
        raise ValidationError("resampled values must not be NaN")
    n_a, n_b = len(values_a), len(values_b)
    rng = np.random.default_rng(seed)
    diffs = np.empty(replicates)
    rows = np.empty((replicates, len(grid)))
    block = max(1, min(replicates, _RESAMPLE_BLOCK_VALUES // (n_a + n_b)))
    idx_a = np.empty((block, n_a), dtype=np.intp)
    idx_b = np.empty((block, n_b), dtype=np.intp)
    for start in range(0, replicates, block):
        stop = min(start + block, replicates)
        m = stop - start
        for k in range(m):
            idx_a[k] = rng.integers(0, n_a, size=n_a)
            idx_b[k] = rng.integers(0, n_b, size=n_b)
        a = values_a[idx_a[:m]]
        b = values_b[idx_b[:m]]
        # means of the unsorted rows: sorting first would change the
        # summation order and with it the last bits
        diffs[start:stop] = b.mean(axis=1) - a.mean(axis=1)
        if len(grid):
            q = np.percentile(np.sort(b, axis=1), grid, axis=1).T[:, :, None]
            a = a[:, None, :]
            # exact counts, the integers searchsorted gives on sorted rows
            below = np.count_nonzero(a < q, axis=2)
            not_above = np.count_nonzero(a <= q, axis=2)
            rows[start:stop] = 50.0 * (below + not_above) / n_a
    return diffs, rows


def median_percentile_rank(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> float:
    """Percentile rank of group B's median score within group A's scores.

    Midpoint empirical-CDF convention, so identical distributions place
    the median near 50.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("both groups must be non-empty")
    median_b = float(np.median(np.asarray(scores_b, dtype=float)))
    return percentile_rank(median_b, scores_a)


def rank_curve(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    grid: Sequence[float] = DEFAULT_RANK_GRID,
    bootstrap_replicates: int | None = None,
    seed: int = 0,
) -> tuple[RankCurvePoint, ...]:
    """For each percentile x of group B, the percentile rank within group A
    of group B's x-th percentile score; non-decreasing in x.

    If ``bootstrap_replicates`` is given, both groups are resampled with
    replacement to attach 95% CIs to each point.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("both groups must be non-empty")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    ys = midpoint_ranks(np.percentile(b, grid), np.sort(a))
    if bootstrap_replicates is None:
        return tuple(RankCurvePoint(float(x), float(y)) for x, y in zip(grid, ys))
    _, boot = resample_two_groups(a, b, bootstrap_replicates, seed, grid)
    lows, highs = percentile_ci(boot)
    return tuple(
        RankCurvePoint(float(x), float(y), float(lo), float(hi))
        for x, y, lo, hi in zip(grid, ys, lows, highs)
    )


def score_correlations(
    score_tables: Mapping[str, Mapping[Hashable, float]], log_scale: bool = True
) -> tuple[tuple[str, ...], np.ndarray, list[list[PValue]]]:
    """Pearson correlation matrix between per-dimension scores over the same
    items. Returns (dimensions, r matrix, p-value matrix)."""
    dims = tuple(score_tables)
    if not dims:
        raise ValidationError("need at least one dimension")
    item_sets = [frozenset(score_tables[d]) for d in dims]
    if any(s != item_sets[0] for s in item_sets):
        raise ValidationError("all dimensions must cover the identical item set")
    items = sorted(item_sets[0])
    mat = np.array(
        [[float(score_tables[d][i]) for i in items] for d in dims], dtype=float
    )
    if log_scale:
        mat = np.log(mat)
    k = len(dims)
    r = np.eye(k)
    p: list[list[PValue]] = [[PValue(value=0.0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            rij, pij = pearson(mat[i], mat[j])
            r[i, j] = r[j, i] = rij
            p[i][j] = p[j][i] = pij
    for i in range(k):
        p[i][i] = PValue(value=0.0)
    return dims, r, p


def frequency_divergence(catalog: ItemCatalog) -> FrequencyComparison:
    """Per-category relative frequencies in each group, their B/A ratio,
    and the Spearman rank correlation of the two frequency profiles."""
    counts_a = catalog.category_counts(GROUP_A)
    counts_b = catalog.category_counts(GROUP_B)
    categories = catalog.categories()
    if len(categories) < 2:
        raise ValidationError("need at least 2 categories")
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if total_a == 0 or total_b == 0:
        raise ValidationError("each group must contain at least one item")
    freq_a = [counts_a.get(c, 0) / total_a for c in categories]
    freq_b = [counts_b.get(c, 0) / total_b for c in categories]
    ratio = [
        (fb / fa) if fa > 0 else math.inf for fa, fb in zip(freq_a, freq_b)
    ]
    try:
        rho, p = spearman(freq_a, freq_b)
    except ValueError:
        rho, p = None, None
    return FrequencyComparison(
        categories=tuple(categories),
        freq_a=tuple(freq_a),
        freq_b=tuple(freq_b),
        ratio_b_over_a=tuple(ratio),
        spearman_rho=rho,
        spearman_p=p,
    )


def triangle_lower_bound(
    bias: float, ci: tuple[float, float]
) -> tuple[float, tuple[float, float]]:
    """Lower bound |bias|/2 on the larger of the two unobserved biases
    against a reference population, with the shifted confidence interval.

    The interval is mirrored into the bias's magnitude scale and shifted
    down by |bias|/2, so e.g. bias 0.52 with CI (0.46, 0.56) gives bound
    0.26 with CI (0.20, 0.30).
    """
    bound = abs(bias) / 2.0
    low, high = ci
    if bias < 0:
        low, high = -high, -low
    return bound, (low - bound, high - bound)
