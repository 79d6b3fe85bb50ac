"""Bias statistics between two item populations.

Covers duel-outcome win fractions with exact binomial tests, per-rater
macro averages, score bias with bootstrap confidence intervals, median
percentile ranks and full rank curves, cross-dimension correlations,
category frequency divergence, and the triangle lower bound on the bias
against an unobserved reference population.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .duel_table import DuelTable
from .errors import DuelBiasError, UnstableBootstrapError, ValidationError
from .records import GROUP_A, GROUP_B, DuelRecord, Frozen, ItemCatalog
from .settings import rows_per_block
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


class WinFraction(Frozen):
    __slots__ = ("fraction", "p_value", "n", "wins")  # wins: group B's wins


class RaterSummary(Frozen):
    # histogram: (bin_low, bin_high, count) tuples
    __slots__ = ("per_rater", "macro_mean", "histogram")


class RankCurvePoint(Frozen):
    __slots__ = ("x", "y")


class FrequencyComparison(Frozen):
    # ratio_b_over_a is inf where the category is absent from A; spearman_rho
    # and spearman_p are None when undefined (fewer than 3 categories, or a
    # constant profile)
    __slots__ = (
        "categories", "freq_a", "freq_b", "ratio_b_over_a", "spearman_rho", "spearman_p"
    )


def duel_win_fraction(duels: Sequence[DuelRecord]) -> WinFraction:
    """Fraction of duels won by group B with an exact two-sided binomial test
    against the fair-coin null."""
    n = len(duels)
    if n == 0:
        raise ValidationError("win fraction requires at least one duel")
    wins = int(np.count_nonzero(DuelTable.of(duels).wins_of(GROUP_B)))
    return WinFraction(
        fraction=wins / n,
        p_value=binomial_two_sided(wins, n, 0.5),
        n=n,
        wins=wins,
    )


def rater_macro_average(duels: Sequence[DuelRecord]) -> RaterSummary:
    """Per-rater win fractions of group B and their unweighted mean.

    Every rater counts once in the macro mean regardless of how many duels
    they judged. The histogram uses fixed bins of width 0.05 on [0, 1].
    ``per_rater`` lists the raters in the order of their first duel.
    """
    duels = DuelTable.of(duels)
    if not len(duels):
        return RaterSummary(per_rater={}, macro_mean=float("nan"), histogram=())
    names, raters = duels.column("rater_id")
    present = np.fromiter(dict.fromkeys(raters.tolist()), np.intp)  # first-seen order
    totals = np.bincount(raters)[present]
    fractions = np.bincount(raters, duels.wins_of(GROUP_B))[present] / totals
    per_rater = dict(zip(map(names.__getitem__, present.tolist()), fractions.tolist()))
    macro = math.fsum(per_rater.values()) / len(per_rater)
    n_bins = round(1.0 / HISTOGRAM_BIN_WIDTH)
    bins = np.minimum((fractions / HISTOGRAM_BIN_WIDTH).astype(int), n_bins - 1)
    counts = np.bincount(bins, minlength=n_bins).tolist()
    histogram = tuple(
        (i * HISTOGRAM_BIN_WIDTH, (i + 1) * HISTOGRAM_BIN_WIDTH, c)
        for i, c in enumerate(counts)
    )
    return RaterSummary(per_rater=per_rater, macro_mean=macro, histogram=histogram)


def score_bias(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Mean log-score of group B minus mean log-score of group A.

    Both groups must come from the same joint fit. Taking the means over
    log-scores makes the difference independent of the normalization gauge.
    A score that is not positive and finite raises ValidationError.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("score bias requires both groups non-empty")
    a, b = (np.asarray(s, dtype=float) for s in (scores_a, scores_b))
    bad = [x for x in (*a, *b) if not 0 < x < math.inf]
    if bad:
        raise ValidationError(f"scores must be positive and finite, got {bad[0]}")
    return float(np.log(b).mean() - np.log(a).mean())


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
    row 0 holds the lows, row 1 the highs. The bits of
    ``np.percentile(values, [2.5, 97.5], axis=0)``, read from the sorted
    values (see ``_sorted_percentiles``), except that a column mixing -0.0
    and 0.0 may give a zero of the other sign: the sort and numpy's
    partition may order the two differently."""
    values = np.sort(np.asarray(values, dtype=float), axis=0)
    rows = values.reshape(len(values), -1).T
    return _sorted_percentiles(rows, (2.5, 97.5)).T.reshape(2, *values.shape[1:])


def resample_two_groups(
    values_a: np.ndarray,
    values_b: np.ndarray,
    replicates: int,
    seed: int,
    grid: Sequence[float] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Resample each group with replacement, independently, ``replicates``
    times: A from the first and B from the second of two generators spawned
    from ``np.random.SeedSequence(seed)``.

    Returns the per-replicate mean differences mean(b) - mean(a), shape
    (replicates,), and the rank-curve rows, shape (replicates, len(grid)):
    the midpoint percentile rank within the resampled A of each grid
    percentile of the resampled B. Each group's indices come one row per
    replicate from its own generator, whose stream does not depend on how
    the rows are split into ``rows_per_block`` blocks, nor on the other
    group. The grid percentiles are read from the sorted B rows with numpy's
    ``linear`` rule (see ``_sorted_percentiles``), a rank is counted from
    the multiplicities of A's items in sorted order, and each replicate's
    values are bit-identical to those computed for it alone. Empty groups,
    non-finite values and grid percentiles outside [0, 100] are rejected.
    """
    if replicates < 100:
        raise ValidationError("bootstrap needs at least 100 replicates")
    values_a, values_b = _finite_groups(values_a, values_b)
    grid = _checked_grid(grid)
    n_a, n_b = len(values_a), len(values_b)
    # not Generator.spawn, which needs numpy 1.25
    rng_a, rng_b = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    diffs = np.empty(replicates)
    rows = np.empty((replicates, len(grid)))
    # a row holds one index and one value per drawn item
    block = rows_per_block(replicates, 2 * (n_a + n_b))
    # per-block buffers, sliced to the block's m rows
    a_buf = np.empty((block, n_a))
    b_buf = np.empty((block, n_b))
    order = np.argsort(values_a)
    sorted_a = values_a[order]
    # 1 + each A item's position in sorted_a: column 0 of a row's counts
    # stays 0, so their cumulative sum at j counts the draws below position j
    slot = np.empty(n_a, dtype=np.intp)
    slot[order] = np.arange(1, n_a + 1)
    # where the run of values equal to sorted_a[j] ends, per position j
    run_end = np.append(np.searchsorted(sorted_a, sorted_a, "right"), n_a)
    padded = np.append(sorted_a, np.nan)  # NaN equals no grid percentile
    for start in range(0, replicates, block):
        stop = min(start + block, replicates)
        m = stop - start
        idx_a = rng_a.integers(0, n_a, size=(m, n_a))
        a = np.take(values_a, idx_a, out=a_buf[:m], mode="clip")
        b = np.take(values_b, rng_b.integers(0, n_b, size=(m, n_b)),
                    out=b_buf[:m], mode="clip")
        # means of the unsorted rows: sorting first would change the
        # summation order and with it the last bits
        diffs[start:stop] = b.mean(axis=1) - a.mean(axis=1)
        if len(grid):
            b.sort(axis=1)
            q = _sorted_percentiles(b, grid)
            slots = slot[idx_a]
            slots += (n_a + 1) * np.arange(m)[:, None]
            cumulative = np.bincount(slots.ravel(), minlength=m * (n_a + 1))
            cumulative = cumulative.reshape(m, n_a + 1).cumsum(axis=1)
            left = np.searchsorted(sorted_a, q)
            right = np.where(padded[left] == q, run_end[left], left)
            # both ends' counts by one flat read of the (m, n_a + 1) counts
            ends = np.stack((left, right))
            ends += (n_a + 1) * np.arange(m)[:, None]
            below, not_above = np.take(cumulative, ends)
            rows[start:stop] = 50.0 * (below + not_above) / n_a
    return diffs, rows


def _sorted_percentiles(rows: np.ndarray, grid: Sequence[float]) -> np.ndarray:
    """``np.percentile(rows, grid, axis=1).T`` for rows sorted along axis 1.

    numpy's default ``linear`` rule, step by step, reading the neighbours
    straight from the sorted rows instead of partitioning them again: the
    virtual index (n - 1) * (grid / 100), its floor and the next index,
    both replaced by -1 (the last value) where the virtual index reaches
    n - 1, the weight as the virtual index minus the lower neighbour's
    index, and the interpolation of numpy's ``_lerp``, which switches to
    b - (b - a) * (1 - g) where g >= 0.5. The same operations in the same
    order give the same bits, signed zeros included; a row that holds NaN
    gives its last value, NaN, as numpy does. numpy's own call would also
    load ``numpy.ma``, which nothing else here needs. ``grid`` is checked
    by ``_checked_grid``.
    """
    grid = _checked_grid(grid)
    n = rows.shape[1]
    virtual = (n - 1) * (grid / 100)
    lower = np.floor(virtual)
    upper = lower + 1
    top = virtual >= n - 1
    lower[top] = upper[top] = -1
    gamma = virtual - lower
    a = rows[:, lower.astype(np.intp)]
    b = rows[:, upper.astype(np.intp)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    np.copyto(out, rows[:, -1:], where=np.isnan(rows[:, -1:]))
    return out


def _checked_grid(grid: Sequence[float]) -> np.ndarray:
    """``grid`` as a 1-D float array. A scalar, or a grid percentile outside
    [0, 100] or NaN, raises ValidationError, where numpy raises."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError(f"grid must be a sequence, got {grid.tolist()!r}")
    if not ((grid >= 0) & (grid <= 100)).all():
        raise ValidationError(f"grid percentiles must lie in [0, 100]: {grid.tolist()}")
    return grid


def _finite_groups(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Both groups as float arrays. An empty group or a non-finite value
    raises ValidationError: NaN has no midpoint rank, and an infinite value
    can make a grid percentile NaN (inf - inf)."""
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValidationError("both groups must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValidationError("scores must be finite")
    return a, b


def median_percentile_rank(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> float:
    """Percentile rank of group B's median score within group A's scores.

    Midpoint empirical-CDF convention, so identical distributions place
    the median near 50. An empty group or a non-finite score raises
    ValidationError.
    """
    a, b = _finite_groups(scores_a, scores_b)
    b = np.sort(b)
    # np.median's bits without its load of numpy.ma: the mean of the middle
    # value or the two middle values
    n = len(b)
    return percentile_rank(float(b[(n - 1) // 2 : n // 2 + 1].mean()), a)


def rank_curve(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    grid: Sequence[float] = DEFAULT_RANK_GRID,
) -> tuple[RankCurvePoint, ...]:
    """For each percentile x of group B, the percentile rank within group A
    of group B's x-th percentile score; non-decreasing in x. Its bootstrap
    CIs come from the rank-curve rows of ``resample_two_groups``. An empty
    group, a non-finite score, a scalar grid or a grid percentile outside
    [0, 100] raises ValidationError."""
    a, b = _finite_groups(scores_a, scores_b)
    percentiles = _sorted_percentiles(np.sort(b)[None], grid)[0]
    ys = midpoint_ranks(percentiles, np.sort(a))
    return tuple(RankCurvePoint(float(x), float(y)) for x, y in zip(grid, ys))


def score_correlations(
    score_tables: Mapping[str, Mapping[Hashable, float]],
) -> tuple[tuple[str, ...], np.ndarray, list[list[PValue | None]]]:
    """Pearson correlation matrix between per-dimension log-scores over the
    same items. Returns (dimensions, r matrix, p-value matrix); a pair that
    ``pearson`` rejects (fewer than 3 items, or a dimension whose scores are
    all equal) has r NaN and p None."""
    dims = tuple(score_tables)
    if not dims:
        raise ValidationError("need at least one dimension")
    item_sets = [frozenset(score_tables[d]) for d in dims]
    if any(s != item_sets[0] for s in item_sets):
        raise ValidationError("all dimensions must cover the identical item set")
    items = sorted(item_sets[0])
    mat = np.log([[float(score_tables[d][i]) for i in items] for d in dims])
    k = len(dims)
    r = np.eye(k)
    p: list[list[PValue | None]] = [[PValue(value=0.0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            try:
                rij, pij = pearson(mat[i], mat[j])
            except ValueError:
                rij, pij = math.nan, None
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
    against a reference population, with its confidence interval.

    The interval is for |bias|/2, not for the unobserved bias: the image of
    the bias's CI under d -> |d|/2, which is monotone on each side of 0. So
    e.g. bias 0.52 with CI (0.46, 0.56) gives bound 0.26 with CI (0.23,
    0.28), and a CI that holds 0 gives an interval from 0.
    """
    low, high = ci
    ends = abs(low) / 2.0, abs(high) / 2.0
    return abs(bias) / 2.0, (0.0 if low <= 0.0 <= high else min(ends), max(ends))
