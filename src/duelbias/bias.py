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
    wins: int  # group B's wins


@dataclass(frozen=True)
class RaterSummary:
    per_rater: dict[str, float]
    macro_mean: float
    histogram: tuple[tuple[float, float, int], ...]  # (bin_low, bin_high, count)


@dataclass(frozen=True)
class RankCurvePoint:
    x: float
    y: float


@dataclass(frozen=True)
class FrequencyComparison:
    categories: tuple[str, ...]
    freq_a: tuple[float, ...]
    freq_b: tuple[float, ...]
    ratio_b_over_a: tuple[float, ...]  # inf where the category is absent from A
    # None when undefined (fewer than 3 categories, or a constant profile)
    spearman_rho: float | None
    spearman_p: PValue | None


def duel_win_fraction(duels: Sequence[DuelRecord]) -> WinFraction:
    """Fraction of duels won by group B with an exact two-sided binomial test
    against the fair-coin null."""
    n = len(duels)
    if n == 0:
        raise ValidationError("win fraction requires at least one duel")
    wins = sum(1 for d in duels if d.winner == GROUP_B)
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
    """
    totals: dict[str, int] = {}
    wins: dict[str, int] = {}
    for d in duels:
        totals[d.rater_id] = totals.get(d.rater_id, 0) + 1
        if d.winner == GROUP_B:
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


def score_bias(scores_a: Sequence[float], scores_b: Sequence[float]) -> float:
    """Mean log-score of group B minus mean log-score of group A.

    Both groups must come from the same joint fit. Taking the means over
    log-scores makes the difference independent of the normalization gauge.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("score bias requires both groups non-empty")
    a = np.log(np.asarray(scores_a, dtype=float))
    b = np.log(np.asarray(scores_b, dtype=float))
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
    times from one generator seeded with ``seed``.

    Returns the per-replicate mean differences mean(b) - mean(a), shape
    (replicates,), and the rank-curve rows, shape (replicates, len(grid)):
    the midpoint percentile rank within the resampled A of each grid
    percentile of the resampled B. Row r of a block holds A's indices, then
    B's, drawn as ``integers(0, bounds)`` with per-index bounds would draw
    them (see ``_draw_indices``): the same stream as two calls per
    replicate, so the values do not depend on the block size. The grid
    percentiles are read from the sorted B rows with numpy's ``linear``
    rule (see ``_sorted_percentiles``), a rank is counted from the
    multiplicities of A's items in sorted order, and each replicate's
    values are bit-identical to those computed for it alone. Empty groups
    and non-finite values are rejected.
    """
    if replicates < 100:
        raise ValidationError("bootstrap needs at least 100 replicates")
    values_a = np.asarray(values_a, dtype=float)
    values_b = np.asarray(values_b, dtype=float)
    n_a, n_b = len(values_a), len(values_b)
    if n_a == 0 or n_b == 0:
        raise ValidationError("both groups must be non-empty")
    if not (np.isfinite(values_a).all() and np.isfinite(values_b).all()):
        # NaN has no midpoint rank, and an infinite value can make a grid
        # percentile NaN (inf - inf)
        raise ValidationError("resampled values must be finite")
    rng = np.random.default_rng(seed)
    diffs = np.empty(replicates)
    rows = np.empty((replicates, len(grid)))
    block = max(1, min(replicates, _RESAMPLE_BLOCK_VALUES // (n_a + n_b)))
    # per-block buffers, sliced to the block's m rows
    idx_buf = np.empty((block, n_a + n_b), dtype=np.uint64)
    a_buf = np.empty((block, n_a))
    b_buf = np.empty((block, n_b))
    order = np.argsort(values_a)
    sorted_a = values_a[order]
    # 1 + each A item's position in sorted_a: column 0 of a row's counts
    # stays 0, so their cumulative sum at j counts the draws below position j
    slot = np.empty(n_a, dtype=np.intp)
    slot[order] = np.arange(1, n_a + 1)
    for start in range(0, replicates, block):
        stop = min(start + block, replicates)
        m = stop - start
        idx = _draw_indices(rng, (n_a, n_b), (n_a, n_b), idx_buf[:m])
        idx_a, idx_b = idx[:, :n_a], idx[:, n_a:]
        a = np.take(values_a, idx_a, out=a_buf[:m], mode="clip")
        b = np.take(values_b, idx_b, out=b_buf[:m], mode="clip")
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
            below, not_above = (
                np.take_along_axis(cumulative, np.searchsorted(sorted_a, q, side), 1)
                for side in ("left", "right")
            )
            rows[start:stop] = 50.0 * (below + not_above) / n_a
    return diffs, rows


def _draw_indices(
    rng: np.random.Generator,
    bounds: Sequence[int],
    widths: Sequence[int],
    out: np.ndarray,
) -> np.ndarray:
    """Fill ``out``, a C-contiguous (m, sum(widths)) uint64 array, with the
    indices ``rng.integers(0, np.repeat(bounds, widths), size=out.shape)``
    returns, leave ``rng`` where that call leaves it, and return ``out``
    viewed as int64.

    That call maps each raw 32-bit value u of the generator's stream to
    (u * n) >> 32 for a bound n (Lemire's multiply-shift, ACM TOMACS 29(1),
    2019) and draws again where the low 32 bits of u * n fall below
    (2**32 - n) % n. Here one call reads the block's raw values and the map
    runs on each slice of columns with its scalar bound. A block with a
    value that would be drawn again (about 300 in 2**32 at a few hundred
    items), or with a bound of 1, for which numpy draws nothing, is drawn
    from the saved state with the per-index call itself.
    """
    if all(1 < n < 2**32 for n in bounds):
        state = rng.bit_generator.state
        raw = rng.integers(0, 2**32, size=out.shape, dtype=np.uint32)
        edges = np.cumsum((0, *widths)).tolist()
        spans = [(n, slice(lo, hi)) for n, lo, hi in zip(bounds, edges, edges[1:])]
        # the low 32 bits of u * n, in uint32 arithmetic, against numpy's threshold
        if not any(
            (raw[:, cols] * np.uint32(n) < (2**32 - n) % n).any() for n, cols in spans
        ):
            for n, cols in spans:
                np.multiply(raw[:, cols], n, out=out[:, cols], dtype=np.uint64)
            np.right_shift(out, np.uint64(32), out=out)
            return out.view(np.int64)
        rng.bit_generator.state = state
    out[...] = rng.integers(0, np.repeat(bounds, widths), size=out.shape)
    return out.view(np.int64)


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
    load ``numpy.ma``, which nothing else here needs.
    """
    n = rows.shape[1]
    virtual = (n - 1) * (np.asarray(grid, dtype=float) / 100)
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


def median_percentile_rank(
    scores_a: Sequence[float], scores_b: Sequence[float]
) -> float:
    """Percentile rank of group B's median score within group A's scores.

    Midpoint empirical-CDF convention, so identical distributions place
    the median near 50.
    """
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("both groups must be non-empty")
    b = np.sort(np.asarray(scores_b, dtype=float))
    # np.median's bits without its load of numpy.ma: the mean of the middle
    # value or the two middle values, or the last value if it is NaN
    n = len(b)
    median_b = b[-1] if np.isnan(b[-1]) else b[(n - 1) // 2 : n // 2 + 1].mean()
    return percentile_rank(float(median_b), scores_a)


def rank_curve(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    grid: Sequence[float] = DEFAULT_RANK_GRID,
) -> tuple[RankCurvePoint, ...]:
    """For each percentile x of group B, the percentile rank within group A
    of group B's x-th percentile score; non-decreasing in x. Its bootstrap
    CIs come from the rank-curve rows of ``resample_two_groups``."""
    if len(scores_a) == 0 or len(scores_b) == 0:
        raise ValidationError("both groups must be non-empty")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    percentiles = _sorted_percentiles(np.sort(b)[None], grid)[0]
    ys = midpoint_ranks(percentiles, np.sort(a))
    return tuple(RankCurvePoint(float(x), float(y)) for x, y in zip(grid, ys))


def score_correlations(
    score_tables: Mapping[str, Mapping[Hashable, float]],
) -> tuple[tuple[str, ...], np.ndarray, list[list[PValue]]]:
    """Pearson correlation matrix between per-dimension log-scores over the
    same items. Returns (dimensions, r matrix, p-value matrix)."""
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
