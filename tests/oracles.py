"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: brute
force enumeration, exact rational arithmetic, and grid search. The refit
bootstrap and the rank-recovery simulation are checked against the paths
they replaced: one graph and one single fit per replicate. So are the
two-sample resampler and the binomial test, for bit equality. The CSV
parsers are checked against the ``csv.DictReader`` parsers they replaced,
the chunked input digests against the one-join text they replaced,
the tournament selection against its ``ComparisonGraph.from_pairs`` route
after a separate check pass, and the tag ranking against the version that
tested every tag.
"""

import csv
import math
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from duelbias.choice_model import ComparisonGraph, fit
from duelbias.datasets import DUEL_COLUMNS, ITEM_COLUMNS, TAG_COLUMNS
from duelbias.errors import (
    DuelBiasError,
    ParseError,
    ReferentialError,
    ValidationError,
)
from duelbias.records import (
    GROUP_A,
    GROUP_B,
    DuelRecord,
    ItemCatalog,
    ItemRecord,
    TagRecord,
)
from duelbias.stats import PValue, chi_square_2x2
from duelbias.tags import (
    DistinctiveTag,
    TagDistribution,
    normalize_tag,
    pointwise_kl,
    significance_stars,
)
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


def three_lgamma_binomial_two_sided(k: int, n: int, p0: float) -> PValue:
    """stats.binomial_two_sided with three lgamma calls per outcome, in the
    same order of operations, and no table of log-factorials."""
    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    logpmf = [
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * log_p
        + (n - j) * log_q
        for j in range(n + 1)
    ]
    selected = [lp for lp in logpmf if lp <= logpmf[k] + 1e-9]
    top = max(selected)
    log_total = top + math.log(math.fsum(math.exp(x - top) for x in selected))
    return PValue.from_log10(min(log_total / math.log(10), 0.0))


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
    directly: the same draws as bias.resample_two_groups (A's indices from
    the first generator spawned from the seed, B's from the second) with no
    blocks and no searchsorted."""
    rng_a, rng_b = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    diffs = np.empty(replicates)
    rows = np.empty((replicates, len(grid)))
    for r in range(replicates):
        a = values_a[rng_a.integers(0, len(values_a), size=len(values_a))]
        b = values_b[rng_b.integers(0, len(values_b), size=len(values_b))]
        diffs[r] = b.mean() - a.mean()
        for j, q in enumerate(np.percentile(b, grid) if len(grid) else ()):
            below = np.count_nonzero(a < q)
            not_above = np.count_nonzero(a <= q)
            rows[r, j] = 50.0 * (below + not_above) / len(a)
    return diffs, rows


def loop_refit_bias_replicates(
    catalog, duels, category, dimension, fit_config, replicates, seed, warm_start,
):
    """Duel-unit refit bootstrap of one tournament, one replicate at a time:
    the same draws as pipeline.refit_bias_replicates, but each resample of
    ``duels`` is filtered to the tournament, built into its own
    ComparisonGraph and fitted alone from ``warm_start``. The bias is taken
    over log-scores. A replicate whose fit raises a package error or does
    not converge is discarded.

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
            np.log([table.scores[i] for i in catalog.ids(group=g, category=category)])
            for g in ("A", "B")
        )
        values.append(float(b.mean() - a.mean()))
    return np.array(values), discards


def loop_simulate_rank_recovery(
    n_items_per_group,
    budgets,
    replicates,
    seed,
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
            graph = ComparisonGraph(items=items, duels=duels)
            table = fit(graph, SIMULATION_FIT_CONFIG)
            fitted = np.round(np.log(table.score_array(items)), _TAU_DECIMALS)
            taus[r, j] = kendall_tau_values(scores_true, fitted)
    return RecoveryCurve(
        budgets=tuple(int(b) for b in budgets),
        mean_tau=tuple(float(m) for m in taus.mean(axis=0)),
        std_tau=tuple(float(s) for s in taus.std(axis=0, ddof=0)),
        replicates=replicates,
        seed=seed,
    )


def dictreader_rows(path, required, column_map, lines, optional=()):
    """One dict per row from csv.DictReader, stripped, the k-th numbered
    ``lines[k]``: the line the caller knows the row starts on."""
    column_map = dict(column_map or {})
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file, header row required")
        header = set(reader.fieldnames)
        for col in required:
            if column_map.get(col, col) not in header:
                raise ParseError(
                    f"{path}: missing required column {column_map.get(col, col)!r}"
                )
        rows = []
        for lineno, raw in zip(lines, reader, strict=True):
            row = {}
            for col in (*required, *optional):
                value = raw.get(column_map.get(col, col))
                if value is None and col in required:
                    raise ParseError(
                        "row has too few fields", line=lineno, path=path
                    )
                row[col] = value.strip() if value is not None else None
            rows.append((lineno, row))
    return rows


def dictreader_parse_items(path, column_map, lines):
    records = []
    for lineno, row in dictreader_rows(
        path, ITEM_COLUMNS[:3], column_map, lines, optional=("external_ref",)
    ):
        try:
            records.append(
                (lineno, ItemRecord(
                    item_id=row["item_id"],
                    group=row["group"],
                    category=row["category"],
                    external_ref=row["external_ref"] or None,
                ))
            )
        except ValidationError as exc:
            raise ParseError(exc, line=lineno, path=path) from exc
    # once every row is valid, the first repeated id, on its second row's line
    seen = set()
    for lineno, record in records:
        if record.item_id in seen:
            raise ValidationError(
                f"{path}: line {lineno}: duplicate item_id {record.item_id!r}"
            )
        seen.add(record.item_id)
    return ItemCatalog(record for _, record in records)


def dictreader_parse_duels(path, catalog, column_map, lines):
    category_of = {r.item_id: r.category for r in catalog.records} if catalog else {}
    duels = []
    for lineno, row in dictreader_rows(path, DUEL_COLUMNS, column_map, lines):
        try:
            duel = DuelRecord(**row)
        except (ValidationError, TypeError) as exc:
            raise ParseError(exc, line=lineno, path=path) from exc
        if catalog is not None:
            for item in (duel.item_a, duel.item_b):
                if item not in catalog:
                    raise ReferentialError(
                        f"{path}: line {lineno}: unknown item {item!r}"
                    )
            ga = catalog.group_of(duel.item_a)
            gb = catalog.group_of(duel.item_b)
            if ga != GROUP_A or gb != GROUP_B:
                raise ValidationError(
                    f"{path}: line {lineno}: item_a must be group A and item_b "
                    f"group B (got {ga}, {gb})"
                )
            for item in (duel.item_a, duel.item_b):
                if category_of[item] != duel.category:
                    raise ReferentialError(
                        f"{path}: line {lineno}: duel {duel.duel_id!r} has "
                        f"category {duel.category!r}, but its item {item!r} is "
                        f"catalogued as {category_of[item]!r}"
                    )
        duels.append(duel)
    return duels


def one_join_lines(rows):
    """Rows of strings as the text that the input digests hash, made by one
    join: the fields comma-joined, a newline after each row."""
    return "\n".join([*map(",".join, rows), ""])


def one_join_duel_lines(table):
    """A ``DuelTable``'s rows as the text that the duel digest hashes, made
    by one join over the whole table, as ``DuelTable.lines`` did before it
    made the text a chunk of rows at a time."""
    fields = DUEL_COLUMNS[1:]
    cells = np.empty((len(table), len(DUEL_COLUMNS)), object)
    cells[:, 0] = table.columns()[0]
    for k, field in enumerate(fields, 1):
        values, codes = table.column(field)
        end = "\n" if k == len(fields) else ""
        cells[:, k] = np.array([f",{v}{end}" for v in values], object)[codes]
    return "".join(cells.ravel().tolist())


def pairs_select_tournaments(catalog, duels, dimensions, categories):
    """pipeline.select_tournaments as a check pass and then a build: every
    duel is passed to ``catalog.check_duel`` (the first failure raises with
    its message prefixed ``duel 'id': ``), then the kept duels of each
    (category, dimension) become a graph by ``ComparisonGraph.from_pairs``
    over their winner and loser ids. Returns (category, dimension, duels,
    graph, group A's indices, group B's) per tournament, in sorted order."""
    for d in duels:
        try:
            catalog.check_duel(d)
        except ValidationError as exc:
            exc.args = (f"duel {d.duel_id!r}: {exc}",)
            raise
    kept = {}
    for d in duels:
        if (dimensions is None or d.dimension in dimensions) and (
            categories is None or d.category in categories
        ):
            kept.setdefault((d.category, d.dimension), []).append(d)
    if not kept:
        raise ValidationError("no duels left after applying the configured filters")
    out = []
    for (category, dimension), pair_duels in sorted(kept.items()):
        items = catalog.ids(category=category)
        pairs = [(d.winner_item, d.loser_item) for d in pair_duels]
        group = np.array([catalog.group_of(i) for i in items])
        out.append((
            category, dimension, tuple(pair_duels),
            ComparisonGraph.from_pairs(pairs, items=items),
            np.flatnonzero(group == GROUP_A), np.flatnonzero(group == GROUP_B),
        ))
    return out


def dictreader_parse_tags(path, column_map, lines):
    tags = []
    for lineno, row in dictreader_rows(path, TAG_COLUMNS, column_map, lines):
        try:
            tags.append(
                TagRecord(
                    duel_id=row["duel_id"],
                    item_id=row["item_id"],
                    rater_id=row["rater_id"],
                    raw_text=row["raw_tag"],
                )
            )
        except ValidationError as exc:
            raise ParseError(exc, line=lineno, path=path) from exc
    return tags


def per_record_aggregate_tags(records, group_of, stopword_prefixes, dash_merge_lexicon):
    """Tag counts by group, normalizing every record's raw text anew."""
    per_group = {}
    for rec in records:
        per_group.setdefault(group_of[rec.item_id], []).extend(
            normalize_tag(rec.raw_text, stopword_prefixes, dash_merge_lexicon)
        )
    return {g: TagDistribution.from_tags(tags) for g, tags in per_group.items()}


def _all_rows_rank_direction(target, reference, vocabulary, top_k, min_count):
    total_t, total_r = target.total, reference.total
    rows = []
    for tag in vocabulary:
        ct = target.counts.get(tag, 0)
        cr = reference.counts.get(tag, 0)
        if ct + cr < min_count:
            continue
        kl = pointwise_kl(
            target.probability(tag, vocabulary), reference.probability(tag, vocabulary)
        )
        chi2, p = chi_square_2x2([[ct, total_t - ct], [cr, total_r - cr]])
        rows.append(
            DistinctiveTag(
                tag=tag,
                kl=kl,
                count_target=ct,
                count_reference=cr,
                chi2=chi2,
                p_value=p,
                stars=significance_stars(p),
            )
        )
    rows.sort(key=lambda r: (-r.kl, -(r.count_target + r.count_reference), r.tag))
    return rows[:top_k]


def all_rows_distinctive_tags(tags_a, tags_b, top_k, min_count):
    """Both directions of the ranking, with a chi-square test for every tag
    that passes ``min_count`` and the cut to ``top_k`` made last."""
    vocabulary = sorted(set(tags_a.counts) | set(tags_b.counts))
    return (
        _all_rows_rank_direction(tags_a, tags_b, vocabulary, top_k, min_count),
        _all_rows_rank_direction(tags_b, tags_a, vocabulary, top_k, min_count),
    )
