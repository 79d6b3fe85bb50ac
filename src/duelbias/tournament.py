"""Balanced duel schedules and rank-recovery simulations.

Schedules pair items across two equally sized groups so that every item
takes part in exactly the same number of duels. The simulation estimates
how many comparisons are needed before the ranking recovered by the
choice model matches a known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .choice_model import ComparisonGraph, FitConfig, fit
from .errors import InfeasibleScheduleError, SizeMismatchError, ValidationError

# Simulations run many fits and only use the ranking they give; a looser
# gradient tolerance than FitConfig's default saves a Newton step or so per
# fit without moving Kendall's tau measurably. 5,000 steps is far above the
# ten or so a fit needs.
SIMULATION_FIT_CONFIG = FitConfig(tolerance=1e-6, max_iterations=5_000)

# Fitted log-scores are rounded to this many decimals, far finer than a fit
# resolves, before Kendall's tau, so that an exact tie of the optimum that
# a fit reproduces only to the last bits still counts as a tie.
_TAU_DECIMALS = 9

DEFAULT_BUDGETS = (100, 200, 500, 1000, 2000)

OUTCOME_RATER_NORMAL = "rater-normal"
OUTCOME_BRADLEY_TERRY = "bradley-terry"

# Perception-noise scale calibrated so the recovery curve hits the published
# anchor (tau near 0.80 at 10 duels per item with 100 items). Zero gives the
# noiseless limit where the higher-quality item always wins.
DEFAULT_RATER_NOISE = 0.25


@dataclass(frozen=True)
class SchedulePlan:
    group_a: tuple[Hashable, ...]
    group_b: tuple[Hashable, ...]
    duels_per_item: int
    pairs: tuple[tuple[Hashable, Hashable], ...]

    def appearance_counts(self) -> dict[Hashable, int]:
        counts = {item: 0 for item in self.group_a + self.group_b}
        for a, b in self.pairs:
            counts[a] += 1
            counts[b] += 1
        return counts


@dataclass(frozen=True)
class RecoveryCurve:
    budgets: tuple[int, ...]
    mean_tau: tuple[float, ...]
    std_tau: tuple[float, ...]
    replicates: int
    seed: int


def sample_balanced_duels(
    group_a: Sequence[Hashable],
    group_b: Sequence[Hashable],
    duels_per_item: int,
    seed: int,
    distinct_opponents: bool = False,
) -> SchedulePlan:
    """Random bipartite schedule that is duels_per_item-regular on both sides.

    Pairs are generated as duels_per_item stacked random perfect matchings,
    so exact regularity holds by construction. Repeated pairings are
    allowed unless ``distinct_opponents`` is set, in which case every item
    meets duels_per_item different opponents (random cyclic-shift design).
    """
    n = len(group_a)
    if n != len(group_b):
        raise SizeMismatchError(
            f"groups must have equal sizes, got {n} and {len(group_b)}"
        )
    if n < 1:
        raise SizeMismatchError("groups must be non-empty")
    if duels_per_item < 1:
        raise ValidationError("duels_per_item must be >= 1")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[Hashable, Hashable]] = []
    if distinct_opponents:
        if duels_per_item > n:
            raise InfeasibleScheduleError(
                f"cannot give each item {duels_per_item} distinct opponents "
                f"out of {n}"
            )
        perm = rng.permutation(n)
        shifts = rng.choice(n, size=duels_per_item, replace=False)
        for d in shifts:
            for i in range(n):
                pairs.append((group_a[i], group_b[perm[(i + d) % n]]))
    else:
        for _ in range(duels_per_item):
            perm = rng.permutation(n)
            for i in range(n):
                pairs.append((group_a[i], group_b[perm[i]]))
    return SchedulePlan(
        group_a=tuple(group_a),
        group_b=tuple(group_b),
        duels_per_item=duels_per_item,
        pairs=tuple(pairs),
    )


def kendall_tau_values(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall's tau-b between two paired value vectors (tie-adjusted)."""
    if len(xs) != len(ys):
        raise ValidationError(f"length mismatch: {len(xs)} vs {len(ys)}")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), k=1)
    sx, sy = sx[iu], sy[iu]
    concordant_minus_discordant = float(np.sum(sx * sy))
    n0 = len(sx)
    tied_x = float(np.sum(sx == 0))
    tied_y = float(np.sum(sy == 0))
    denom = np.sqrt((n0 - tied_x) * (n0 - tied_y))
    if denom == 0:
        raise ValidationError("tau-b undefined: one input is constant")
    return concordant_minus_discordant / denom


def kendall_tau(rank_a: Sequence[Hashable], rank_b: Sequence[Hashable]) -> float:
    """Kendall's tau-b between two total orders over the same item set."""
    if set(rank_a) != set(rank_b):
        raise ValidationError("rankings must cover the same item set")
    if len(set(rank_a)) != len(rank_a) or len(set(rank_b)) != len(rank_b):
        raise ValidationError("rankings must not repeat items")
    pos_b = {item: i for i, item in enumerate(rank_b)}
    return kendall_tau_values(
        list(range(len(rank_a))), [pos_b[item] for item in rank_a]
    )


def _simulate_one(
    n: int,
    budgets: Sequence[int],
    replicate_seed: int,
    fit_config: FitConfig,
    outcome_noise: str,
    rater_noise_scale: float,
) -> list[float]:
    """One replicate: latent qualities, schedules, duels, fits, taus.

    Each budget gets its own derived generator, so the tau reported for a
    budget does not depend on which other budgets were requested.
    """
    qualities = np.random.default_rng([replicate_seed, 0]).standard_normal(2 * n)
    scores_true = np.exp(qualities)
    items = tuple(range(2 * n))
    taus = []
    for budget in budgets:
        rng = np.random.default_rng([replicate_seed, budget])
        duels_per_item = budget // n
        plan = sample_balanced_duels(
            items[:n], items[n:], duels_per_item, seed=int(rng.integers(2**63))
        )
        a_idx = np.array([p[0] for p in plan.pairs], dtype=np.intp)
        b_idx = np.array([p[1] for p in plan.pairs], dtype=np.intp)
        if outcome_noise == OUTCOME_RATER_NORMAL:
            noise = rater_noise_scale * rng.standard_normal((len(a_idx), 2))
            a_wins = (
                qualities[a_idx] + noise[:, 0] > qualities[b_idx] + noise[:, 1]
            )
        else:
            p_a = scores_true[a_idx] / (scores_true[a_idx] + scores_true[b_idx])
            a_wins = rng.random(len(a_idx)) < p_a
        duels = tuple(
            (int(a), int(b)) if win else (int(b), int(a))
            for a, b, win in zip(a_idx, b_idx, a_wins)
        )
        graph = ComparisonGraph(items=items, duels=duels)
        table = fit(graph, fit_config)
        fitted = np.round(np.log(table.score_array(items)), _TAU_DECIMALS)
        taus.append(kendall_tau_values(scores_true, fitted))
    return taus


def simulate_rank_recovery(
    n_items_per_group: int,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    replicates: int = 50,
    seed: int = 0,
    fit_config: FitConfig | None = None,
    outcome_noise: str = OUTCOME_RATER_NORMAL,
    rater_noise_scale: float = DEFAULT_RATER_NOISE,
) -> RecoveryCurve:
    """Estimate rank-recovery quality for each comparison budget.

    Per replicate, log-qualities for 2*n items are drawn i.i.d. standard
    normal, a balanced cross-group schedule is sampled for each budget,
    duel outcomes are generated, the choice model is fit, and Kendall's
    tau between true and fitted scores is recorded. Replicate r uses its
    own generators derived from seed + r.

    Outcome models:
      "rater-normal" (default): each duel's rater perceives both qualities
        with independent normal noise of scale ``rater_noise_scale`` and
        picks the higher perceived one; scale 0 is the noiseless limit.
        The default scale reproduces the published recovery curve.
      "bradley-terry": the outcome is drawn from the choice model on the
        exponentiated qualities; markedly noisier at equal budgets.
    """
    if outcome_noise not in (OUTCOME_RATER_NORMAL, OUTCOME_BRADLEY_TERRY):
        raise ValidationError(f"unknown outcome model {outcome_noise!r}")
    if rater_noise_scale < 0:
        raise ValidationError("rater_noise_scale must be nonnegative")
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    if n_items_per_group < 1:
        raise ValidationError("n_items_per_group must be >= 1")
    for budget in budgets:
        if budget < n_items_per_group or budget % n_items_per_group != 0:
            raise InfeasibleScheduleError(
                f"budget {budget} is not a positive multiple of group size "
                f"{n_items_per_group}"
            )
    if fit_config is None:
        fit_config = SIMULATION_FIT_CONFIG
    taus = np.empty((replicates, len(budgets)), dtype=float)
    for r in range(replicates):
        taus[r] = _simulate_one(
            n_items_per_group,
            budgets,
            seed + r,
            fit_config,
            outcome_noise,
            rater_noise_scale,
        )
    return RecoveryCurve(
        budgets=tuple(int(b) for b in budgets),
        mean_tau=tuple(float(m) for m in taus.mean(axis=0)),
        std_tau=tuple(float(s) for s in taus.std(axis=0, ddof=0)),
        replicates=replicates,
        seed=seed,
    )
