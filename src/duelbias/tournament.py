"""Balanced duel schedules and rank-recovery simulations.

Schedules pair items across two equally sized groups so that every item
takes part in exactly the same number of duels. The simulation estimates
how many comparisons are needed before the ranking recovered by the
choice model matches a known ground truth. It builds each replicate's
tournament as index arrays and fits all replicates of a budget in one
lockstep batch (``choice_model.fit_duel_arrays``).
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

# ``fit`` stays bound here because bench/traced.py wraps duelbias.tournament.fit
from .choice_model import FitConfig, fit, fit_duel_arrays  # noqa: F401
from .errors import (
    InfeasibleScheduleError,
    NumericalError,
    SizeMismatchError,
    ValidationError,
)
from .records import Frozen
from .settings import (
    DEFAULT_BUDGETS,
    DEFAULT_RATER_NOISE,
    OUTCOME_BRADLEY_TERRY,
    OUTCOME_RATER_NORMAL,
    checked_float,
    checked_int,
    rows_per_block,
)

# Every simulation fits under this config and no other. It fits every
# replicate of a budget in one batch and only uses the ranking each fit
# gives; a looser gradient tolerance than FitConfig's default saves a Newton
# step or so per fit without moving Kendall's tau measurably. 5,000 steps is
# far above the ten or so a fit needs; a fit that does not converge stops
# the simulation with NumericalError.
SIMULATION_FIT_CONFIG = FitConfig(tolerance=1e-6, max_iterations=5_000)

# Fitted log-scores are rounded to this many decimals, far finer than a fit
# resolves, before Kendall's tau, so that an exact tie of the optimum that
# a fit reproduces only to the last bits still counts as a tie.
_TAU_DECIMALS = 9

# A block of replicates (settings.rows_per_block) is fitted, and its taus
# computed, in one call. A row counts its budget of duels or, if more, the
# (2n)**2 entries of each int8 sign matrix of kendall_tau_values at 16 to a
# value, rounded up: at most 2**16 duels and 1 MiB per matrix by default.


class SchedulePlan(Frozen):
    __slots__ = ("group_a", "group_b", "duels_per_item", "pairs")

    def appearance_counts(self) -> dict[Hashable, int]:
        counts = {item: 0 for item in self.group_a + self.group_b}
        for a, b in self.pairs:
            counts[a] += 1
            counts[b] += 1
        return counts


class RecoveryCurve(Frozen):
    __slots__ = ("budgets", "mean_tau", "std_tau", "replicates", "seed")


def _schedule(
    n: int, duels_per_item: int, rng: np.random.Generator, distinct_opponents: bool
) -> np.ndarray:
    """Opponents (duels_per_item, n) of a balanced schedule of two groups of
    n: in round k, item i of group A meets item out[k, i] of group B.

    Every round is a random perfect matching, drawn as one permutation per
    round, or with ``distinct_opponents`` as one permutation cyclically
    shifted by a different random amount each round.
    """
    if distinct_opponents:
        perm = rng.permutation(n)
        shifts = rng.choice(n, size=duels_per_item, replace=False)
        return perm[(shifts[:, None] + np.arange(n)) % n]
    return np.array([rng.permutation(n) for _ in range(duels_per_item)])


def check_schedule_settings(duels_per_item: int, seed: int) -> None:
    """Raise ValidationError unless ``sample_balanced_duels`` accepts these
    settings whatever the groups; a caller can check them before it reads
    any input."""
    if checked_int("duels_per_item", duels_per_item) < 1:
        raise ValidationError("duels_per_item must be >= 1")
    if checked_int("seed", seed) < 0:
        raise ValidationError("seed must be >= 0")


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
    check_schedule_settings(duels_per_item, seed)
    if distinct_opponents and duels_per_item > n:
        raise InfeasibleScheduleError(
            f"cannot give each item {duels_per_item} distinct opponents out of {n}"
        )
    rng = np.random.default_rng(seed)
    opponents = _schedule(n, duels_per_item, rng, distinct_opponents)
    pairs = zip(
        tuple(group_a) * duels_per_item,
        [group_b[j] for j in opponents.ravel().tolist()],
    )
    return SchedulePlan(
        group_a=tuple(group_a),
        group_b=tuple(group_b),
        duels_per_item=duels_per_item,
        pairs=tuple(pairs),
    )


def _pair_signs(v: np.ndarray) -> np.ndarray:
    """sign(v[..., i] - v[..., j]) as an int8 (..., n, n) array."""
    above = v[..., :, None] > v[..., None, :]
    below = v[..., :, None] < v[..., None, :]
    return above.view(np.int8) - below.view(np.int8)


def kendall_tau_values(xs, ys):
    """Kendall's tau-b (tie-adjusted) between paired values along the last
    axis: two vectors give a float, two (rows, n) arrays one tau per row.

    Concordant minus discordant pairs and the tie counts are exact integers,
    counted over both orders of every pair from int8 sign matrices. NaN
    values are rejected: they have no order.
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape:
        raise ValidationError(f"shape mismatch: {x.shape} vs {y.shape}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValidationError("tau-b undefined for NaN values")
    sx, sy = _pair_signs(x), _pair_signs(y)
    axes = (-2, -1)
    concordant_minus_discordant = np.sum(sx * sy, axis=axes, dtype=np.int64) // 2
    untied_x = np.count_nonzero(sx, axis=axes) // 2
    untied_y = np.count_nonzero(sy, axis=axes) // 2
    denom = np.sqrt(np.asarray(untied_x * untied_y, dtype=np.int64))
    if np.any(denom == 0):
        raise ValidationError("tau-b undefined: one input is constant")
    tau = concordant_minus_discordant / denom
    return float(tau) if tau.ndim == 0 else tau


def _tournaments(
    n: int,
    budget: int,
    replicate_seeds: Sequence[int],
    outcome_noise: str,
    rater_noise_scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The simulated tournament at ``budget`` of each replicate seed.

    Returns the winner and loser indices (rows, budget) into the 2n items
    (group A first) and the true log-qualities (rows, 2n). A replicate's
    qualities come from a generator seeded with (seed, 0); its schedule
    seed and then its outcomes from one seeded with (seed, budget), so the
    tournament at a budget does not depend on which other budgets run.
    """
    rounds = budget // n
    a_idx = np.tile(np.arange(n), rounds)
    qualities = np.empty((len(replicate_seeds), 2 * n))
    winners = np.empty((len(replicate_seeds), budget), dtype=np.intp)
    losers = np.empty_like(winners)
    for row, replicate_seed in enumerate(replicate_seeds):
        quality_rng = np.random.default_rng([replicate_seed, 0])
        q = qualities[row] = quality_rng.standard_normal(2 * n)
        rng = np.random.default_rng([replicate_seed, budget])
        schedule_rng = np.random.default_rng(int(rng.integers(2**63)))
        b_idx = n + _schedule(n, rounds, schedule_rng, False).ravel()
        if outcome_noise == OUTCOME_RATER_NORMAL:
            noise = rater_noise_scale * rng.standard_normal((budget, 2))
            a_wins = q[a_idx] + noise[:, 0] > q[b_idx] + noise[:, 1]
        else:
            s = np.exp(q)
            a_wins = rng.random(budget) < s[a_idx] / (s[a_idx] + s[b_idx])
        winners[row] = np.where(a_wins, a_idx, b_idx)
        losers[row] = np.where(a_wins, b_idx, a_idx)
    return winners, losers, qualities


def simulate_rank_recovery(
    n_items_per_group: int,
    budgets: Sequence[int] = DEFAULT_BUDGETS,
    replicates: int = 50,
    seed: int = 0,
    outcome_noise: str = OUTCOME_RATER_NORMAL,
    rater_noise_scale: float = DEFAULT_RATER_NOISE,
) -> RecoveryCurve:
    """Estimate rank-recovery quality for each comparison budget.

    Per replicate, log-qualities for 2*n items are drawn i.i.d. standard
    normal, a balanced cross-group schedule is sampled for each budget,
    duel outcomes are generated, the choice model is fit, and Kendall's
    tau between true and fitted scores is recorded. Replicate r uses its
    own generators derived from seed + r. Every fit runs under
    ``SIMULATION_FIT_CONFIG``, the only fit setting of a simulation. The
    replicates of a budget are fitted in lockstep, in
    ``settings.rows_per_block`` blocks; a fit that does not converge raises
    NumericalError naming its replicate seed and budget.

    Outcome models:
      "rater-normal" (default): each duel's rater perceives both qualities
        with independent normal noise of scale ``rater_noise_scale`` and
        picks the higher perceived one; scale 0 is the noiseless limit.
        The default scale reproduces the published recovery curve.
      "bradley-terry": the outcome is drawn from the choice model on the
        exponentiated qualities; markedly noisier at equal budgets.
    """
    n = checked_int("n_items_per_group", n_items_per_group)
    budgets = [checked_int("budgets", budget) for budget in budgets]
    replicates, seed = checked_int("replicates", replicates), checked_int("seed", seed)
    if outcome_noise not in (OUTCOME_RATER_NORMAL, OUTCOME_BRADLEY_TERRY):
        raise ValidationError(f"unknown outcome model {outcome_noise!r}")
    rater_noise_scale = checked_float("rater_noise_scale", rater_noise_scale)
    if not 0 <= rater_noise_scale < np.inf:
        raise ValidationError("rater_noise_scale must be finite and nonnegative")
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if len(budgets) == 0:
        raise ValidationError("at least one budget is required")
    if n < 1:
        raise ValidationError("n_items_per_group must be >= 1")
    for budget in budgets:
        if budget < n or budget % n != 0:
            raise InfeasibleScheduleError(
                f"budget {budget} is not a positive multiple of group size {n}"
            )
    taus = np.empty((replicates, len(budgets)), dtype=float)
    for j, budget in enumerate(budgets):
        block = rows_per_block(replicates, max(budget, -(-(2 * n) ** 2 // 16)))
        for first in range(0, replicates, block):
            seeds = range(seed + first, seed + min(first + block, replicates))
            winners, losers, qualities = _tournaments(
                n, budget, seeds, outcome_noise, rater_noise_scale
            )
            fits = fit_duel_arrays(2 * n, winners, losers, SIMULATION_FIT_CONFIG)
            if not fits.converged.all():
                row = int(np.argmin(fits.converged))
                raise NumericalError(
                    f"rank-recovery fit of replicate seed {seeds[row]} at budget "
                    f"{budget} did not converge after {fits.iterations[row]} "
                    "Newton steps"
                )
            fitted = np.round(np.log(fits.scores), _TAU_DECIMALS)
            taus[first : first + len(seeds), j] = kendall_tau_values(
                np.exp(qualities), fitted
            )
    return RecoveryCurve(
        budgets=tuple(budgets),
        mean_tau=tuple(float(m) for m in taus.mean(axis=0)),
        std_tau=tuple(float(s) for s in taus.std(axis=0, ddof=0)),
        replicates=replicates,
        seed=seed,
    )
