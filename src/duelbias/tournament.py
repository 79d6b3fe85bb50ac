"""Balanced duel schedules and rank-recovery simulations.

Schedules pair items across two equally sized groups so that every item
takes part in exactly the same number of duels. The simulation estimates
how many comparisons are needed before the ranking recovered by the
choice model matches a known ground truth. It builds each replicate's
tournament as index arrays and fits all replicates of a budget in one
lockstep batch (``choice_model.fit_duel_arrays``).
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Simulations fit every replicate of a budget in one batch and only use the
# ranking each fit gives; a looser gradient tolerance than FitConfig's
# default saves a Newton step or so per fit without moving Kendall's tau
# measurably. 5,000 steps is far above the ten or so a fit needs; a fit
# that does not converge stops the simulation with NumericalError.
SIMULATION_FIT_CONFIG = FitConfig(tolerance=1e-6, max_iterations=5_000)

# Fitted log-scores are rounded to this many decimals, far finer than a fit
# resolves, before Kendall's tau, so that an exact tie of the optimum that
# a fit reproduces only to the last bits still counts as a tie.
_TAU_DECIMALS = 9

# A block of replicates is fitted, and its taus computed, in one call. The
# block holds at most this many duels, as the refit bootstrap's blocks do,
# and at most this many (item, item) entries in each sign matrix of
# kendall_tau_values (1 MiB of int8), so memory stays flat in replicates.
_BLOCK_DUELS = 2**16
_BLOCK_PAIRS = 2**20

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
    fit_config: FitConfig | None = None,
    outcome_noise: str = OUTCOME_RATER_NORMAL,
    rater_noise_scale: float = DEFAULT_RATER_NOISE,
) -> RecoveryCurve:
    """Estimate rank-recovery quality for each comparison budget.

    Per replicate, log-qualities for 2*n items are drawn i.i.d. standard
    normal, a balanced cross-group schedule is sampled for each budget,
    duel outcomes are generated, the choice model is fit, and Kendall's
    tau between true and fitted scores is recorded. Replicate r uses its
    own generators derived from seed + r. The replicates of a budget are
    fitted in lockstep, a block at a time; a fit that does not converge
    raises NumericalError naming its replicate seed and budget.

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
    n = n_items_per_group
    if n < 1:
        raise ValidationError("n_items_per_group must be >= 1")
    for budget in budgets:
        if budget < n or budget % n != 0:
            raise InfeasibleScheduleError(
                f"budget {budget} is not a positive multiple of group size {n}"
            )
    if fit_config is None:
        fit_config = SIMULATION_FIT_CONFIG
    taus = np.empty((replicates, len(budgets)), dtype=float)
    for j, budget in enumerate(budgets):
        block = max(
            1, min(replicates, _BLOCK_DUELS // budget, _BLOCK_PAIRS // (2 * n) ** 2)
        )
        for first in range(0, replicates, block):
            seeds = range(seed + first, seed + min(first + block, replicates))
            winners, losers, qualities = _tournaments(
                n, budget, seeds, outcome_noise, rater_noise_scale
            )
            fits = fit_duel_arrays(2 * n, winners, losers, fit_config)
            if not fits.converged.all():
                row = int(np.argmin(fits.converged))
                hint = (
                    "; with regularization_alpha 0 the win graph must be "
                    "strongly connected"
                    if fit_config.regularization_alpha == 0.0
                    else ""
                )
                raise NumericalError(
                    f"rank-recovery fit of replicate seed {seeds[row]} at budget "
                    f"{budget} did not converge after {fits.iterations[row]} "
                    f"Newton steps{hint}"
                )
            fitted = np.round(np.log(fits.scores), _TAU_DECIMALS)
            taus[first : first + len(seeds), j] = kendall_tau_values(
                np.exp(qualities), fitted
            )
    return RecoveryCurve(
        budgets=tuple(int(b) for b in budgets),
        mean_tau=tuple(float(m) for m in taus.mean(axis=0)),
        std_tau=tuple(float(s) for s in taus.std(axis=0, ddof=0)),
        replicates=replicates,
        seed=seed,
    )
