"""Settings the command-line parser reads (fit settings, bootstrap units,
simulation and tag defaults) and the block rule of every lockstep batch.

This module imports no numpy, so that ``import duelbias.cli`` does not load
it, and no other layer but ``records``, which every command loads, so that a
command loads only the layers it runs; the modules that use these settings
re-export them under their old names
(``choice_model.FitConfig``, ``pipeline.BOOTSTRAP_UNITS``,
``tournament.DEFAULT_BUDGETS``, ``tags.DEFAULT_TOP_K`` and so on).
"""

from __future__ import annotations

import math
import operator

from .errors import ValidationError
from .records import Frozen

GEOMETRIC_MEAN_ONE = "geometric-mean-one"
SUM_ONE = "sum-one"


def checked_int(key: str, value) -> int:
    """``value`` as an int if it is an int or a numpy integer; a bool or any
    other value raises ValidationError naming the setting ``key``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{key}: expected int, got {value!r}")


class FitConfig(Frozen):
    """``tolerance`` bounds max |d/d log s| of the (regularized)
    log-likelihood at a converged fit; ``max_iterations`` caps the number
    of Newton steps. In a batch (``fit_duel_arrays``) both apply to each
    row on its own."""

    __slots__ = ("max_iterations", "tolerance", "regularization_alpha", "normalization")

    def __init__(
        self,
        max_iterations: int = 10_000,
        tolerance: float = 1e-8,
        regularization_alpha: float = 0.1,
        normalization: str = GEOMETRIC_MEAN_ONE,
    ):
        max_iterations = checked_int("max_iterations", max_iterations)
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not 0 < tolerance < math.inf:
            raise ValidationError("tolerance must be finite and positive")
        if not 0 <= regularization_alpha < math.inf:
            raise ValidationError("regularization_alpha must be finite and nonnegative")
        if normalization not in (GEOMETRIC_MEAN_ONE, SUM_ONE):
            raise ValidationError(f"unknown normalization {normalization!r}")
        self._bind(max_iterations, tolerance, regularization_alpha, normalization)


# resampled units of the per-tournament score-bias CI: duels (with refits) or items
BOOTSTRAP_UNITS = ("duel", "item")

DEFAULT_BUDGETS = (100, 200, 500, 1000, 2000)

OUTCOME_RATER_NORMAL = "rater-normal"
OUTCOME_BRADLEY_TERRY = "bradley-terry"

# Perception-noise scale calibrated so the recovery curve hits the published
# anchor (tau near 0.80 at 10 duels per item with 100 items). Zero gives the
# noiseless limit where the higher-quality item always wins.
DEFAULT_RATER_NOISE = 0.25

DEFAULT_TOP_K = 20
DEFAULT_MIN_COUNT = 5

BLOCK_VALUES = 2**16


def rows_per_block(rows: int, row_size: int) -> int:
    """Rows per block of a batch of ``rows`` rows, where ``row_size`` counts
    the 8-byte values a row holds at once: at most ``BLOCK_VALUES`` values
    (a few MiB) and at least one row. Every lockstep batch of replicates
    runs in such blocks (the refits and item resamples of ``bias`` and the
    simulations of ``simulate``); no output depends on it."""
    return max(1, min(rows, BLOCK_VALUES // row_size))
