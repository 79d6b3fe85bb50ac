"""Bradley-Terry model: fit latent quality scores from pairwise duels.

The win probability of item a over item b is s(a) / (s(a) + s(b)) for
strictly positive latent scores. Fitting is Newton's method on
log-scores, each step solved matrix-free by conjugate gradients,
optionally regularized by pseudo-duels against a virtual anchor item,
which makes the maximizer exist for any data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import DegenerateFitError, UnidentifiableItemsError, ValidationError

GEOMETRIC_MEAN_ONE = "geometric-mean-one"
SUM_ONE = "sum-one"

_LOG_FLOOR = math.log(1e-150)
_LOG_CEIL = math.log(1e150)
_MAX_STEP = 2.0  # largest log-score change of one Newton step


@dataclass(frozen=True)
class ComparisonGraph:
    """Duel outcomes over an ordered item set.

    ``duels`` holds (winner_index, loser_index) pairs into ``items``.
    """

    items: tuple[Hashable, ...]
    duels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.items)) != len(self.items):
            raise ValidationError("duplicate item ids in comparison graph")
        n = len(self.items)
        for w, l in self.duels:
            if not (0 <= w < n and 0 <= l < n):
                raise ValidationError(f"duel index out of range: ({w}, {l})")
            if w == l:
                raise ValidationError(f"item {self.items[w]!r} dueled itself")

    @classmethod
    def from_pairs(
        cls,
        winner_loser_pairs: Iterable[tuple[Hashable, Hashable]],
        items: Sequence[Hashable] | None = None,
    ) -> "ComparisonGraph":
        """Build a graph from (winner_id, loser_id) pairs.

        If ``items`` is omitted, the item set is the sorted union of ids
        seen in the pairs.
        """
        pairs = list(winner_loser_pairs)
        if items is None:
            items = sorted({x for pair in pairs for x in pair})
        index = {item: i for i, item in enumerate(items)}
        duels = tuple((index[w], index[l]) for w, l in pairs)
        return cls(items=tuple(items), duels=duels)

    @property
    def n_items(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class FitConfig:
    """``tolerance`` bounds max |d/d log s| of the (regularized)
    log-likelihood at a converged fit; ``max_iterations`` caps the number
    of Newton steps."""

    max_iterations: int = 10_000
    tolerance: float = 1e-8
    regularization_alpha: float = 0.1
    normalization: str = GEOMETRIC_MEAN_ONE

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be positive")
        if self.regularization_alpha < 0:
            raise ValidationError("regularization_alpha must be nonnegative")
        if self.normalization not in (GEOMETRIC_MEAN_ONE, SUM_ONE):
            raise ValidationError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class ScoreTable:
    """Fitted latent scores for one tournament, plus fit diagnostics.

    ``anchor_score`` is the regularization anchor expressed in the same
    gauge as ``scores``; the regularized objective is invariant under
    joint rescaling of scores and anchor.
    """

    scores: dict[Hashable, float]
    normalization: str
    log_likelihood: float
    iterations: int
    converged: bool
    regularization: float
    anchor_score: float = 1.0

    def __post_init__(self):
        for item, s in self.scores.items():
            if not (s > 0 and math.isfinite(s)):
                raise ValidationError(f"non-positive score for {item!r}: {s}")

    def score_array(self, items: Sequence[Hashable]) -> np.ndarray:
        return np.array([self.scores[i] for i in items], dtype=float)


def win_probability(score_a: float, score_b: float) -> float:
    """Probability that the first item wins a duel, s_a / (s_a + s_b)."""
    for s in (score_a, score_b):
        if not (s > 0 and math.isfinite(s)):
            raise ValidationError(f"scores must be positive and finite, got {s}")
    return score_a / (score_a + score_b)


def log_likelihood(graph: ComparisonGraph, scores) -> float:
    """Sum of log win probabilities over all duels; always <= 0."""
    if isinstance(scores, ScoreTable):
        scores = scores.scores
    try:
        s = np.array([scores[item] for item in graph.items], dtype=float)
    except KeyError as exc:
        raise LookupError(f"missing score for item {exc.args[0]!r}") from exc
    if not graph.duels:
        return 0.0
    d = np.array(graph.duels, dtype=np.intp)
    sw, sl = s[d[:, 0]], s[d[:, 1]]
    return float(np.sum(np.log(sw) - np.log(sw + sl)))


def regularized_log_likelihood(
    graph: ComparisonGraph, scores, alpha: float, anchor: float = 1.0
) -> float:
    """Duel log-likelihood plus alpha pseudo-wins and pseudo-losses per item
    against a virtual item with score ``anchor``."""
    if isinstance(scores, ScoreTable):
        scores = scores.scores
    base = log_likelihood(graph, scores)
    if alpha == 0.0:
        return base
    s = np.array([scores[item] for item in graph.items], dtype=float)
    reg = np.sum(np.log(s) + np.log(anchor) - 2.0 * np.log(s + anchor))
    return base + alpha * float(reg)


def _strongly_connected(n: int, duels: Sequence[tuple[int, int]]) -> bool:
    """Is the directed win graph strongly connected? Iterative Kosaraju."""
    if n == 1:
        return True
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for w, l in duels:
        fwd[w].append(l)
        bwd[l].append(w)

    def reaches_all(adj):
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    return reaches_all(fwd) and reaches_all(bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)  # cannot overflow, unlike exp


def _newton_direction(g, duel_weight, anchor_weight, wi, li, pinned, forcing):
    """Approximately solve H d = g by Jacobi-preconditioned conjugate
    gradients, where H is the Laplacian of the duel graph weighted by
    ``duel_weight`` plus the diagonal ``anchor_weight``.

    Stops once the preconditioned residual norm falls to ``forcing`` times
    its starting value, or after n iterations. A pinned item 0 gets a zero
    preconditioner entry, so it never moves.
    """
    n = len(g)
    diag = (
        np.bincount(wi, duel_weight, n)
        + np.bincount(li, duel_weight, n)
        + anchor_weight
    )
    inv_diag = np.divide(1.0, diag, out=np.zeros(n), where=diag > 0)
    if pinned:
        inv_diag[0] = 0.0
    x = np.zeros(n)
    r = g.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    stop = forcing * forcing * rz
    for _ in range(n):
        if rz <= stop:
            break
        t = duel_weight * (p[wi] - p[li])
        hp = np.bincount(wi, t, n) - np.bincount(li, t, n) + anchor_weight * p
        step = rz / float(p @ hp)
        x += step * p
        r -= step * hp
        z = inv_diag * r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x


def fit(
    graph: ComparisonGraph,
    config: FitConfig | None = None,
    initial_scores: Mapping[Hashable, float] | None = None,
) -> ScoreTable:
    """Maximize the (regularized) Bradley-Terry likelihood by Newton-CG.

    Works on log-scores with the regularization anchor at log-score 0.
    The gradient of item i is W_i - sum over i's duels of its win
    probability p (each duel adds its upset probability q = 1 - p_winner
    to the winner and -q to the loser), plus a * (1 - 2 sigma(log s_i))
    from the anchor pseudo-duels. The negative Hessian is the graph Laplacian with duel
    weights p(1 - p) plus a 2a * sigma(1 - sigma) diagonal; each Newton
    step solves it by Jacobi-preconditioned conjugate gradients over the
    duel arrays, with no n x n matrix. Steps are capped at a log-score
    change of 2, and the fit converges once max |gradient| falls below
    the configured tolerance. With a = 0, item 0 is pinned to fix the
    gauge; if the win graph is not strongly connected there is no
    maximizer, so the starting scores come back unconverged after 0
    iterations.

    The result is expressed in the configured gauge; the regularization
    anchor is rescaled along with the scores so the reported fit is the
    exact optimum of the regularized objective.
    """
    if config is None:
        config = FitConfig()
    n = graph.n_items
    if n == 0:
        raise DegenerateFitError("comparison graph has no items")
    alpha = config.regularization_alpha

    d = np.array(graph.duels, dtype=np.intp).reshape(-1, 2)
    wi, li = d[:, 0], d[:, 1]

    if alpha == 0.0:
        if not graph.duels:
            raise DegenerateFitError(
                "no duels and no regularization: likelihood has no maximizer"
            )
        appearances = np.bincount(wi, minlength=n) + np.bincount(li, minlength=n)
        silent = [graph.items[i] for i in range(n) if appearances[i] == 0]
        if silent:
            raise UnidentifiableItemsError(silent)
        identifiable = _strongly_connected(n, graph.duels)
    else:
        identifiable = True

    if initial_scores is not None:
        s = np.array([initial_scores[item] for item in graph.items], dtype=float)
    else:
        s = np.ones(n, dtype=float)
    log_s = np.log(s)

    converged = False
    iterations = 0
    while identifiable:
        q = _sigmoid(log_s[li] - log_s[wi])  # each duel's upset probability
        sig = _sigmoid(log_s)
        grad = (
            np.bincount(wi, q, n) - np.bincount(li, q, n) + alpha * (1.0 - 2.0 * sig)
        )
        grad_max = float(np.max(np.abs(grad)))
        if grad_max < config.tolerance:
            converged = True
            break
        if iterations == config.max_iterations:
            break
        iterations += 1
        step = _newton_direction(
            grad,
            q * (1.0 - q),
            2.0 * alpha * sig * (1.0 - sig),
            wi,
            li,
            pinned=alpha == 0.0,
            # inexact Newton: solve more exactly as the gradient shrinks
            forcing=min(0.5, math.sqrt(grad_max)),
        )
        step_max = float(np.max(np.abs(step)))
        if step_max > _MAX_STEP:
            step *= _MAX_STEP / step_max
        log_s = np.clip(log_s + step, _LOG_FLOOR, _LOG_CEIL)
    s = np.exp(log_s)

    if config.normalization == GEOMETRIC_MEAN_ONE:
        scale = math.exp(float(np.mean(log_s)))
    else:
        scale = float(np.sum(s))
    s = s / scale
    anchor = 1.0 / scale

    scores = {item: float(v) for item, v in zip(graph.items, s)}
    return ScoreTable(
        scores=scores,
        normalization=config.normalization,
        log_likelihood=log_likelihood(graph, scores),
        iterations=iterations,
        converged=converged,
        regularization=alpha,
        anchor_score=anchor,
    )


def rank_items(table: ScoreTable) -> list[Hashable]:
    """Item ids sorted by descending score; ties broken by ascending id."""
    if not table.scores:
        raise ValidationError("cannot rank an empty score table")
    return sorted(table.scores, key=lambda item: (-table.scores[item], item))
