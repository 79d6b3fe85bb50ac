"""Bradley-Terry model: fit latent quality scores from pairwise duels.

The win probability of item a over item b is s(a) / (s(a) + s(b)) for
strictly positive latent scores. Fitting is Newton's method on
log-scores, each step solved matrix-free by conjugate gradients,
optionally regularized by pseudo-duels against a virtual anchor item,
which makes the maximizer exist for any data. One Newton loop fits a
batch of duel sets over the same items in lockstep, one row each: per-row
duel arrays (``fit_duel_arrays``, e.g. the replicates of a rank-recovery
simulation) or weightings of one graph (``fit_replicates``, e.g. the
resamples of a duel bootstrap); ``fit`` is its one-row, unit-weight case.
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
    of Newton steps. In a batch (``fit_replicates``) both apply to each
    row on its own."""

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


def _strongly_connected(n: int, winners: np.ndarray, losers: np.ndarray) -> bool:
    """Is the directed win graph strongly connected? Iterative Kosaraju."""
    if n == 1:
        return True
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for w, l in zip(winners.tolist(), losers.tolist()):
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


def _keep_rows(flat, keep, n, shared):
    """Keep the rows ``keep`` (a mask) of ``flat`` (2, rows, m), the winner
    and loser indices of every row's duels into flattened (rows, n) arrays
    (see ``_newton``), renumbered for the rows that remain. Where all rows
    share one duel list, the renumbered indices of the first k rows are
    those of the kept rows, so a view of them is returned."""
    if shared:
        return flat[:, : np.count_nonzero(keep)]
    kept = flat.compress(keep, axis=1)
    kept -= n * (~keep).cumsum()[keep, None]
    return kept


def _newton_direction(
    g, duel_weight, anchor_weight, flat, shared, pinned, forcing
):
    """Approximately solve H d = g for each row of g (rows, n) by
    Jacobi-preconditioned conjugate gradients, where a row's H is the
    Laplacian of that row's duels weighted by that row of ``duel_weight``
    (rows, m), plus that row of the diagonal ``anchor_weight``.

    ``flat`` (2, rows, m) holds the winner and loser indices of every row's
    duels into the flattened arrays (see ``_newton``), so that every matvec
    covers all rows at once. A row stops once its preconditioned residual
    norm falls to its own ``forcing`` (rows, 1) times its starting value,
    or after n iterations, and then leaves the batch by a mask. A pinned
    item 0 gets a zero preconditioner entry, so it never moves.
    """
    rows, n = g.shape
    dw = duel_weight.ravel()
    wf, lf = flat[0].ravel(), flat[1].ravel()
    diag = (np.bincount(wf, dw, g.size) + np.bincount(lf, dw, g.size)).reshape(
        rows, n
    ) + anchor_weight
    inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag), where=diag > 0)
    if pinned:
        inv_diag[:, 0] = 0.0
    out = x = np.zeros_like(g)
    r = g.copy()
    z = inv_diag * r
    p = z.copy()
    rz = np.add.reduce(r * z, 1, keepdims=True)
    stop = forcing * forcing * rz
    live = np.arange(rows)  # the rows of ``out`` that x, r, p, ... hold
    for _ in range(n):
        going = rz > stop
        kept = np.count_nonzero(going)
        if kept < len(live):
            if not kept:
                break
            going = going.ravel()
            out[live[~going]] = x[~going]
            live = live[going]
            x, r, p, rz, stop = x[going], r[going], p[going], rz[going], stop[going]
            inv_diag, anchor_weight = inv_diag[going], anchor_weight[going]
            duel_weight = duel_weight[going]
            dw = duel_weight.ravel()
            flat = _keep_rows(flat, going, n, shared)
            wf, lf = flat[0].ravel(), flat[1].ravel()
        pf = p.ravel()
        t = dw * (pf[wf] - pf[lf])
        hp = (np.bincount(wf, t, p.size) - np.bincount(lf, t, p.size)).reshape(
            p.shape
        ) + anchor_weight * p
        step = rz / np.add.reduce(p * hp, 1, keepdims=True)
        x += step * p
        r -= step * hp
        z = inv_diag * r
        rz_next = np.add.reduce(r * z, 1, keepdims=True)
        p = z + (rz_next / rz) * p
        rz = rz_next
    if x is not out:
        out[live] = x
    return out


def _newton(log_s, duels, weights, alpha, config):
    """Maximize the regularized log-likelihood from each row of ``log_s``
    (rows, n), where row r counts its duel j weights[r, j] times (weights
    is (rows, m)). Item duels[0, r, j] beat item duels[1, r, j]; ``duels``
    is (2, rows, m), or (2, 1, m) for one duel list shared by all rows.

    The rows run in lockstep, but each has its own CG stopping rule, step
    cap and convergence test; a row leaves the batch by a mask, and stops
    moving, once it has converged or taken ``config.max_iterations`` steps.
    Returns the log-scores (written into ``log_s``), the Newton step counts
    and the converged flags.
    """
    rows, n = log_s.shape
    out = x = log_s
    iterations = np.zeros(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    active = np.arange(rows)  # the rows of ``out`` that x holds
    # duel indices into the flattened (rows, n) arrays, where item i of row
    # r sits at r * n + i; renumbered whenever rows leave
    shared = duels.shape[1] == 1
    flat = np.add(duels, n * np.arange(rows)[:, None], order="C")
    wf, lf = flat[0].ravel(), flat[1].ravel()
    steps = 0  # every row in the batch has taken this many
    while len(active):
        xf = x.ravel()
        q = _sigmoid(xf[lf] - xf[wf]).reshape(weights.shape)  # upset probability
        wq = (weights * q).ravel()
        sig = _sigmoid(x)
        grad = (np.bincount(wf, wq, x.size) - np.bincount(lf, wq, x.size)).reshape(
            x.shape
        ) + alpha * (1.0 - 2.0 * sig)
        grad_max = np.maximum.reduce(np.abs(grad), 1, keepdims=True)
        done = grad_max < config.tolerance
        leaving = done if steps < config.max_iterations else np.ones_like(done)
        left = np.count_nonzero(leaving)
        if left:
            done, leaving = done.ravel(), leaving.ravel()
            gone = active[leaving]
            out[gone], iterations[gone] = x[leaving], steps
            converged[gone] = done[leaving]
            if left == len(active):
                break
            stay = ~leaving
            active = active[stay]
            x, weights, q, sig = x[stay], weights[stay], q[stay], sig[stay]
            grad, grad_max = grad[stay], grad_max[stay]
            flat = _keep_rows(flat, stay, n, shared)
            wf, lf = flat[0].ravel(), flat[1].ravel()
        steps += 1
        step = _newton_direction(
            grad,
            weights * (q * (1.0 - q)),
            2.0 * alpha * sig * (1.0 - sig),
            flat,
            shared,
            pinned=alpha == 0.0,
            # inexact Newton: solve more exactly as the gradient shrinks
            forcing=np.minimum(0.5, np.sqrt(grad_max)),
        )
        # cap each row's largest change at _MAX_STEP; 1.0 leaves it exact
        step *= _MAX_STEP / np.maximum(
            np.maximum.reduce(np.abs(step), 1, keepdims=True), _MAX_STEP
        )
        x = np.clip(x + step, _LOG_FLOOR, _LOG_CEIL)
    return out, iterations, converged


def _gauge(log_s, normalization):
    """Scores of each row of ``log_s`` in the configured gauge, and the
    image of the anchor (score 1) in it."""
    s = np.exp(log_s)
    if normalization == GEOMETRIC_MEAN_ONE:
        scale = np.exp(np.mean(log_s, axis=1))
    else:
        scale = np.sum(s, axis=1)
    return s / scale[:, None], 1.0 / scale


@dataclass(frozen=True)
class ReplicateFits:
    """Fits of several duel sets over the same items, one row each;
    ``scores`` (rows, n_items) and ``anchor_scores`` (rows,) are in the
    configured gauge, as in ``ScoreTable``."""

    scores: np.ndarray
    anchor_scores: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _fit_rows(n, duels, weights, config, start) -> ReplicateFits:
    """Fit each row of ``weights`` (rows, m) over the duels ``duels``,
    (2, rows, m) or one shared list (2, 1, m), from the log-scores ``start``
    (n,); see ``fit_duel_arrays`` and ``fit_replicates``."""
    log_s = np.empty((len(weights), n))
    log_s[:] = start
    iterations = np.zeros(len(weights), dtype=int)
    converged = np.zeros(len(weights), dtype=bool)
    alpha = config.regularization_alpha
    rows = slice(None)
    if alpha == 0.0:
        winners, losers = (np.broadcast_to(side, weights.shape) for side in duels)
        rows = np.flatnonzero(
            [
                _strongly_connected(n, w[k > 0], l[k > 0])
                for w, l, k in zip(winners, losers, weights)
            ]
        )
    if duels.shape[1] > 1:
        duels = duels[:, rows]
    log_s[rows], iterations[rows], converged[rows] = _newton(
        log_s[rows], duels, weights[rows], alpha, config
    )
    scores, anchors = _gauge(log_s, config.normalization)
    return ReplicateFits(scores, anchors, iterations, converged)


def fit_duel_arrays(
    n_items: int,
    winners,
    losers,
    config: FitConfig | None = None,
) -> ReplicateFits:
    """Fit one duel set per row over the same ``n_items`` items: in row r,
    item winners[r, j] beat item losers[r, j]. Both arrays are
    (rows, m) integer indices, e.g. the simulated tournaments of several
    replicates.

    All rows run in one lockstep Newton-CG loop (see ``fit``) from log-score
    0; each converges, or not, on its own, and leaves the batch when it
    does. With alpha = 0 a row whose win graph is not strongly connected
    has no maximizer: it keeps the starting scores, unconverged after 0
    iterations. Each row's fit is bit-identical to the same row fitted
    alone.
    """
    if config is None:
        config = FitConfig()
    if n_items < 1:
        raise DegenerateFitError("comparison graph has no items")
    wi, li = np.asarray(winners), np.asarray(losers)
    if wi.ndim != 2 or wi.shape != li.shape:
        raise ValidationError(
            f"winners and losers must be (rows, duels) arrays of one shape, "
            f"got {wi.shape} and {li.shape}"
        )
    if wi.size:
        if not (
            np.issubdtype(wi.dtype, np.integer) and np.issubdtype(li.dtype, np.integer)
        ):
            raise ValidationError("duel indices must be integers")
        if min(wi.min(), li.min()) < 0 or max(wi.max(), li.max()) >= n_items:
            raise ValidationError(f"duel index out of range for {n_items} items")
        if (wi == li).any():
            raise ValidationError("an item dueled itself")
    duels = np.stack((wi, li)).astype(np.intp, copy=False)
    return _fit_rows(n_items, duels, np.ones(wi.shape), config, 0.0)


def fit_replicates(
    graph: ComparisonGraph,
    weights,
    config: FitConfig | None = None,
    initial_scores: Mapping[Hashable, float] | None = None,
) -> ReplicateFits:
    """Fit ``graph`` once per row of ``weights`` (rows, n_duels), where row r
    counts duel j weights[r, j] times, e.g. bootstrap multiplicities.

    All rows share the graph's duel list, which lets rows leave the batch
    without renumbering their duel indices (see ``_newton``), and all rows
    run in one lockstep Newton-CG loop (see ``fit``) from the same
    starting scores; each converges, or not, on its own. With alpha = 0 a
    row whose win graph (duels of positive weight) is not strongly
    connected, which includes any row that leaves an item silent, has no
    maximizer: it keeps the starting scores, unconverged after 0
    iterations.
    """
    if config is None:
        config = FitConfig()
    n = graph.n_items
    if n == 0:
        raise DegenerateFitError("comparison graph has no items")
    d = np.array(graph.duels, dtype=np.intp).reshape(-1, 2)
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != len(d):
        raise ValidationError(
            f"weights must have one column per duel ({len(d)}), "
            f"got shape {weights.shape}"
        )
    if initial_scores is not None:
        s = np.array([initial_scores[item] for item in graph.items], dtype=float)
    else:
        s = np.ones(n, dtype=float)
    return _fit_rows(n, d.T[:, None, :], weights, config, np.log(s))


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

    This is ``fit_replicates`` with one row of unit weights: one Newton
    loop serves single fits and batches of weighted refits.

    The result is expressed in the configured gauge; the regularization
    anchor is rescaled along with the scores so the reported fit is the
    exact optimum of the regularized objective.
    """
    if config is None:
        config = FitConfig()
    n = graph.n_items
    if config.regularization_alpha == 0.0:
        if not graph.duels:
            raise DegenerateFitError(
                "no duels and no regularization: likelihood has no maximizer"
            )
        appearances = np.bincount(
            np.array(graph.duels, dtype=np.intp).ravel(), minlength=n
        )
        silent = [graph.items[i] for i in range(n) if appearances[i] == 0]
        if silent:
            raise UnidentifiableItemsError(silent)
    fits = fit_replicates(
        graph, np.ones((1, len(graph.duels))), config, initial_scores
    )
    scores = dict(zip(graph.items, fits.scores[0].tolist()))
    return ScoreTable(
        scores=scores,
        normalization=config.normalization,
        log_likelihood=log_likelihood(graph, scores),
        iterations=int(fits.iterations[0]),
        converged=bool(fits.converged[0]),
        regularization=config.regularization_alpha,
        anchor_score=float(fits.anchor_scores[0]),
    )
