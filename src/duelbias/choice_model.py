"""Bradley-Terry model: fit latent quality scores from pairwise duels.

The win probability of item a over item b is s(a) / (s(a) + s(b)) for
strictly positive latent scores. Fitting is Newton's method on
log-scores, each step solved matrix-free by conjugate gradients,
optionally regularized by pseudo-duels against a virtual anchor item,
which makes the maximizer exist for any data. One Newton loop fits a
batch of weighted duel sets over the same items in lockstep, one row each
(``fit_duel_arrays``): per-row duel arrays (e.g. the replicates of a
rank-recovery simulation) or weightings of one shared duel list (e.g. the
resamples of a duel bootstrap); ``fit`` is its one-row, unit-weight case.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    ReferentialError,
    UnidentifiableItemsError,
    ValidationError,
)
from .records import Frozen
# SUM_ONE is imported for callers that read it as choice_model.SUM_ONE
from .settings import GEOMETRIC_MEAN_ONE, SUM_ONE, FitConfig  # noqa: F401

_LOG_FLOOR = math.log(1e-150)
_LOG_CEIL = math.log(1e150)
_MAX_STEP = 2.0  # largest log-score change of one Newton step


def _duel_array(duels) -> np.ndarray:
    """``duels``, (winner, loser) pairs or an (m, 2) array of them, as an
    array; ValidationError unless every index is an integer. numpy would
    truncate a float index and turn a bool among int pairs into an int, so
    neither is one."""
    try:
        d = np.asarray(duels)
    except ValueError:  # pairs of unequal lengths
        raise ValidationError("duels must be (winner, loser) pairs") from None
    if not d.size:
        return np.empty((0, 2), np.intp)
    if d.ndim != 2 or d.shape[1] != 2:
        raise ValidationError(f"duels must be (winner, loser) pairs, got shape {d.shape}")
    integers = d.dtype.kind in "iu" and (
        isinstance(duels, np.ndarray)
        or not any(isinstance(x, (bool, np.bool_)) for pair in duels for x in pair)
    )
    if not integers:
        raise ValidationError("duel indices must be integers")
    return d


class ComparisonGraph(Frozen):
    """Duel outcomes over an ordered item set.

    Built from ``duels``, (winner_index, loser_index) pairs into ``items``
    or an (m, 2) integer array of them, which it holds once, as the
    read-only (m, 2) intp array ``duel_array``.
    """

    __slots__ = ("items", "duel_array")

    def __init__(self, items: Sequence[Hashable], duels):
        items = tuple(items)
        if len(set(items)) != len(items):
            raise ValidationError("duplicate item ids in comparison graph")
        d = _duel_array(duels)
        out_of_range = ((d < 0) | (d >= len(items))).any(axis=1)
        bad = np.flatnonzero(out_of_range | (d[:, 0] == d[:, 1]))
        if bad.size:  # the first bad pair, in input order
            w, l = d[bad[0]].tolist()
            if out_of_range[bad[0]]:
                raise ValidationError(f"duel index out of range: ({w}, {l})")
            raise ValidationError(f"item {items[w]!r} dueled itself")
        d = d.astype(np.intp)  # a copy, which no caller can change
        d.flags.writeable = False
        self._bind(items, d)

    @property
    def duels(self) -> tuple[tuple[int, int], ...]:
        """The (winner_index, loser_index) pairs, built anew at each read."""
        return tuple(map(tuple, self.duel_array.tolist()))

    def __eq__(self, other):
        if not isinstance(other, ComparisonGraph):
            return NotImplemented
        return self.items == other.items and np.array_equal(
            self.duel_array, other.duel_array
        )

    def __hash__(self):
        return hash((self.items, self.duel_array.tobytes()))

    @classmethod
    def from_pairs(
        cls,
        winner_loser_pairs: Iterable[tuple[Hashable, Hashable]],
        items: Sequence[Hashable] | None = None,
    ) -> "ComparisonGraph":
        """Build a graph from (winner_id, loser_id) pairs.

        If ``items`` is omitted, the item set is the sorted union of ids
        seen in the pairs; an id not in ``items`` raises ReferentialError.
        """
        pairs = list(winner_loser_pairs)
        if items is None:
            items = sorted({x for pair in pairs for x in pair})
        index = {item: i for i, item in enumerate(items)}
        try:
            duels = [(index[w], index[l]) for w, l in pairs]
        except KeyError as exc:
            raise ReferentialError(f"unknown item {exc.args[0]!r}") from None
        return cls(items=items, duels=np.array(duels, np.intp).reshape(-1, 2))

    @property
    def n_items(self) -> int:
        return len(self.items)


class ScoreTable(Frozen):
    """Fitted latent scores for one tournament, plus fit diagnostics.

    ``anchor_score`` is the regularization anchor expressed in the same
    gauge as ``scores``; the regularized objective is invariant under
    joint rescaling of scores and anchor.
    """

    __slots__ = (
        "scores", "normalization", "log_likelihood", "iterations", "converged",
        "regularization", "anchor_score",
    )

    def __init__(
        self,
        scores: dict[Hashable, float],
        normalization: str,
        log_likelihood: float,
        iterations: int,
        converged: bool,
        regularization: float,
        anchor_score: float = 1.0,
    ):
        for item, s in scores.items():
            if not (s > 0 and math.isfinite(s)):
                raise ValidationError(f"non-positive score for {item!r}: {s}")
        self._bind(
            scores, normalization, log_likelihood, iterations, converged,
            regularization, anchor_score,
        )

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
    d = graph.duel_array
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


class ReplicateFits(Frozen):
    """Fits of several duel sets over the same items, one row each;
    ``scores`` (rows, n_items) and ``anchor_scores`` (rows,) are in the
    configured gauge, as in ``ScoreTable``."""

    __slots__ = ("scores", "anchor_scores", "iterations", "converged")


def _start_log_scores(n_items: int, initial_scores) -> np.ndarray | float:
    """Log of ``initial_scores``, (n_items,) finite and positive; 0 if None."""
    if initial_scores is None:
        return 0.0
    initial_scores = np.asarray(initial_scores, dtype=float)
    if initial_scores.shape != (n_items,):
        raise ValidationError(
            f"initial_scores must have shape ({n_items},), got {initial_scores.shape}"
        )
    if not (np.isfinite(initial_scores).all() and (initial_scores > 0).all()):
        raise ValidationError("initial_scores must be finite and positive")
    return np.log(initial_scores)


def fit_duel_arrays(
    n_items: int,
    winners,
    losers,
    config: FitConfig | None = None,
    weights=None,
    initial_scores=None,
) -> ReplicateFits:
    """Fit one weighted duel set per row over the same ``n_items`` items:
    row r counts the duel "item winners[r, j] beat item losers[r, j]"
    weights[r, j] times, e.g. bootstrap multiplicities. ``winners`` and
    ``losers`` are (rows, m) integer indices, e.g. the simulated
    tournaments of several replicates, or (1, m) for one duel list shared
    by every row of ``weights``; ``weights`` is (rows, m) and defaults to
    unit weights, and a weight must be finite and nonnegative. A shared
    list lets rows leave the batch without renumbering their duel indices
    (see ``_newton``).

    All rows run in one lockstep Newton-CG loop (see ``fit``) from the
    scores ``initial_scores`` (n_items,), finite and positive, by default
    1; each converges, or not, on its own, and leaves the batch when it
    does. With alpha = 0 a row whose win graph (duels of positive weight)
    is not strongly connected, which includes any row that leaves an item
    silent, has no maximizer: it keeps the starting scores, unconverged
    after 0 iterations. Each row's fit is bit-identical to the same row
    fitted alone.
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
    if weights is None:
        weights = np.ones(wi.shape)
    weights = np.asarray(weights, dtype=float)
    if (
        weights.ndim != 2
        or weights.shape[1] != wi.shape[1]
        or len(wi) not in (1, len(weights))
    ):
        raise ValidationError(
            f"weights must be (rows, duels) with one column per duel, got "
            f"{weights.shape} for duel arrays {wi.shape}"
        )
    if not ((weights >= 0) & (weights < np.inf)).all():
        # a NaN, infinite or negative weight has no maximizer to converge to
        raise ValidationError("weights must be finite and nonnegative")
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
    log_s = np.empty((len(weights), n_items))
    log_s[:] = _start_log_scores(n_items, initial_scores)
    iterations = np.zeros(len(weights), dtype=int)
    converged = np.zeros(len(weights), dtype=bool)
    alpha = config.regularization_alpha
    rows = slice(None)
    if alpha == 0.0:
        winners, losers = (np.broadcast_to(side, weights.shape) for side in duels)
        rows = np.flatnonzero(
            [
                _strongly_connected(n_items, w[k > 0], l[k > 0])
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

    This is ``fit_duel_arrays`` with one row of unit weights: one Newton
    loop serves single fits and batches of weighted refits.

    The result is expressed in the configured gauge; the regularization
    anchor is rescaled along with the scores so the reported fit is the
    exact optimum of the regularized objective.
    """
    if config is None:
        config = FitConfig()
    n = graph.n_items
    d = graph.duel_array
    if config.regularization_alpha == 0.0:
        if not len(d):
            raise DegenerateFitError(
                "no duels and no regularization: likelihood has no maximizer"
            )
        appearances = np.bincount(d.ravel(), minlength=n)
        silent = [graph.items[i] for i in range(n) if appearances[i] == 0]
        if silent:
            raise UnidentifiableItemsError(silent)
    if initial_scores is not None:
        initial_scores = [initial_scores[item] for item in graph.items]
    fits = fit_duel_arrays(n, d[None, :, 0], d[None, :, 1], config,
                           initial_scores=initial_scores)
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
