"""Exact and approximate statistical primitives used by the analysis modules.

Everything here is a pure function. P-values that would underflow a double
are carried in log10 space by :class:`PValue` instead of collapsing to zero.
numpy is imported only inside the functions that use it, so the tag stage,
which needs only the chi-square test, runs without it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import TYPE_CHECKING, Sequence

from .records import Frozen

if TYPE_CHECKING:
    import numpy as np

LOG10_SWITCH = -300.0  # below this, a PValue is stored as log10(p)


class PValue(Frozen):
    """A p-value with a log10 fallback for the underflow range.

    Exactly one of ``value`` and ``log10_value`` is set. The log10
    representation is used only when the plain value would be < 1e-300.
    """

    __slots__ = ("value", "log10_value")

    def __init__(self, value: float | None = None, log10_value: float | None = None):
        if (value is None) == (log10_value is None):
            raise ValueError("exactly one of value and log10_value must be set")
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"p-value out of [0, 1]: {value}")
        if log10_value is not None and log10_value > LOG10_SWITCH:
            raise ValueError("log10 representation is reserved for p < 1e-300")
        self._bind(value, log10_value)

    @classmethod
    def from_log10(cls, log10p: float) -> "PValue":
        if log10p > 0.0:
            log10p = 0.0
        if log10p > LOG10_SWITCH:
            return cls(value=10.0 ** log10p)
        return cls(log10_value=log10p)

    @property
    def log10(self) -> float:
        if self.log10_value is not None:
            return self.log10_value
        if self.value == 0.0:
            return -math.inf
        return math.log10(self.value)

    def __float__(self) -> float:
        if self.value is not None:
            return self.value
        return 10.0 ** self.log10_value  # underflows to 0.0, on purpose

    def __repr__(self):
        if self.value is not None:
            return f"PValue({self.value!r})"
        return f"PValue(log10={self.log10_value!r})"


def pvalue_json(p: PValue | None) -> dict | None:
    """``p`` as JSON; None (no p-value) as null."""
    if p is None:
        return None
    return {"value": p.value} if p.value is not None else {"log10": p.log10_value}


# math.exp(x) is exactly 0.0 for x below about -745.13
_EXP_ZERO_BELOW = -746.0


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only table of log(j!) for j = 0..n, one lgamma per entry."""
    import numpy as np

    table = np.array([math.lgamma(j + 1) for j in range(n + 1)])
    table.flags.writeable = False
    return table


def binomial_two_sided(k: int, n: int, p0: float = 0.5) -> PValue:
    """Exact two-sided binomial test of k successes in n trials against p0.

    Sums the probabilities of all outcomes no more likely than the observed
    one. Computed in log space so it stays exact for n in the tens of
    thousands, where tail probabilities underflow doubles.

    The log-pmf is numpy arithmetic over a cached log-factorial table, in
    the order of operations of the per-outcome formula, so it has the same
    bits. Of the selected outcomes only those within 746 of the largest go
    through ``math.exp``: the others would add an exact 0.0 to ``fsum``.
    ``fsum`` returns the correctly rounded exact sum whatever the order of
    its terms; it gets them largest first, which keeps its list of partial
    sums short (at n = 2,000 about 25 times faster than in outcome order).
    """
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"invalid binomial arguments k={k}, n={n}")
    if not 0.0 < p0 < 1.0:
        raise ValueError(f"null probability must be in (0, 1), got {p0}")
    import numpy as np

    log_p = math.log(p0)
    log_q = math.log1p(-p0)
    lg = _log_factorials(n)
    j = np.arange(n + 1)
    logpmf = lg[n] - lg - lg[::-1] + j * log_p + (n - j) * log_q
    # tolerance absorbs lgamma rounding; ties at the observed pmf are included
    selected = logpmf[logpmf <= logpmf[k] + 1e-9]
    top = float(selected.max())
    shifted = selected - top
    kept = np.sort(shifted[shifted >= _EXP_ZERO_BELOW])[::-1]
    log_total = top + math.log(math.fsum(map(math.exp, kept.tolist())))
    log10_total = min(log_total / math.log(10), 0.0)
    return PValue.from_log10(log10_total)


def _chi2_1_log10_sf(x: float) -> float:
    """log10 of the upper tail of chi-square with 1 dof, for huge x."""
    t = math.sqrt(x / 2.0)
    # erfc(t) ~ exp(-t^2) / (t sqrt(pi)) * (1 - 1/(2t^2) + 3/(4t^4))
    series = 1.0 - 1.0 / (2.0 * t * t) + 3.0 / (4.0 * t ** 4)
    ln_p = -t * t - math.log(t * math.sqrt(math.pi)) + math.log(series)
    return ln_p / math.log(10)


def chi2_1_sf(x: float) -> PValue:
    """Upper tail of the chi-square distribution with one degree of freedom."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be nonnegative, got {x}")
    p = math.erfc(math.sqrt(x / 2.0))
    if p > 0.0:
        return PValue(value=min(p, 1.0))
    return PValue.from_log10(_chi2_1_log10_sf(x))


def chi_square_2x2(table) -> tuple[float, PValue]:
    """Pearson chi-square test (1 dof, no continuity correction) on a 2x2 table.

    ``table`` is [[a, b], [c, d]] of nonnegative counts. Both row sums and
    both column sums must be positive.
    """
    (a, b), (c, d) = table
    for cell in (a, b, c, d):
        if cell < 0:
            raise ValueError(f"negative cell count: {cell}")
    r1, r2 = a + b, c + d
    c1, c2 = a + c, b + d
    if min(r1, r2, c1, c2) <= 0:
        raise ValueError("chi-square test requires positive row and column sums")
    n = r1 + r2
    stat = n * (a * d - b * c) ** 2 / (r1 * r2 * c1 * c2)
    return stat, chi2_1_sf(stat)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def log_regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Natural log of I_x(a, b), accurate even when I_x underflows.

    Only valid on the branch x < (a+1)/(a+b+2), where its continued
    fraction converges fast; beyond it, use I_x(a, b) = 1 - I_{1-x}(b, a).
    """
    if x <= 0.0:
        return -math.inf
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    return ln_front + math.log(_betacf(a, b, x) / a)


def student_t_two_sided(t: float, df: float) -> PValue:
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if math.isinf(t):
        return PValue(value=0.0)
    x = df / (df + t * t)
    if x < (df / 2.0 + 1.0) / (df / 2.0 + 2.5):
        # direct branch: p = I_x(df/2, 1/2), log-safe for extreme t
        ln_p = log_regularized_incomplete_beta(df / 2.0, 0.5, x)
        return PValue.from_log10(min(ln_p / math.log(10), 0.0))
    # complement: p = 1 - I_{1-x}(1/2, df/2)
    p = 1.0 - math.exp(log_regularized_incomplete_beta(0.5, df / 2.0, 1.0 - x))
    return PValue(value=min(p, 1.0))


def _corr_pvalue(r: float, n: int) -> PValue:
    if abs(r) >= 1.0:
        return PValue(value=0.0)
    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return student_t_two_sided(t, n - 2)


def _unit_scaled(deviations: list[float]) -> list[float]:
    """``deviations`` times the power of two that takes the largest
    magnitude into [0.5, 1); a power of two scales exactly."""
    exponent = math.frexp(max(map(abs, deviations)))[1]
    return [math.ldexp(d, -exponent) for d in deviations]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, PValue]:
    """Sample Pearson correlation with a t-approximation p-value."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    # tested on the values: the deviations of a constant input from its
    # rounded mean need not be zero
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise ValueError("correlation undefined for constant input")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if min(sxx, syy, sxx * syy) < sys.float_info.min or sxx * syy == math.inf:
        # the sums of squares or their product are subnormal, zero or
        # infinite (inputs near 1e-160 or 1e150): r does not depend on the
        # scale of either input, so take both deviations to about 1
        dx, dy = _unit_scaled(dx), _unit_scaled(dy)
        sxx = math.fsum(d * d for d in dx)
        syy = math.fsum(d * d for d in dy)
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    return r, _corr_pvalue(r, n)


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties assigned their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, PValue]:
    """Spearman rank correlation: Pearson on average ranks, t-approx p-value."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(average_ranks(xs), average_ranks(ys))


def midpoint_ranks(values, sorted_sample: np.ndarray) -> np.ndarray:
    """Midpoint-convention percentile ranks of ``values`` within an ascending
    sample: 100 * (below + equal / 2) / n, in [0, 100]."""
    import numpy as np

    below = np.searchsorted(sorted_sample, values, side="left")
    not_above = np.searchsorted(sorted_sample, values, side="right")
    return 50.0 * (below + not_above) / len(sorted_sample)


def percentile_rank(value: float, sample: Sequence[float]) -> float:
    """Midpoint-convention percentile rank of value within sample, in [0, 100]."""
    if len(sample) == 0:
        raise ValueError("sample must be non-empty")
    import numpy as np

    return float(midpoint_ranks(value, np.sort(np.asarray(sample, dtype=float))))
