"""Exact finite-n certificates for the analytic estimates.

Nothing here floats: rational quantities are Fractions, and quantities of
the form u + v*sqrt(d) are compared through :func:`surd_sign`, which
decides the sign of a Q-linear combination of square roots by certified
integer-interval refinement (square roots of distinct squarefree integers
are linearly independent over Q, so a nonzero combination is bounded away
from zero and the refinement terminates).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ancover.characters import _squarefree_split
from ancover.combinatorics import Record


class EvenOrSmallN(ValueError):
    """The certificate is defined for odd n >= 7 only."""


# ---------------------------------------------------------------------------
# Exact comparison of sums of square roots


def _normalize_terms(terms: Sequence[tuple[Fraction, int]]) -> dict[int, Fraction]:
    """Collect q * sqrt(d) terms by squarefree radicand (d = 1 rational)."""
    out: dict[int, Fraction] = {}
    for q, d in terms:
        if d < 0:
            raise ValueError("surd comparison is for real quantities")
        s, d0 = _squarefree_split(d)
        if d0 == 0:
            continue
        coeff = Fraction(q) * s
        if coeff:
            out[d0] = out.get(d0, Fraction(0)) + coeff
    return {d: c for d, c in out.items() if c != 0}


def surd_sign(terms: Sequence[tuple[Fraction, int]]) -> int:
    """Sign of sum q_i * sqrt(d_i), exactly: -1, 0 or +1."""
    collected = _normalize_terms(terms)
    if not collected:
        return 0
    if len(collected) == 1:
        ((_, c),) = collected.items()
        return 1 if c > 0 else -1
    prec = 8
    while True:
        scale = 1 << prec
        lo = Fraction(0)
        hi = Fraction(0)
        for d, c in collected.items():
            r = math.isqrt(d * scale * scale)
            lo_r = Fraction(r, scale)
            hi_r = Fraction(r + 1, scale)
            if c >= 0:
                lo += c * lo_r
                hi += c * hi_r
            else:
                lo += c * hi_r
                hi += c * lo_r
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
        if prec > 1 << 16:
            raise ArithmeticError("surd refinement failed to separate from zero")


# ---------------------------------------------------------------------------
# Hook-character bound


def hook_bound(n: int, k: int) -> int:
    """sum over 0 <= i < k/2 of binomial(ceil(n/2) - 1, i)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    top = (n + 1) // 2 - 1
    return sum(math.comb(top, i) for i in range(0, (k + 1) // 2) if 2 * i < k)


# ---------------------------------------------------------------------------
# The almost-derangement certificate

# The odd n at which ``verify bounds`` checks the clauses and writes them
# to its --table CSV.
PROP24_RANGE = range(13, 202, 2)


class Prop24Report(Record):
    """Exact clause values of the character-sum domination argument.

    The argument covers odd n >= 13; smaller odd n get values but no
    pass/fail force.
    """

    __slots__ = (
        "n",
        "hook_sum_value",
        "hook_sum_ok",
        "cube_term",
        "cube_ok",
        "mixed_term",
        "mixed_ok",
    )

    def __init__(
        self,
        n: int,
        hook_sum_value: Fraction,
        hook_sum_ok: bool,
        cube_term: tuple[Fraction, Fraction],  # u + v*sqrt(n)
        cube_ok: bool,
        mixed_term: tuple[Fraction, Fraction],  # u + v*sqrt(n)
        mixed_ok: bool,
    ):
        self._init(n, hook_sum_value, hook_sum_ok, cube_term, cube_ok, mixed_term, mixed_ok)

    def all_ok(self) -> bool:
        return self.hook_sum_ok and self.cube_ok and self.mixed_ok

    def csv_row(self) -> str:
        def approx(u: Fraction, v: Fraction) -> float:
            return float(u) + float(v) * math.sqrt(self.n)

        return (
            f"{self.n},{float(self.hook_sum_value):.10f},"
            f"{approx(*self.cube_term):.10f},{approx(*self.mixed_term):.10f}"
        )


def prop24_certificate(n: int) -> Prop24Report:
    """Evaluate the three clauses exactly at odd n >= 7.  They are claimed
    for odd n >= 13; ``suite_bounds`` checks them on :data:`PROP24_RANGE`."""
    if n % 2 == 0 or n < 7:
        raise EvenOrSmallN(f"certificate needs odd n >= 7, got {n}")
    one = Fraction(1)
    hook_sum = (
        one / (n - 1)
        + Fraction(2, (n - 1) * (n - 2))
        + one / (n - 2)
        + Fraction(3, (n - 2) * (n - 3))
        + Fraction(3, (n - 2) * (n - 4))
        + 15 * (Fraction((n + 1) ** 2, 16) - 6) / ((n - 2) * (n - 4) * (n - 6))
    )
    hook_ok = hook_sum < Fraction(1, 2)

    binom = math.comb(n - 1, (n - 1) // 2)
    # ((sqrt(n)+1)/2)^3 / binom = ((3n+1) + (n+3) sqrt(n)) / (8 binom)
    cube_u = Fraction(3 * n + 1, 8 * binom)
    cube_v = Fraction(n + 3, 8 * binom)
    cube_ok = surd_sign([(cube_u - Fraction(1, 4), 1), (cube_v, n)]) < 0

    # ((sqrt(n)+1)/2)^2 * S / binom = ((n+1) + 2 sqrt(n)) S / (4 binom)
    S = sum(math.comb((n - 1) // 2, i) for i in range((n - 1) // 4))
    mixed_u = Fraction((n + 1) * S, 4 * binom)
    mixed_v = Fraction(2 * S, 4 * binom)
    mixed_ok = surd_sign([(mixed_u - Fraction(1, 4), 1), (mixed_v, n)]) < 0

    return Prop24Report(
        n, hook_sum, hook_ok, (cube_u, cube_v), cube_ok, (mixed_u, mixed_v), mixed_ok
    )


def prop24_monotone_decreasing(reports: Sequence[Prop24Report]) -> bool:
    """Clause values weakly decrease along the reports, in the order given."""
    for prev, cur in zip(reports, reports[1:]):
        if not prev.hook_sum_value >= cur.hook_sum_value:
            return False
        for get in (lambda r: r.cube_term, lambda r: r.mixed_term):
            pu, pv = get(prev)
            cu, cv = get(cur)
            if surd_sign([(pu - cu, 1), (pv, prev.n), (-cv, cur.n)]) < 0:
                return False
    return True
