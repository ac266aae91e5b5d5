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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ancover.characters import _squarefree_split
from ancover.combinatorics import (
    LimitExceeded,
    Partition,
    enumerate_distinct_partitions,
    frobenius_symbol,
    self_conjugate_partitions,
)
from ancover.permutations import Permutation

REPORT_LIMIT = 40  # largest n of the exhaustive reports


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
# Orbit-size profile


@dataclass(frozen=True)
class EProfile:
    """Cumulative orbit counts and the weighted statistic they define.

    ``counts[k-1]`` is the number of points lying in orbits of length at
    most k; the defining property is n^(e_1+...+e_k) = counts[k-1] when
    positive.  E = sum e_i / i is kept symbolically: every assertion made
    about it reduces to integer inequalities on the counts.
    """

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError(f"need {self.n} cumulative counts, got {len(self.counts)}")
        if self.counts[-1] != self.n:
            raise ValueError("every point has an orbit")
        if any(a > b for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be nondecreasing (each e_i is nonnegative)")

    def e_float(self) -> list[float]:
        """Floating-point rendering of e_1..e_n, for display only."""
        out = []
        prev = 0.0
        for c in self.counts:
            cur = math.log(c, self.n) if c > 0 else 0.0
            out.append(cur - prev)
            prev = cur
        return out

    def E_float(self) -> float:
        """Floating-point rendering of E, for display only."""
        return sum(e / (i + 1) for i, e in enumerate(self.e_float()))

    def short_orbit_cycles(self, M: int) -> int:
        """Number of cycles (fixed points included) of length <= M."""
        per_len = [0] * (self.n + 1)
        prev = 0
        for k, c in enumerate(self.counts, start=1):
            per_len[k] = (c - prev) // k
            prev = c
        return sum(per_len[1 : M + 1])

    def satisfies_short_orbit_hypothesis(self, M: int) -> bool:
        return self.short_orbit_cycles(M) <= M

    def check_short_orbit_bound(self, M: int) -> bool:
        """Exact certificate that E <= log_n M^2 + 1/(M+1).

        Chain: sum_{i<=M} e_i/i <= e_1+...+e_M = log_n counts[M-1] and
        sum_{i>M} e_i/i <= (1 - log_n counts[M-1])/(M+1); both are
        term-by-term consequences of e_i >= 0, so the data-dependent step
        is counts[M-1] <= M^2, an integer inequality implied by the
        hypothesis of at most M short cycles.
        """
        if not self.satisfies_short_orbit_hypothesis(M):
            raise ValueError(f"hypothesis fails: more than {M} cycles of length <= {M}")
        return self.counts[M - 1] <= M * M


def e_profile(g: Permutation) -> EProfile:
    """Orbit-size profile of a permutation on at least two points."""
    if g.n < 2:
        raise ValueError("need n >= 2")
    per_len = [0] * (g.n + 1)
    for cyc in g.cycles(include_fixed=True):
        per_len[len(cyc)] += len(cyc)
    counts = []
    running = 0
    for k in range(1, g.n + 1):
        running += per_len[k]
        counts.append(running)
    return EProfile(g.n, tuple(counts))


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


@dataclass(frozen=True)
class Prop24Report:
    """Exact clause values of the character-sum domination argument.

    ``asserted`` is True for odd n >= 13 (the range the argument covers);
    smaller odd n get values but no pass/fail force.
    """

    n: int
    hook_sum_value: Fraction
    hook_sum_ok: bool
    cube_term: tuple[Fraction, Fraction]  # u + v*sqrt(n)
    cube_ok: bool
    mixed_term: tuple[Fraction, Fraction]  # u + v*sqrt(n)
    mixed_ok: bool
    asserted: bool

    def all_ok(self) -> bool:
        return self.hook_sum_ok and self.cube_ok and self.mixed_ok

    def to_json_dict(self) -> dict:
        def frac(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"

        return {
            "schema": 1,
            "n": self.n,
            "hook_sum": frac(self.hook_sum_value),
            "hook_sum_lt_half": self.hook_sum_ok,
            "cube_term": [frac(self.cube_term[0]), frac(self.cube_term[1])],
            "cube_lt_quarter": self.cube_ok,
            "mixed_term": [frac(self.mixed_term[0]), frac(self.mixed_term[1])],
            "mixed_lt_quarter": self.mixed_ok,
            "asserted": self.asserted,
        }

    def csv_row(self) -> str:
        def approx(u: Fraction, v: Fraction) -> float:
            return float(u) + float(v) * math.sqrt(self.n)

        return (
            f"{self.n},{float(self.hook_sum_value):.10f},"
            f"{approx(*self.cube_term):.10f},{approx(*self.mixed_term):.10f}"
        )


def prop24_certificate(n: int) -> Prop24Report:
    """Evaluate the three clauses exactly; assert them for odd n >= 13."""
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

    asserted = n >= 13
    report = Prop24Report(
        n, hook_sum, hook_ok, (cube_u, cube_v), cube_ok, (mixed_u, mixed_v), mixed_ok, asserted
    )
    if asserted and not report.all_ok():
        raise AssertionError(f"certificate clause failed at n = {n}: {report}")
    return report


def prop24_monotone_decreasing(n_lo: int, n_hi: int) -> bool:
    """Clause values weakly decrease along odd n in [n_lo, n_hi]."""
    prev: Prop24Report | None = None
    for n in range(n_lo, n_hi + 1, 2):
        cur = prop24_certificate(n)
        if prev is not None:
            if not prev.hook_sum_value >= cur.hook_sum_value:
                return False
            for get in (lambda r: r.cube_term, lambda r: r.mixed_term):
                pu, pv = get(prev)
                cu, cv = get(cur)
                if surd_sign([(pu - cu, 1), (pv, prev.n), (-cv, cur.n)]) < 0:
                    return False
        prev = cur
    return True


# ---------------------------------------------------------------------------
# Distinct-part products


@dataclass(frozen=True)
class AmGmReport:
    n: int
    max_product: int
    argmax: Partition
    all_bounded: bool  # every witness satisfies prod <= (n/m)^m
    part_counts_ok: bool  # m(m+1)/2 <= n, hence m^2 < 2n, for every witness

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "max_product": self.max_product,
            "argmax": self.argmax.text(),
            "all_bounded": self.all_bounded,
            "part_counts_ok": self.part_counts_ok,
        }


def amgm_report(n: int) -> AmGmReport:
    """Exhaust distinct-part partitions of n; verify the mean bound."""
    if n > REPORT_LIMIT:
        raise LimitExceeded(f"n = {n} exceeds the exhaustive limit {REPORT_LIMIT}")
    if n < 1:
        raise ValueError("need n >= 1")
    best = 0
    best_p: Partition | None = None
    all_bounded = True
    counts_ok = True
    for p in enumerate_distinct_partitions(n):
        m = len(p.parts)
        prod = math.prod(p.parts)
        if prod > best:
            best, best_p = prod, p
        if Fraction(prod) > Fraction(n, m) ** m:
            all_bounded = False
        if m * (m + 1) // 2 > n or m * m >= 2 * n:
            counts_ok = False
    if best_p is None:  # (n,) is a distinct-part partition of every n >= 1
        raise RuntimeError(f"no distinct-part partition of {n}")
    return AmGmReport(n, best, best_p, all_bounded, counts_ok)


# ---------------------------------------------------------------------------
# Split character degrees


@dataclass(frozen=True)
class SplitDegreeEntry:
    partition: Partition
    diagonal_hooks: tuple[int, ...]
    half_degree: int
    arm_factorial_product: int
    divides_half_factorial: bool


@dataclass(frozen=True)
class SplitDegreeReport:
    n: int
    entries: tuple[SplitDegreeEntry, ...]
    min_half_degree: int | None
    power_bound: Fraction  # 2^n / (4n)
    binomial_half: Fraction  # C(n-1, floor((n-1)/2)) / 2

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "min_half_degree": self.min_half_degree,
            "power_bound": str(self.power_bound),
            "binomial_half": str(self.binomial_half),
            "entries": [
                {
                    "partition": e.partition.text(),
                    "hooks": list(e.diagonal_hooks),
                    "half_degree": e.half_degree,
                    "divides": e.divides_half_factorial,
                }
                for e in self.entries
            ],
        }


def min_split_degree_report(n: int) -> SplitDegreeReport:
    """Minimum degree of a split A_n irreducible, with the proof's
    comparison quantities and the arm-factorial divisibility check."""
    from ancover.characters import degree

    if n > REPORT_LIMIT:
        raise LimitExceeded(f"n = {n} exceeds the report limit {REPORT_LIMIT}")
    if n < 2:
        raise ValueError("need n >= 2")
    entries = []
    half_fact = math.factorial((n - 1) // 2)
    for p in self_conjugate_partitions(n):
        fs = frobenius_symbol(p)
        arm_prod = math.prod(math.factorial(a) for a in fs.arms)
        entries.append(
            SplitDegreeEntry(
                p,
                fs.diagonal_hooks(),
                degree(p) // 2,
                arm_prod,
                half_fact % arm_prod == 0,
            )
        )
    entries.sort(key=lambda e: e.half_degree)
    return SplitDegreeReport(
        n,
        tuple(entries),
        entries[0].half_degree if entries else None,
        Fraction(2**n, 4 * n),
        Fraction(math.comb(n - 1, (n - 1) // 2), 2),
    )
