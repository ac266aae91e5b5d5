"""Frobenius triple counts, class-product coverage, covering numbers.

Two exact integer primitives answer every class-product question, both
read from the integer table of :mod:`ancover.characters`.  With
N(C, D, g) the number of pairs (c, d) in C x D with cd = g, and N_m(g)
the number of m-tuples from C with product g:

    N(C, D, g) = |C||D|/|G| * sum_chi chi(C) chi(D) chi(g^-1) / chi(1)
    N_m(g)     = |C|^m/|G| * sum_chi chi(C)^m chi(g^-1) / chi(1)^(m-1)

(the m-fold formula; Arad & Herzog (eds.), *Products of Conjugacy Classes
in Groups*, LNM 1112).  Every count is one call of
:meth:`CharacterTable.column_sums`, the exact kernel that the table's own
orthogonality checks also use, with the weights described, not formed:
the factor columns (C, D) or C m times, and the power 1 or m - 1 of
|G|/chi(1).  The kernel forms them, in Z[sqrt(d)] on the split rows; the
sqrt(d) parts must cancel in every sum, and every count must come out a
nonnegative integer.  Otherwise :class:`IrrationalResidue` is raised:
nothing is rounded.  :func:`product_counts` and :func:`power_counts` ask
for every target class, one packed product; :func:`frobenius_count` asks
for one, a lazy dot product with no weight list.  :func:`covers` and
:func:`covering_number` read the counts as a list in table order, and
the last is the least m with every N_m(g) > 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import floordiv, mod, mul
from typing import Callable, Iterable

from ancover.characters import CharacterTable, an_character_table
from ancover.combinatorics import Partition, Record
from ancover.permutations import ClassLabel

MAX_COVERING_POWER = 20  # covering_number gives up past this power


class IrrationalResidue(ArithmeticError):
    """Irrational parts of a Frobenius sum failed to cancel."""


class NotGenerating(RuntimeError):
    """No power of the class up to the limit covers the whole group."""


def _counts(
    table: CharacterTable, factors: tuple[int, ...], what: Callable[[], str], at: int | None = None
) -> list[int]:
    """The number of m-tuples (c_1, ..., c_m) with c_i in class factors[i]
    whose product is a fixed element of E, for every class E in table
    order, or of class at only.  Raises IrrationalResidue unless the
    sqrt(d) parts cancel and every count is a nonnegative integer; what()
    names the question in the message, built only on the error."""
    m = len(factors)
    targets = table.inverse_index if at is None else [table.inverse_index[at]]
    sums, residues = table.column_sums(factors, m - 1, targets)
    if residues:
        bad = {d: [c for c in res if c] for d, res in residues.items()}
        raise IrrationalResidue(f"irrational residue {bad} for {what()}")
    scale = math.prod([table.class_sizes[c] for c in factors])
    den = 2 ** (m + 1) * table.group_order**m
    # scale * s / den is an integer exactly when den / g divides s, with
    # g = gcd(scale, den); g is scale when every class size divides |G|.
    g = math.gcd(scale, den)
    step = den // g
    if min(sums) < 0 or any(map(mod, sums, repeat(step))):
        p = next(p for p, s in enumerate(sums) if s < 0 or s % step)
        where = what() if at is not None else f"{what()} -> {table.classes[p]}"
        raise IrrationalResidue(
            f"count {Fraction(scale * sums[p], den)} for {where} is not a nonnegative integer"
        )
    return list(map(mul, map(floordiv, sums, repeat(step)), repeat(scale // g)))


def _table_for(labels: tuple[ClassLabel, ...], table: CharacterTable | None) -> CharacterTable:
    n = labels[0].n
    for x in labels[1:]:
        if x.n != n:
            raise ValueError("labels must share one degree")
    if table is not None and table.n != n:
        raise ValueError(f"labels of degree {n} against a table of degree {table.n}")
    return an_character_table(n) if table is None else table


def frobenius_count(
    C: ClassLabel, D: ClassLabel, g: ClassLabel, *, table: CharacterTable | None = None
) -> int:
    """Exact number of pairs (c, d) in C x D with c d equal to a fixed
    representative of g."""
    table = _table_for((C, D, g), table)
    factors = (table.class_index(C), table.class_index(D))
    (count,) = _counts(table, factors, lambda: f"({C}, {D}, {g})", table.class_index(g))
    return count


def product_counts(
    C: ClassLabel, D: ClassLabel, *, table: CharacterTable | None = None
) -> dict[ClassLabel, int]:
    """N(C, D, E) for every class E, in table order, from one pass."""
    table = _table_for((C, D), table)
    factors = (table.class_index(C), table.class_index(D))
    return dict(zip(table.classes, _counts(table, factors, lambda: f"({C}, {D})")))


def power_counts(
    C: ClassLabel, m: int, *, table: CharacterTable | None = None
) -> dict[ClassLabel, int]:
    """N_m(E): the number of m-tuples from C with product a fixed element
    of E, for every class E, by the m-fold formula."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    table = _table_for((C,), table)
    factors = (table.class_index(C),) * m
    return dict(zip(table.classes, _counts(table, factors, lambda: f"{C}^{m}")))


class CoverageReport(Record):
    """Which nontrivial classes are missing from the product set CD."""

    __slots__ = ("n", "C", "D", "uncovered")

    def __init__(self, n: int, C: ClassLabel, D: ClassLabel, uncovered: Iterable[ClassLabel] = ()):
        self._init(n, C, D, tuple(uncovered))

    @property
    def covered(self) -> bool:
        return not self.uncovered

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "C": self.C.text(),
            "D": self.D.text(),
            "uncovered": [c.text() for c in self.uncovered],
            "covered": self.covered,
        }

    def text_lines(self) -> list[str]:
        head = f"n={self.n} C={self.C} D={self.D} covered={'yes' if self.covered else 'no'}"
        return [head] + [f"  missing {c}" for c in self.uncovered]


def covers(C: ClassLabel, D: ClassLabel, *, table: CharacterTable | None = None) -> CoverageReport:
    """List every nontrivial class with zero Frobenius count from (C, D)."""
    table = _table_for((C, D), table)
    factors = (table.class_index(C), table.class_index(D))
    counts = _counts(table, factors, lambda: f"({C}, {D})")
    one = table.class_index(ClassLabel(Partition([1] * C.n)))
    missing = [table.classes[j] for j, c in enumerate(counts) if not c and j != one]
    return CoverageReport(C.n, C, D, missing)


def covering_number(C: ClassLabel, *, table: CharacterTable | None = None) -> int:
    """Least m with C^m equal to all of A_n: every N_m(g) > 0."""
    n = C.n
    if n < 5:
        raise ValueError("covering numbers are computed for simple A_n (n >= 5)")
    if C.cycle_type.parts == tuple([1] * n):
        raise ValueError("the identity class does not generate")
    table = _table_for((C,), table)
    ci = table.class_index(C)
    # C itself is one class of the several that A_n has, so m = 1 never covers.
    for m in range(2, MAX_COVERING_POWER + 1):
        if all(_counts(table, (ci,) * m, lambda: f"{C}^{m}")):
            return m
    raise NotGenerating(f"no cover of A_{n} by {C} within {MAX_COVERING_POWER} powers")
