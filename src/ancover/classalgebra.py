"""Frobenius triple counts, class-product coverage, covering numbers.

Two exact integer primitives answer every class-product question, both
read from the integer table of :mod:`ancover.characters`.  With
N(C, D, g) the number of pairs (c, d) in C x D with cd = g, and N_m(g)
the number of m-tuples from C with product g:

    N(C, D, g) = |C||D|/|G| * sum_chi chi(C) chi(D) chi(g^-1) / chi(1)
    N_m(g)     = |C|^m/|G| * sum_chi chi(C)^m chi(g^-1) / chi(1)^(m-1)

(the m-fold formula; Arad & Herzog (eds.), *Products of Conjugacy Classes
in Groups*, LNM 1112).  :func:`product_counts` and :func:`power_counts`
weigh each character once, by chi(C) chi(D) |G|/chi(1) or by
chi(C)^m (|G|/chi(1))^(m-1), and then take the integer column sums at
every target class in one packed product.  The sums come from
:meth:`CharacterTable.column_sums`, the exact kernel that the table's own
orthogonality checks also use.  Weights
and sums live in Z[sqrt(d)] for the radicand d of each split constituent;
the sqrt(d) parts must cancel in every sum, and every count must come out
a nonnegative integer.  Otherwise :class:`IrrationalResidue` is raised:
nothing is rounded.
:func:`frobenius_count` is the same sum for one target, and
:func:`covering_number` the least m with every N_m(g) > 0.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable

from ancover.characters import CharacterTable, Weights, an_character_table
from ancover.combinatorics import Partition, Record
from ancover.permutations import ClassLabel

MAX_COVERING_POWER = 20  # covering_number gives up past this power


class IrrationalResidue(ArithmeticError):
    """Irrational parts of a Frobenius sum failed to cancel."""


class NotGenerating(RuntimeError):
    """No power of the class up to the limit covers the whole group."""


def _pair_weights(table: CharacterTable, ci: int, di: int) -> Weights:
    """w_chi = 2chi(C) * 2chi(D) * |G|/chi(1)."""
    q = table.order_over_degree
    x, y = table.columns[ci], table.columns[di]
    rational = list(map(mul, map(mul, x, y), q))
    surd: dict[int, int] = {}
    for i, (d, coefs) in table.surds.items():
        x1, y1 = coefs.get(ci, 0), coefs.get(di, 0)
        if x1 or y1:
            rational[i] += x1 * y1 * d * q[i]
            surd[i] = (x[i] * y1 + x1 * y[i]) * q[i]
    return rational, surd


def _power_weights(table: CharacterTable, ci: int, m: int) -> Weights:
    """w_chi = (2chi(C))^m * (|G|/chi(1))^(m-1)."""
    q = table.order_over_degree
    x = table.columns[ci]
    rational = [v**m * w ** (m - 1) for v, w in zip(x, q)]
    surd: dict[int, int] = {}
    for i, (d, coefs) in table.surds.items():
        x1 = coefs.get(ci, 0)
        if x1:
            a, b = 1, 0
            for _ in range(m):
                a, b = a * x[i] + b * x1 * d, a * x1 + b * x[i]
            scale = q[i] ** (m - 1)
            rational[i], surd[i] = a * scale, b * scale
    return rational, surd


# The text naming a question in an error message, built only on the error.
What = Callable[[], str]


def _class_sums(
    table: CharacterTable, weights: Weights, targets: list[int], what: What
) -> list[int]:
    """The exact sums of :meth:`CharacterTable.column_sums`; raises
    IrrationalResidue unless the sqrt(d) parts cancel for every radicand d
    and every target."""
    sums, residues = table.column_sums(weights, targets)
    if residues:
        bad = {d: [c for c in res if c] for d, res in residues.items()}
        raise IrrationalResidue(f"irrational residue {bad} for {what()}")
    return sums


def _exact_count(numerator: int, denominator: int, what: What, target: ClassLabel | None = None) -> int:
    count, rest = divmod(numerator, denominator)
    if rest or count < 0:
        where = what() if target is None else f"{what()} -> {target}"
        raise IrrationalResidue(
            f"count {Fraction(numerator, denominator)} for {where} is not a nonnegative integer"
        )
    return count


def _table_for(labels: tuple[ClassLabel, ...], table: CharacterTable | None) -> CharacterTable:
    n = labels[0].n
    if any(x.n != n for x in labels):
        raise ValueError("labels must share one degree")
    return an_character_table(n) if table is None else table


def frobenius_count(
    C: ClassLabel,
    D: ClassLabel,
    g: ClassLabel,
    *,
    table: CharacterTable | None = None,
) -> int:
    """Exact number of pairs (c, d) in C x D with c d equal to a fixed
    representative of g."""
    table = _table_for((C, D, g), table)
    ci, di = table.class_index(C), table.class_index(D)
    what = lambda: f"({C}, {D}, {g})"
    target = table.inverse_index[table.class_index(g)]
    (total,) = _class_sums(table, _pair_weights(table, ci, di), [target], what)
    scale = table.class_sizes[ci] * table.class_sizes[di]
    return _exact_count(scale * total, 8 * table.group_order**2, what)


def product_counts(
    C: ClassLabel, D: ClassLabel, *, table: CharacterTable | None = None
) -> dict[ClassLabel, int]:
    """N(C, D, E) for every class E, in table order, from one pass."""
    table = _table_for((C, D), table)
    ci, di = table.class_index(C), table.class_index(D)
    what = lambda: f"({C}, {D})"
    sums = _class_sums(table, _pair_weights(table, ci, di), table.inverse_index, what)
    scale = table.class_sizes[ci] * table.class_sizes[di]
    den = 8 * table.group_order**2
    return {E: _exact_count(scale * s, den, what, E) for E, s in zip(table.classes, sums)}


def power_counts(
    C: ClassLabel, m: int, *, table: CharacterTable | None = None
) -> dict[ClassLabel, int]:
    """N_m(E): the number of m-tuples from C with product a fixed element
    of E, for every class E, by the m-fold formula."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    table = _table_for((C,), table)
    ci = table.class_index(C)
    what = lambda: f"{C}^{m}"
    sums = _class_sums(table, _power_weights(table, ci, m), table.inverse_index, what)
    scale = table.class_sizes[ci] ** m
    den = 2 ** (m + 1) * table.group_order**m
    return {E: _exact_count(scale * s, den, what, E) for E, s in zip(table.classes, sums)}


def _identity_label(n: int) -> ClassLabel:
    return ClassLabel(Partition([1] * n))


class CoverageReport(Record, frozen=False):
    """Which nontrivial classes are missing from the product set CD."""

    __slots__ = ("n", "C", "D", "uncovered")

    def __init__(
        self, n: int, C: ClassLabel, D: ClassLabel, uncovered: list[ClassLabel] | None = None
    ):
        self.n = n
        self.C = C
        self.D = D
        self.uncovered = [] if uncovered is None else uncovered

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
    identity = _identity_label(C.n)
    counts = product_counts(C, D, table=table)
    return CoverageReport(C.n, C, D, [g for g, c in counts.items() if c == 0 and g != identity])


def covering_number(C: ClassLabel, *, table: CharacterTable | None = None) -> int:
    """Least m with C^m equal to all of A_n: every N_m(g) > 0."""
    n = C.n
    if n < 5:
        raise ValueError("covering numbers are computed for simple A_n (n >= 5)")
    if C.cycle_type.parts == tuple([1] * n):
        raise ValueError("the identity class does not generate")
    for m in range(1, MAX_COVERING_POWER + 1):
        if all(power_counts(C, m, table=table).values()):
            return m
    raise NotGenerating(f"no cover of A_{n} by {C} within {MAX_COVERING_POWER} powers")
