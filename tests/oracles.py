"""Independent small-n oracles used by the tests.

The S_n character oracle here never touches the Murnaghan-Nakayama code:
it counts fixed tabloids to get Young permutation-module characters and
peels irreducibles off by exact inner products.  Slow, simple, and good
up to n = 6 or so.

:func:`mn_cellwise` is the Murnaghan-Nakayama rule one cell at a time,
recursing over the first-column hook lengths (beta set) of lam.  It
shares no code with the column-wise rule of :mod:`ancover.characters`
and checks it on every cell up to n = 14.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from ancover.combinatorics import Partition, centralizer_order, enumerate_partitions


def _assignments(cycle_lens: tuple[int, ...], caps: tuple[int, ...]) -> int:
    """Ways to distribute cycles into labeled blocks with these capacities."""

    @lru_cache(maxsize=None)
    def rec(i: int, caps: tuple[int, ...]) -> int:
        if i == len(cycle_lens):
            return 1
        total = 0
        size = cycle_lens[i]
        for j, c in enumerate(caps):
            if c >= size:
                reduced = caps[:j] + (c - size,) + caps[j + 1 :]
                total += rec(i + 1, reduced)
        return total

    return rec(0, caps)


def permutation_module_character(lam: Partition, mu: Partition) -> int:
    """Trace of a type-mu permutation on the tabloids of shape lam."""
    return _assignments(mu.parts, lam.parts)


def sn_character_table_oracle(n: int) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """Exact S_n table {(lam, mu): chi_lam(mu)} by inner-product peeling."""
    parts = list(enumerate_partitions(n))  # descending lex
    class_sizes = {mu.parts: factorial(n) // centralizer_order(mu) for mu in parts}
    order = factorial(n)

    def inner(a: dict, b: dict) -> Fraction:
        return (
            sum(Fraction(class_sizes[m] * a[m] * b[m]) for m in class_sizes) / order
        )

    table: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    known: list[tuple[tuple[int, ...], dict]] = []
    for lam in parts:  # descending lex refines dominance
        row = {mu.parts: permutation_module_character(lam, mu) for mu in parts}
        for _, chi in known:
            mult = inner(row, chi)
            assert mult.denominator == 1
            if mult:
                row = {m: row[m] - int(mult) * chi[m] for m in row}
        assert inner(row, row) == 1, f"peeling failed at {lam.parts}"
        known.append((lam.parts, row))
        for m, v in row.items():
            table[(lam.parts, m)] = v
    return table


@lru_cache(maxsize=None)
def mn_cellwise(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi_lam evaluated on cycle type mu, parts of mu removed in order."""
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    bset = set(beta)
    total = 0
    for b in beta:
        c = b - r
        if c < 0 or c in bset:
            continue
        leg = sum(1 for x in beta if c < x < b)
        newbeta = sorted((bset - {b}) | {c}, reverse=True)
        lam2 = tuple(
            x - (k - 1 - i) for i, x in enumerate(newbeta) if x - (k - 1 - i) > 0
        )
        term = mn_cellwise(lam2, rest)
        total += -term if leg % 2 else term
    return total
