"""Brute-force ground truth at small n.

Everything here works by enumeration of actual permutations, independent
of the character machinery, and exists to validate it.  Classes are
streamed rather than materialized; membership tests go through the cycle
type (and the conjugator-parity sign for split types), so the ceiling of
n = 9 stays cheap on memory.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ancover.combinatorics import LimitExceeded, Partition
from ancover.permutations import (
    ClassLabel,
    Permutation,
    all_even_permutations,
    an_class_of,
    an_class_size,
    cycle_type,
    splits_in_an,
)

ORACLE_LIMIT = 9


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the oracle limit {limit}")


def permutations_of_type(mu: Partition) -> Iterator[Permutation]:
    """Stream all permutations of {1..n} with cycle type mu, no duplicates.

    The smallest unplaced point always leads the next cycle, so each
    permutation appears exactly once.
    """
    n = mu.n

    def rec(points: frozenset[int], lengths: tuple[int, ...], cycles: list[tuple[int, ...]]):
        if not lengths:
            yield Permutation.from_cycles(n, cycles)
            return
        lead = min(points)
        rest = sorted(points - {lead})
        for length in sorted(set(lengths), reverse=True):
            remaining = list(lengths)
            remaining.remove(length)
            for tail in itertools.permutations(rest, length - 1):
                cycles.append((lead,) + tail)
                yield from rec(points - {lead, *tail}, tuple(remaining), cycles)
                cycles.pop()

    yield from rec(frozenset(range(1, n + 1)), mu.parts, [])


def iter_class(label: ClassLabel, *, limit: int = ORACLE_LIMIT) -> Iterator[Permutation]:
    _check_limit(label.n, limit)
    for g in permutations_of_type(label.cycle_type):
        if label.sign is None or an_class_of(g) == label:
            yield g


def _in_class(h: Permutation, label: ClassLabel) -> bool:
    """Whether h lies in the A_n class named by label."""
    return cycle_type(h) == label.cycle_type and (label.sign is None or an_class_of(h) == label)


def brute_frobenius(
    C: ClassLabel, D: ClassLabel, g: Permutation, *, limit: int = ORACLE_LIMIT
) -> int:
    """|{(c, d) in C x D : c d = g}| by direct enumeration.

    Enumerates whichever of C, D is smaller: c determines d = c^-1 g and
    vice versa.
    """
    n = C.n
    if D.n != n or g.n != n:
        raise ValueError("degree mismatch")
    _check_limit(n, limit)
    if an_class_size(C) <= an_class_size(D):
        source, target, cofactor = C, D, lambda c: c.inverse() * g
    else:
        source, target, cofactor = D, C, lambda d: g * d.inverse()
    return sum(1 for x in iter_class(source, limit=limit) if _in_class(cofactor(x), target))


def brute_contains(C: ClassLabel, D: ClassLabel, g: Permutation, *, limit: int = ORACLE_LIMIT) -> bool:
    """Whether g is in the product set CD (early-exit scan)."""
    _check_limit(C.n, limit)
    return any(_in_class(c.inverse() * g, D) for c in iter_class(C, limit=limit))


def brute_product_labels(
    C: ClassLabel, D: ClassLabel, *, limit: int = ORACLE_LIMIT
) -> set[ClassLabel]:
    """Exact set of classes represented in CD."""
    from ancover.permutations import an_class_labels, class_representative

    _check_limit(C.n, limit)
    out: set[ClassLabel] = set()
    for E in an_class_labels(C.n):
        if brute_contains(C, D, class_representative(E), limit=limit):
            out.add(E)
    return out


def brute_an_conjugate(
    x: Permutation, y: Permutation, *, limit: int = ORACLE_LIMIT
) -> bool:
    """Whether some even permutation conjugates x to y.

    Full enumeration for n <= 7; for larger n, one aligning conjugator is
    built cycle by cycle and, when it is odd, a parity adjustment is
    sought in the centralizer of x (possible unless the type has distinct
    odd parts).
    """
    n = x.n
    if y.n != n:
        raise ValueError("degree mismatch")
    _check_limit(n, limit)
    if cycle_type(x) != cycle_type(y):
        return False
    if n <= 7:
        return any((s * x) * s.inverse() == y for s in all_even_permutations(n))
    t = cycle_type(x)
    word_x = list(itertools.chain(*x.cycles(include_fixed=True)))
    word_y = list(itertools.chain(*y.cycles(include_fixed=True)))
    images = [0] * n
    for a, b in zip(word_x, word_y):
        images[a - 1] = b
    s = Permutation(images)
    if s.is_even():
        return True
    if not splits_in_an(t):
        # The centralizer of x contains an odd element: an even-length
        # cycle of x, or the block swap of two equal odd-length cycles.
        return True
    return False
