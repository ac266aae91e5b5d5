"""Brute-force ground truth at small n.

Everything here works by enumeration of actual permutations, independent
of the character machinery and of the A_n class labelling in
:mod:`ancover.permutations`, and exists to validate them.  Internally a
permutation is its plain tuple of images: classes are streamed as such
tuples, products are tuple comprehensions, and class membership is one
cycle walk of the oracle's own, read from the definition of the ``+``
class.  Validated :class:`Permutation` objects are built only where a
public function returns them.  Nothing is materialized or cached, so the
ceiling of n = 9 stays cheap on memory.  The one exception to full
enumeration is :func:`brute_an_conjugate` above n = 7 (see there).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from ancover.combinatorics import LimitExceeded, Partition
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_size,
    splits_in_an,
)

ORACLE_LIMIT = 9

Images = tuple[int, ...]


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the oracle limit {limit}")


def _images_of_type(parts: Sequence[int], n: int) -> Iterator[Images]:
    """Stream the image tuples of all permutations of {1..n} whose cycle
    lengths are parts (weakly decreasing), with no duplicates.

    One images list is filled in place.  The smallest unplaced point
    always leads the next cycle, so each permutation appears exactly once,
    and every branch writes whole cycles, so each tuple is a bijection.
    """
    images = list(range(1, n + 1))

    def rec(free: list[int], lengths: list[int]) -> Iterator[Images]:
        if not lengths or lengths[0] == 1:
            # Only fixed points remain; they map to themselves.
            for x in free:
                images[x - 1] = x
            yield tuple(images)
            return
        lead, rest = free[0], free[1:]
        for length in sorted(set(lengths), reverse=True):
            remaining = list(lengths)
            remaining.remove(length)
            for tail in itertools.permutations(rest, length - 1):
                a = lead
                for b in tail:
                    images[a - 1] = b
                    a = b
                images[a - 1] = lead
                yield from rec([x for x in rest if x not in tail], remaining)

    yield from rec(list(range(1, n + 1)), list(parts))


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """Every cycle of the permutation with these images, fixed points
    included, each from its least point."""
    seen = [False] * (len(images) + 1)
    out: list[list[int]] = []
    for start in range(1, len(images) + 1):
        if seen[start]:
            continue
        cyc = [start]
        x = images[start - 1]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = images[x - 1]
        out.append(cyc)
    return out


def _lengths(cycles: list[list[int]]) -> tuple[int, ...]:
    return tuple(sorted(map(len, cycles), reverse=True))


def _member(h: Sequence[int], parts: tuple[int, ...], sign: str | None) -> bool:
    """Whether the permutation with images h lies in the A_n class of
    cycle type parts and the given sign (None for a non-split type).

    The "+" class of a split type holds the consecutive-fill representative
    r (longest cycle first), so h is in it iff an even permutation
    conjugates r to h.  The word of h's cycles, longest first, read as a
    list of images is one such conjugator; any other differs from it by an
    element of r's centralizer, a product of cycles of odd length, so all
    have the parity of that word.
    """
    cycles = _cycles(h)
    if _lengths(cycles) != parts:
        return False
    if sign is None:
        return True
    cycles.sort(key=len, reverse=True)
    word = [x for cyc in cycles for x in cyc]
    even = (len(word) - len(_cycles(word))) % 2 == 0
    return even == (sign == "+")


def _class_images(label: ClassLabel) -> Iterator[Images]:
    """The image tuples of the elements of the labelled A_n class."""
    _check_limit(label.n, ORACLE_LIMIT)
    parts = label.cycle_type.parts
    stream = _images_of_type(parts, label.n)
    if label.sign is None:
        return stream
    return (h for h in stream if _member(h, parts, label.sign))


def _inverse(p: Sequence[int]) -> list[int]:
    inv = [0] * len(p)
    for i, y in enumerate(p, 1):
        inv[y - 1] = i
    return inv


def permutations_of_type(mu: Partition) -> Iterator[Permutation]:
    """Stream all permutations of {1..n} with cycle type mu, no duplicates."""
    return map(Permutation, _images_of_type(mu.parts, mu.n))


def iter_class(label: ClassLabel) -> Iterator[Permutation]:
    """Stream the elements of the labelled A_n class."""
    return map(Permutation, _class_images(label))


def brute_frobenius(C: ClassLabel, D: ClassLabel, g: Permutation) -> int:
    """|{(c, d) in C x D : c d = g}| by direct enumeration.

    Enumerates whichever of C, D is smaller: c determines d = c^-1 g and
    vice versa.
    """
    n = C.n
    if D.n != n or g.n != n:
        raise ValueError("degree mismatch")
    gi = g.images
    if an_class_size(C) <= an_class_size(D):
        target = D
        cofactors = (
            tuple(ci[y - 1] for y in gi)
            for ci in map(_inverse, _class_images(C))
        )
    else:
        target = C
        cofactors = (
            tuple(gi[x - 1] for x in di)
            for di in map(_inverse, _class_images(D))
        )
    parts, sign = target.cycle_type.parts, target.sign
    return sum(1 for h in cofactors if _member(h, parts, sign))


def brute_contains(C: ClassLabel, D: ClassLabel, g: Permutation) -> bool:
    """Whether g is in the product set CD (early-exit scan)."""
    if D.n != C.n or g.n != C.n:
        raise ValueError("degree mismatch")
    gi = g.images
    parts, sign = D.cycle_type.parts, D.sign
    return any(
        _member(tuple(ci[y - 1] for y in gi), parts, sign)
        for ci in map(_inverse, _class_images(C))
    )


def brute_product_labels(C: ClassLabel, D: ClassLabel) -> set[ClassLabel]:
    """Exact set of classes represented in CD."""
    from ancover.permutations import an_class_labels, class_representative

    _check_limit(C.n, ORACLE_LIMIT)
    out: set[ClassLabel] = set()
    for E in an_class_labels(C.n):
        if brute_contains(C, D, class_representative(E)):
            out.add(E)
    return out


def brute_an_conjugate(
    x: Permutation, y: Permutation, *, limit: int = ORACLE_LIMIT
) -> bool:
    """Whether some even permutation conjugates x to y.

    Full enumeration for n <= 7: an even s with s x = y s, compared on
    image tuples.  For larger n, one aligning conjugator is built cycle by
    cycle and, when it is odd, a parity adjustment is sought in the
    centralizer of x (possible unless the type has distinct odd parts).
    """
    n = x.n
    if y.n != n:
        raise ValueError("degree mismatch")
    _check_limit(n, limit)
    t = _lengths(_cycles(x.images))
    if t != _lengths(_cycles(y.images)):
        return False
    if n <= 7:
        xi, yi = x.images, y.images
        return any(
            all(s[a - 1] == yi[b - 1] for a, b in zip(xi, s))
            and (n - len(_cycles(s))) % 2 == 0
            for s in itertools.permutations(range(1, n + 1))
        )
    word_x = list(itertools.chain(*x.cycles(include_fixed=True)))
    word_y = list(itertools.chain(*y.cycles(include_fixed=True)))
    images = [0] * n
    for a, b in zip(word_x, word_y):
        images[a - 1] = b
    s = Permutation(images)
    if s.is_even():
        return True
    if not splits_in_an(Partition(t)):
        # The centralizer of x contains an odd element: an even-length
        # cycle of x, or the block swap of two equal odd-length cycles.
        return True
    return False
