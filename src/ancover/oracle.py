"""Brute-force ground truth at small n.

Everything here works by enumeration of actual permutations, independent
of the character machinery and of the A_n class labelling in
:mod:`ancover.permutations`, and exists to validate them.  Internally a
permutation is its plain tuple of images, and class membership is one
cycle walk of the oracle's own, read from the definition of the ``+``
class.  Validated :class:`Permutation` objects are built only where a
public function returns them.

One backtracking search, :func:`_search`, enumerates every permutation
of a cycle type.  Classes are that search with a sign test at each leaf.
Pair counts run it over the smaller factor class and build the cofactor
alongside, dropping a branch as soon as the cofactor's partial cycles
leave the target type, so the cost follows the branches that can still
succeed rather than the size of the smaller class.  Nothing is
materialized or cached, so the ceiling of n = 9 stays cheap on memory.
The one exception to full enumeration is :func:`brute_an_conjugate`
above n = 7 (see there).
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

Cofactor = tuple[Sequence[int], Sequence[int], Sequence[int]]


def _check_limit(n: int, limit: int) -> None:
    if n > limit:
        raise LimitExceeded(f"n = {n} exceeds the oracle limit {limit}")


def _search(
    parts: Sequence[int], n: int, cofactor: Cofactor | None = None
) -> Iterator[tuple[Images, Images | None]]:
    """Yield (p, q) for every permutation p of {1..n} with cycle lengths
    parts, as image tuples, once each.

    p is built one value at a time: the least unused point leads the next
    cycle, whose length is one of p's unused parts, and the cycle's other
    points follow in increasing order of choice, so each permutation is
    reached by exactly one branch.  Without a cofactor, q is None.

    With cofactor (u, v, target), u and v indexed from 1, each value
    p(a) = b also fixes q(u[b]) = v[a], so the values of q are set one by
    one and every leaf has all of them.  The partial q is kept as chains:
    ``head`` maps the end of each chain to its start, ``tail`` the start
    to its end, and ``size`` the start to the number of points, all undone
    on backtrack.
    A branch is dropped when the new value closes a q-cycle whose length
    has no unused part left in target, or joins a chain longer than every
    unused part.  Only the leaves with q of exactly type target remain.
    """
    p = [0] * (n + 1)
    q = [0] * (n + 1)
    free = [True] * (n + 1)
    todo = [0] * (n + 1)
    for x in parts:
        todo[x] += 1
    kinds = sorted(set(parts), reverse=True)
    if cofactor is not None:
        u, v, target = cofactor
        head = list(range(n + 1))
        tail = list(range(n + 1))
        size = [1] * (n + 1)
        left = [0] * (n + 1)
        for x in target:
            left[x] += 1
        top = max(target)

    def place(lead: int, a: int, k: int) -> Iterator[tuple[Images, Images | None]]:
        # Choose p(a): a further point of the cycle led by lead while
        # k > 0 are still to come, else lead itself, closing the cycle.
        nonlocal top
        choices = [b for b in range(lead + 1, n + 1) if free[b]] if k else (lead,)
        for b in choices:
            p[a] = b
            if cofactor is not None:
                x, y = u[b], v[a]
                s = head[x]
                if s == y:
                    closed = size[y]
                    if not left[closed]:
                        continue
                    left[closed] -= 1
                    was_top = top
                    while top and not left[top]:
                        top -= 1
                else:
                    closed = 0
                    e = tail[y]
                    joined = size[s] + size[y]
                    if joined > top:
                        continue
                    tail[s], head[e], size[s] = e, s, joined
                q[x] = y
            if k:
                free[b] = False
                yield from place(lead, b, k - 1)
                free[b] = True
            else:
                yield from new_cycle(lead + 1)
            if cofactor is not None:
                if closed:
                    left[closed] += 1
                    top = was_top
                else:
                    tail[s], head[e], size[s] = x, y, joined - size[y]

    def new_cycle(lead: int) -> Iterator[tuple[Images, Images | None]]:
        while lead <= n and not free[lead]:
            lead += 1
        if lead > n:
            yield tuple(p[1:]), None if cofactor is None else tuple(q[1:])
            return
        free[lead] = False
        for length in kinds:
            if todo[length]:
                todo[length] -= 1
                yield from place(lead, lead, length - 1)
                todo[length] += 1
        free[lead] = True

    return new_cycle(1)


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


def _inverse(p: Sequence[int]) -> list[int]:
    inv = [0] * len(p)
    for i, y in enumerate(p, 1):
        inv[y - 1] = i
    return inv


def _in_class(h: Sequence[int], label: ClassLabel) -> bool:
    """Whether h, known to be of label's cycle type, has label's sign."""
    return label.sign is None or _member(h, label.cycle_type.parts, label.sign)


def permutations_of_type(mu: Partition) -> Iterator[Permutation]:
    """Stream all permutations of {1..n} with cycle type mu, no duplicates."""
    return (Permutation(p) for p, _ in _search(mu.parts, mu.n))


def iter_class(label: ClassLabel) -> Iterator[Permutation]:
    """Stream the elements of the labelled A_n class."""
    _check_limit(label.n, ORACLE_LIMIT)
    return (
        Permutation(p)
        for p, _ in _search(label.cycle_type.parts, label.n)
        if _in_class(p, label)
    )


def _factorizations(C: ClassLabel, D: ClassLabel, g: Permutation) -> Iterator[None]:
    """Yield once for each (c, d) in C x D with c d = g.

    The search enumerates p in the smaller of C, D and builds its
    cofactor q alongside: q = p^-1 g, so q(g^-1(b)) = a, when p is in C;
    q = g p^-1, so q(b) = g(a), when p is in D.  Leaves have both cycle
    types right, and the split signs of both factors are then tested.
    """
    n = C.n
    if D.n != n or g.n != n:
        raise ValueError("degree mismatch")
    _check_limit(n, ORACLE_LIMIT)
    same = range(n + 1)
    if an_class_size(C) <= an_class_size(D):
        P, Q = C, D
        cofactor = ([0, *_inverse(g.images)], same, Q.cycle_type.parts)
    else:
        P, Q = D, C
        cofactor = (same, (0, *g.images), Q.cycle_type.parts)
    return (
        None
        for p, q in _search(P.cycle_type.parts, n, cofactor)
        if _in_class(p, P) and _in_class(q, Q)
    )


def brute_frobenius(C: ClassLabel, D: ClassLabel, g: Permutation) -> int:
    """|{(c, d) in C x D : c d = g}| by an exhaustive pruned search.

    c determines d = c^-1 g and vice versa, so the search enumerates the
    smaller class and builds the cofactor value by value (see
    :func:`_search`).  Dropping a branch loses no pair: values are only
    ever added, so a closed cofactor cycle stays closed and an open chain
    only grows, and the unused parts of the target type only shrink.  A
    closed cycle whose length has no unused part, or a chain longer than
    every unused part, therefore stays impossible in every completion.
    Each remaining leaf is one candidate pair with both cycle types
    right, counted once both split signs pass.
    """
    return sum(1 for _ in _factorizations(C, D, g))


def brute_contains(C: ClassLabel, D: ClassLabel, g: Permutation) -> bool:
    """Whether g is in the product set CD (stops at the first pair)."""
    return any(True for _ in _factorizations(C, D, g))


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
