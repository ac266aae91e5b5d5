"""Brute-force ground truth at small n.

Everything here works by enumeration of actual permutations, independent
of the character machinery and of the A_n class labelling in
:mod:`ancover.permutations`, and exists to validate them.  Internally a
permutation is its plain list of images, and the split sign of a class is
one cycle walk of the oracle's own, read from the definition of the ``+``
class.  Validated :class:`Permutation` objects are built only where a
public function returns them.

One backtracking search, :func:`_search`, enumerates every permutation
of a cycle type and hands each to a leaf callback, which can stop it.
It keeps the unused points as a linked list, so a node costs no scan of
all n points, and in a pair search it also tracks the third factor's
partial cycles, dropping a branch as soon as they can no longer form the
target type: a cycle closed with no part of its length left, a chain
longer than every unused part, or two chains joined when there are no
more open chains than unused parts (a join takes one chain away for
good, and a leaf needs the two counts equal).

Both counts rest on the class equation: the pairs (c, d) in C x D with
c d in E can be counted with any one element of C, D or E fixed.  Whole
products C D come from one pass over the smaller class, each product
with one fixed element of the other class binned by its own walk
(:func:`brute_product_counts`).  Single pair counts
(:func:`brute_frobenius`) fix an element of whichever of C, D and the
class E of g has the largest cycle type, run the search over the smaller
of the other two and build the third factor alongside, dropping a branch
as soon as its partial cycles leave the target type, so the cost follows
the branches that can still succeed rather than the size of the
enumerated class.  Class sizes come from the oracle's own centralizer
formula.  Counts materialize and cache nothing but their bins.

The oracle counts; it does not decide whether two given permutations are
A_n-conjugate.  The tests check the class labelling against a separate
definition-level reference, the orbit of a permutation under conjugation
by the 3-cycles (1,2,k), which generate A_n (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from ancover.combinatorics import LimitExceeded, Partition
from ancover.constructor import VerificationFailed
from ancover.permutations import ClassLabel, Permutation, an_class_labels

ORACLE_LIMIT = 9

Cofactor = tuple[Sequence[int], Sequence[int], Sequence[int]]

# leaf(p, q, word) -> whether to stop (None: go on); see _search.
Leaf = Callable[[list[int], list[int] | None, list[int]], bool | None]


def _search(
    parts: Sequence[int], n: int, leaf: Leaf, cofactor: Cofactor | None = None
) -> bool:
    """Call leaf(p, q, word) once for every permutation p of {1..n} with
    cycle lengths parts; stop as soon as a call returns a true value, and
    return whether one did.

    p is built one value at a time: the least unused point leads the next
    cycle, whose length is one of p's unused parts, and the cycle's other
    points follow in increasing order of choice, so each permutation is
    reached by exactly one branch.  The unused points are a doubly linked
    list in increasing order (``nxt``/``prv`` over 0..n, headed by 0):
    the lead is the least of them, so the choices for the other points of
    its cycle are exactly the list, walked in order, each unlinked while
    the search goes below it and linked back after; the next lead is
    ``nxt[0]``.  The leaf gets the search's own lists,
    live, indexed from 1 (entry 0 is unused); one that keeps p must copy
    it.  p holds the images.  word holds the points of p's cycles, each
    from its least point, longest cycle first: the search writes each
    placed point into its slot, the cycle of length L after the slots of
    every longer part.  When the parts are distinct, as they are whenever
    the type splits, word is the word of :func:`_sign_matches`.

    Without a cofactor, q is None.  With cofactor (u, v, target), u and v
    indexed from 1, each value p(a) = b also fixes q(u[b]) = v[a], so
    q = v p^-1 u^-1, its values are set one by one and every leaf has all
    of them.  The partial q is kept as chains: ``head`` maps the end of
    each chain to its start, ``tail`` the start to its end, and ``size``
    the start to the number of points, all undone on backtrack.
    A branch is dropped when the new value closes a q-cycle whose length
    has no unused part left in target, joins a chain longer than every
    unused part, or joins two chains while ``slack`` is 0.  ``slack`` is
    the number of open chains (a point with no q-value yet and no
    preimage is a chain of one) less the number of unused parts of
    target; it starts at n - len(target).  A new value either joins two
    chains, and slack falls by 1, or closes a chain into a cycle, using
    up one part, and slack stays.  A leaf has no open chain and, its
    closed cycles using up n points, no unused part, so slack 0; as slack
    never rises, a join at 0 reaches no leaf.  Only the leaves with q of
    exactly type target remain, in the order of the search without a
    cofactor.
    """
    p = [0] * (n + 1)
    q = None if cofactor is None else [0] * (n + 1)
    word = [0] * (n + 1)
    # The free points, a circular doubly linked list headed by 0 in
    # increasing order: nxt[0] is the least, and nxt of the last is 0.
    nxt = [*range(1, n + 1), 0]
    prv = [n, *range(n)]
    todo = [0] * (n + 1)
    for x in parts:
        todo[x] += 1
    kinds = sorted(set(parts), reverse=True)
    first_slot = [0] * (n + 1)
    for x in kinds:
        first_slot[x] = 1 + sum(y for y in parts if y > x)
    pair = cofactor is not None
    if pair:
        u, v, target = cofactor
        head = list(range(n + 1))
        tail = list(range(n + 1))
        size = [1] * (n + 1)
        left = [0] * (n + 1)
        for x in target:
            left[x] += 1
        top = max(target)
        # Open q-chains (n single points at first) minus unused target parts.
        slack = n - len(target)

    def place(lead: int, a: int, k: int, slot: int) -> bool:
        # Choose p(a): a further point of the cycle led by lead, written to
        # word[slot], while k > 0 are still to come, else lead itself,
        # closing the cycle.
        nonlocal top, slack
        if pair:
            # q(u[b]) = y for every choice b.  y has no preimage under q
            # yet, so it starts a chain, which the loop leaves as it was.
            y = v[a]
            e = tail[y]
            sy = size[y]
            # A join lowers slack, which a leaf needs at 0.
            cap = top if slack else 0
        # The choice after b is read first, so that a cut can just continue.
        after = nxt[0] if k else lead
        while after:
            b = after
            after = nxt[b] if k else 0
            if pair:
                x = u[b]
                s = head[x]
                if s == y:
                    closed = sy
                    if not left[closed]:
                        continue
                    left[closed] -= 1
                    was_top = top
                    while top and not left[top]:
                        top -= 1
                else:
                    closed = 0
                    joined = size[s] + sy
                    if joined > cap:
                        continue
                    tail[s], head[e], size[s] = e, s, joined
                    slack -= 1
                q[x] = y
            p[a] = b
            if k:
                word[slot] = b
                c, d = prv[b], nxt[b]
                nxt[c], prv[d] = d, c
                if place(lead, b, k - 1, slot + 1):
                    return True
                nxt[c] = prv[d] = b
            elif new_cycle():
                return True
            if pair:
                if closed:
                    left[closed] += 1
                    top = was_top
                else:
                    tail[s], head[e], size[s] = x, y, joined - sy
                    slack += 1
        return False

    def new_cycle() -> bool:
        lead = nxt[0]
        if not lead:
            return bool(leaf(p, q, word))
        d = nxt[lead]
        nxt[0], prv[d] = d, 0
        for length in kinds:
            if todo[length]:
                todo[length] -= 1
                word[first_slot[length]] = lead
                if place(lead, lead, length - 1, first_slot[length] + 1):
                    return True
                todo[length] += 1
        nxt[0] = prv[d] = lead
        return False

    return new_cycle()


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


def _sign_matches(word: Sequence[int], sign: str | None) -> bool:
    """Whether a permutation h of a split type, given by word, lies in the
    A_n class of that type with this sign (True for sign None).

    word[1..n] lists the points of h's cycles, longest cycle first.  The
    "+" class of a split type holds the consecutive-fill representative r
    (longest cycle first), so h is in it iff an even permutation
    conjugates r to h.  word read as a list of images is one such
    conjugator; any other differs from it by an element of r's
    centralizer, a product of cycles of odd length, so all have the parity
    of word, which one walk of word gives.
    """
    if sign is None:
        return True
    n = len(word) - 1
    seen = [False] * (n + 1)
    cycles = 0
    for start in range(1, n + 1):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = word[x]
    return ((n - cycles) % 2 == 0) == (sign == "+")


def _split_sign(cycles: list[list[int]]) -> str:
    """The sign, "+" or "-", of the class of the permutation of a split
    type with these cycles: they are sorted longest first (in place, ties
    keeping their order) and chained into the word of :func:`_sign_matches`."""
    cycles.sort(key=len, reverse=True)
    return "+" if _sign_matches([0, *itertools.chain.from_iterable(cycles)], "+") else "-"


def _has_class(
    q: Sequence[int], parts: tuple[int, ...], sign: str | None, inverted: bool = False
) -> bool:
    """Whether the permutation with images q[1..n], or its inverse when
    inverted, has cycle lengths parts and lies in the class of that type
    with this sign: one walk of q gives its cycles, each read backwards a
    cycle of q^-1, and their word, longest first, gives the sign."""
    cycles = _cycles(q[1:])
    if _lengths(cycles) != parts:
        return False
    if inverted:
        cycles = [cycle[::-1] for cycle in cycles]
    return sign is None or _split_sign(cycles) == sign


def _inverse(p: Sequence[int]) -> list[int]:
    inv = [0] * len(p)
    for i, y in enumerate(p, 1):
        inv[y - 1] = i
    return inv


def _check_degrees(C: ClassLabel, *more) -> None:
    """Check that C and more have one degree, within the oracle limit."""
    if any(x.n != C.n for x in more):
        raise ValueError("degree mismatch")
    if C.n > ORACLE_LIMIT:
        raise LimitExceeded(f"n = {C.n} exceeds the oracle limit {ORACLE_LIMIT}")


def _type_size(parts: Sequence[int]) -> int:
    """The number of permutations with these cycle lengths: n! over the
    order of their S_n centralizer, the product of k^m m! over the parts
    k of multiplicity m."""
    z = 1
    for k in set(parts):
        m = parts.count(k)
        z *= k**m * math.factorial(m)
    return math.factorial(sum(parts)) // z


def _size(label: ClassLabel) -> int:
    """|label|: its S_n type, halved when the type splits into two
    classes of A_n (the label then has a sign)."""
    size = _type_size(label.cycle_type.parts)
    return size // 2 if label.sign else size


def _class_of(images: Sequence[int]) -> ClassLabel | None:
    """The A_n class of the permutation with these images by one walk, or
    None when it is odd.  Its S_n class splits when its centralizer lies
    in A_n, that is when no part is even and no two parts are equal (for
    n >= 2; S_1 = A_1), and the sign is then read as in
    :func:`_sign_matches`."""
    cycles = _cycles(images)
    n = len(images)
    if (n - len(cycles)) % 2:
        return None
    parts = _lengths(cycles)
    sign = None
    if n >= 2 and len(set(parts)) == len(parts) and all(k % 2 for k in parts):
        sign = _split_sign(cycles)
    return ClassLabel(Partition(parts), sign)


def _representative(label: ClassLabel) -> list[int]:
    """The images of one element of the labelled class, from the
    definition of the "+" class: the word 1..n cut into cycles, longest
    first, is the "+" element; for "-" the word has its first two points
    swapped, an odd relabelling (see :func:`_sign_matches`)."""
    word = list(range(1, label.n + 1))
    if label.sign == "-":
        word[:2] = 2, 1
    images, start = [0] * label.n, 0
    for length in label.cycle_type.parts:
        cycle = word[start : start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a - 1] = b
        start += length
    return images


def brute_frobenius(C: ClassLabel, D: ClassLabel, g: Permutation) -> int:
    """|{(c, d) in C x D : c d = g}| by an exhaustive pruned search.

    0 when g is odd, as C D lies in A_n.  Otherwise g lies in a class E,
    read by the oracle's own walk, and by the class equation
    |E| N = |C| #{d in D : c0 d in E} = |D| #{c in C : c d0 in E} for
    any c0 in C and d0 in D, while fixing g counts the N pairs directly.
    So the search fixes one element of the class of the largest S_n type
    among C, D, E (E on a tie, then C) and enumerates the smaller of the
    other two (see :func:`_fixed_count`).
    """
    _check_degrees(C, D, g)
    E = _class_of(g.images)
    if E is None:
        return 0
    triple = (C, D, E)
    types = [_type_size(X.cycle_type.parts) for X in triple]
    fixed = max((2, 0, 1), key=types.__getitem__)
    a, b = (i for i in (0, 1, 2) if i != fixed)
    enumerated = a if _size(triple[a]) <= _size(triple[b]) else b
    return _fixed_count(triple, g.images, fixed, enumerated)


def _fixed_count(
    triple: tuple[ClassLabel, ClassLabel, ClassLabel],
    g: Sequence[int],
    fixed: int,
    enumerated: int,
) -> int:
    """N(C, D, E) at g, an element of E, for triple (C, D, E): the search
    enumerates triple[enumerated] with one element x of triple[fixed]
    fixed (g itself for E, else the :func:`_representative`).

    Each p determines the element of the third class by c d = e, and the
    search builds q = v p^-1 u^-1 alongside (see :func:`_search`): that
    element when g is fixed, its inverse when x is in C or D (the rows
    below).  Inversion keeps the cycle type, so the cuts are the same,
    but the split sign is read from q^-1, whose class can be the other
    one.  Dropping a branch loses no pair: values are only ever added, so
    a closed cycle of q stays closed and an open chain only grows, and
    the unused parts of the target type only shrink.  A leaf counts when
    p's split sign, read from the search's word, and the third element's,
    read from one walk of q, both pass.  With F the fixed class the count
    is |F| * leaves / |E|; a remainder raises :class:`VerificationFailed`.
    """
    n = len(g)
    x = g if fixed == 2 else _representative(triple[fixed])
    x, x_inv, same = [0, *x], [0, *_inverse(x)], range(n + 1)
    u, v = {
        (2, 0): (x_inv, same),  # p = c: q = p^-1 g = d
        (2, 1): (same, x),  # p = d: q = g p^-1 = c
        (0, 1): (x, same),  # p = d: q = p^-1 c0^-1 = (c0 d)^-1 = e^-1
        (0, 2): (x_inv, same),  # p = e: q = p^-1 c0 = (c0^-1 e)^-1 = d^-1
        (1, 0): (same, x_inv),  # p = c: q = d0^-1 p^-1 = (c d0)^-1 = e^-1
        (1, 2): (same, x),  # p = e: q = d0 p^-1 = (e d0^-1)^-1 = c^-1
    }[fixed, enumerated]
    P, Q = triple[enumerated], triple[3 - fixed - enumerated]
    p_sign, q_sign, q_parts = P.sign, Q.sign, Q.cycle_type.parts
    inverted = fixed != 2
    count = 0

    def leaf(p: list[int], q: list[int], word: list[int]) -> None:
        nonlocal count
        if _sign_matches(word, p_sign) and (
            q_sign is None or _has_class(q, q_parts, q_sign, inverted)
        ):
            count += 1

    _search(P.cycle_type.parts, n, leaf, (u, v, q_parts))
    F, E = triple[fixed], triple[2]
    out, rest = divmod(_size(F) * count, _size(E))
    if rest:
        raise VerificationFailed(f"|{F}| * {count} is not a multiple of |{E}|")
    return out


def brute_product_counts(C: ClassLabel, D: ClassLabel) -> dict[ClassLabel, int]:
    """N(C, D, E), the pair count of :func:`brute_frobenius` at an element
    of E, for every A_n class E, from one pass over the smaller class.

    Let P be the smaller of C, D, Q the other and r one element of Q.  By
    the class equation |E| N(C, D, E) = |Q| #{p in P : p r in E}: both
    count the pairs whose product lies in E, conjugation by A_n moves the
    element of Q to r and fixes the classes of P and E, and p r and r p
    are conjugate.  So one search over P, with each p r classified by one
    walk and the split sign read from its cycles' word, bins every E at
    once.  A bin whose |Q| * count is not a multiple of |E| raises
    :class:`VerificationFailed`.
    """
    _check_degrees(C, D)
    P, Q = (C, D) if _size(C) <= _size(D) else (D, C)
    r, p_sign = _representative(Q), P.sign
    out = dict.fromkeys(an_class_labels(C.n), 0)
    split = {E.cycle_type.parts for E in out if E.sign}
    bins: dict[tuple[tuple[int, ...], bool], int] = {}

    def leaf(p: list[int], q: None, word: list[int]) -> None:
        if not _sign_matches(word, p_sign):
            return
        cycles = _cycles([p[y] for y in r])
        parts = _lengths(cycles)
        key = (parts, parts in split and _split_sign(cycles) == "+")
        bins[key] = bins.get(key, 0) + 1

    _search(P.cycle_type.parts, C.n, leaf)
    label = {(E.cycle_type.parts, E.sign == "+"): E for E in out}
    for key, count in bins.items():
        E = label[key]
        out[E], rest = divmod(_size(Q) * count, _size(E))
        if rest:
            raise VerificationFailed(f"|{Q}| * {count} is not a multiple of |{E}|")
    return out

