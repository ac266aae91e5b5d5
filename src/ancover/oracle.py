"""Brute-force ground truth at small n.

Everything here works by enumeration of actual permutations, independent
of the character machinery and of the A_n class labelling in
:mod:`ancover.permutations`, and exists to validate them.  Internally a
permutation is its plain list of images, and the split sign of a class is
one cycle walk of the oracle's own, read from the definition of the ``+``
class.  Validated :class:`Permutation` objects are built only where a
public function returns them.

One backtracking search, :func:`_search`, enumerates the permutations
of a cycle type and hands each to a leaf callback, which can stop it.
One step routine sets every value, a cycle's close included, and keeps
the choices as a linked list, so a node costs no scan of all n points.
Given the cycles of a fixed element x, the search explores one point
per orbit of the placed points' stabiliser in x's centralizer, each leaf
weighing its even and odd conjugates.  In a pair search each step also
extends the third factor's partial cycles, dropping the branch as soon
as they can no longer form the target type: a cycle closed with no part
of its length left, a chain longer than every unused part, or two
chains joined when there are no more open chains than unused parts (a
join takes one chain away for good, and a leaf needs the two counts
equal).

Both counts rest on the class equation: the pairs (c, d) in C x D with
c d in E can be counted with any one element of C, D or E fixed.  Whole
products C D come from one pass over the smaller class, each product
with one fixed element of the other class binned by its own walk
(:func:`brute_product_counts`).  Single pair counts
(:func:`brute_frobenius`) fix an element of whichever of C, D and the
class E of g has the smallest cycle type, the largest centralizer, run
the search over the smaller of the other two and build the third factor
alongside, so the cost follows the orbits of branches that can still
succeed rather than the size of the enumerated class.  Class sizes come
from the oracle's own centralizer formula.  Counts materialize and cache
nothing but their bins.

The oracle counts; it does not decide whether two given permutations are
A_n-conjugate.  The tests check the class labelling against a separate
definition-level reference, the orbit of a permutation under conjugation
by the 3-cycles (1,2,k), which generate A_n (``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from ancover.combinatorics import LimitExceeded, Partition, VerificationFailed
from ancover.permutations import ClassLabel, Permutation, an_class_labels

ORACLE_LIMIT = 9

Cofactor = tuple[Sequence[int], Sequence[int], Sequence[int]]

# leaf(p, q, word, even, odd) -> whether to stop (None: go on); see _search.
Leaf = Callable[[list[int], list[int] | None, list[int], int, int], bool | None]


def _orbit_weight(length: int, m: int) -> tuple[int, int]:
    """(even, odd): the points of m untouched x-cycles of this length that
    an even and an odd h reach from the first one's first point, h a
    rotation of that cycle (odd by an odd step of an even length) and then
    a swap with the point's cycle (length transpositions).  Where an odd h
    also fixes that point, its subtree is its own odd conjugate, and any
    split of the orbit counts alike."""
    if length % 2:
        return length, (m - 1) * length
    return length // 2 + (m - 1) * length, length // 2


def _search(
    parts: Sequence[int],
    n: int,
    leaf: Leaf,
    cofactor: Cofactor | None = None,
    cycles: list[list[int]] | None = None,
) -> bool:
    """Call leaf(p, q, word, even, odd) for the permutations p of {1..n}
    with cycle lengths parts; stop as soon as a call returns a true value,
    and return whether one did.

    p is built one value at a time.  ``next_cycle`` leads the next cycle,
    of one of p's unused lengths, with the first free point, or calls the
    leaf when none is left.  ``place`` sets the cycle's values in order:
    p(a) = b for a free b while points are to come, so no permutation is
    reached twice, then p(a) = lead, its one choice, closing the cycle.
    The choices are a doubly linked list (``nxt``/``prv`` over 0..n,
    headed by 0), each unlinked while the search goes below it.
    Without cycles the list holds every free point, and each p is a leaf
    of weight (1, 0).  With the cycles of a permutation x, it holds the
    free points of the touched x-cycles, those with a placed point, and
    the first point of each length's first untouched cycle, whose placing
    links in the rest of its cycle and the next such first point: one
    point per orbit of the h in x's centralizer that fix every placed
    point, as they fix each touched cycle pointwise and permute the
    untouched ones of each length at will.  Conjugation by h maps the
    leaves below p(a) = b onto those below p(a) = h(b) (q onto h q h^-1
    when u and v are powers of x), flipping every split sign when h is
    odd, so a leaf weighs the product of its choices' :func:`_orbit_weight`
    as parity pairs: even for its conjugates with its split signs, odd
    for those with every one flipped.

    The leaf gets the search's own lists, live, indexed from 1; one that
    keeps p must copy it.  p holds the images.  word holds the points of
    p's cycles, each from its lead, longest cycle first, the cycle of
    length L after the slots of every longer part.  When the parts are
    distinct, as they are whenever the type splits, word is the word of
    :func:`_sign_matches`.

    Without a cofactor, q is None.  With cofactor (u, v, target), u and v
    indexed from 1, each value p(a) = b, a close included, also fixes
    q(u[b]) = v[a] in ``place``'s one step, so q = v p^-1 u^-1, its
    values are set one by one and every leaf has all of them.  The
    partial q is kept as chains: ``head`` maps the end of each chain to
    its start, ``tail`` the start to its end, and ``size`` the start to
    the number of points, all undone on backtrack.  A branch is dropped
    when the new value closes a q-cycle whose length has no unused part
    left in target, joins a chain longer than every unused part, or joins
    two chains while ``slack`` is 0.  ``slack`` is the number of open
    chains (a point with no q-value yet and no preimage is a chain of
    one) less the number of unused parts of target; it starts at
    n - len(target).  A new value either joins two chains, and slack
    falls by 1, or closes a chain into a cycle, using up one part, and
    slack stays.  A leaf has no open chain and, its closed cycles using
    up n points, no unused part, so slack 0; as slack never rises, a join
    at 0 reaches no leaf, and the one choice that can close is read off
    u^-1 (in a touched cycle, with cycles): one forced choice, like a
    cycle's close.  Only the leaves with q of exactly type target remain,
    in the order of the search without a cofactor.
    """
    p = [0] * (n + 1)
    q = None if cofactor is None else [0] * (n + 1)
    word = [0] * (n + 1)
    todo = [0] * (n + 1)
    for x in parts:
        todo[x] += 1
    kinds = sorted(set(parts), reverse=True)
    first_slot = [0] * (n + 1)
    for x in kinds:
        first_slot[x] = 1 + sum(y for y in parts if y > x)
    # The first point of each x-cycle has its orbit weight and the ends of
    # the block it opens, linked in order once and for all.
    nxt, prv = [0] * (n + 1), [0] * (n + 1)
    weight: list[tuple[int, int] | None] = [None] * (n + 1)
    ends: list[tuple[int, int] | None] = [None] * (n + 1)
    for i, cycle in enumerate(cycles or ()):
        later = [c[0] for c in cycles[i + 1 :] if len(c) == len(cycle)]
        block = cycle[1:] + later[:1]
        weight[cycle[0]] = _orbit_weight(len(cycle), 1 + len(later))
        ends[cycle[0]] = (block[0], block[-1]) if block else None
        for y, z in zip(block, block[1:]):
            nxt[y], prv[z] = z, y
    # The first choices: every point, or each length's first cycle's first.
    firsts = {len(c): c[0] for c in reversed(cycles)}.values() if cycles else range(1, n + 1)
    chain = [0, *firsts]
    for y, z in zip(chain, chain[1:] + [0]):
        nxt[y], prv[z] = z, y
    pair = cofactor is not None
    if pair:
        u, v, target = cofactor
        u_inv = sorted(range(n + 1), key=u.__getitem__)
        head = list(range(n + 1))
        tail = list(range(n + 1))
        size = [1] * (n + 1)
        left = [0] * (n + 1)
        for x in target:
            left[x] += 1
        top = max(target)
        # Open q-chains (n single points at first) minus unused target parts.
        slack = n - len(target)

    def place(lead: int, a: int, k: int, slot: int, even: int, odd: int) -> bool:
        # Set p(a) in the cycle led by lead: a free point, written to
        # word[slot], with k - 1 more to come, or at k = 0 the lead, which
        # closes the cycle; even and odd weigh the branch.
        nonlocal top, slack
        if pair:
            # q(u[b]) = y for every choice b.  y has no preimage under q
            # yet, so it starts a chain, which the loop leaves as it was.
            y = v[a]
            e = tail[y]
            sy = size[y]
            # A join lowers slack, which a leaf needs at 0.
            cap = top if slack else 0
        after, last = nxt[0], False
        if not k:
            after, last = lead, True
        elif pair and not slack:
            # Only q(e) = y can pass: b = u^-1(e) if free (nxt[prv[b]] == b).
            b = u_inv[e]
            after, last = (b if nxt[prv[b]] == b else 0), True
        # The choice after b is read first, so that a cut can just continue.
        while after:
            b = after
            after = 0 if last else nxt[b]
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
            if not k:
                if next_cycle(even, odd):
                    return True
            else:
                word[slot] = b
                c, d = prv[b], nxt[b]
                nxt[c], prv[d] = d, c
                ev, od = even, odd
                w = weight[b]
                if w:
                    ev, od = even * w[0] + odd * w[1], even * w[1] + odd * w[0]
                    if ends[b]:
                        f, l = ends[b]
                        nxt[c], prv[f], nxt[l], prv[d] = f, c, d, l
                if place(lead, b, k - 1, slot + 1, ev, od):
                    return True
                nxt[c] = prv[d] = b
            if pair:
                if closed:
                    left[closed] += 1
                    top = was_top
                else:
                    tail[s], head[e], size[s] = x, y, joined - sy
                    slack += 1
        return False

    def next_cycle(even: int, odd: int) -> bool:
        # Lead the next cycle with the first free point, or hand p, now
        # whole, to the leaf.
        lead = nxt[0]
        if not lead:
            return bool(leaf(p, q, word, even, odd))
        d = nxt[lead]
        nxt[0], prv[d] = d, 0
        if ends[lead]:
            f, l = ends[lead]
            nxt[0], prv[f], nxt[l], prv[d] = f, 0, d, l
        for length in kinds:
            if todo[length]:
                todo[length] -= 1
                slot = first_slot[length]
                word[slot] = lead
                if place(lead, lead, length - 1, slot + 1, even, odd):
                    return True
                todo[length] += 1
        nxt[0] = prv[d] = lead
        return False

    return next_cycle(1, 0)


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


def _cofactor_sign(q: Sequence[int], inverted: bool) -> str:
    """The split sign of the permutation with images q[1..n], of a split
    type, or of its inverse when inverted: one walk of q gives its cycles,
    each read backwards a cycle of q^-1, and their word, longest first,
    gives the sign.  The type is not checked."""
    cycles = _cycles(q[1:])
    if inverted:
        cycles = [cycle[::-1] for cycle in cycles]
    return _split_sign(cycles)


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
    So the search fixes one element of the class of the smallest S_n type
    among C, D, E (E on a tie, then C), whose centralizer has the most
    orbits to fold, and enumerates the smaller of the other two (see
    :func:`_fixed_count`).
    """
    _check_degrees(C, D, g)
    E = _class_of(g.images)
    if E is None:
        return 0
    triple = (C, D, E)
    types = [_type_size(X.cycle_type.parts) for X in triple]
    fixed = min((2, 0, 1), key=types.__getitem__)
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
    enumerates triple[enumerated] by the cycles of one element x of
    triple[fixed] (g itself for E, else the :func:`_representative`).

    Each p determines the element of the third class by c d = e, and the
    search builds q = v p^-1 u^-1 alongside (see :func:`_search`): that
    element when g is fixed, its inverse when x is in C or D (the rows
    below).  Inversion keeps the cycle type, so the cuts are the same,
    but the split sign is read from q^-1, whose class can be the other
    one.  Dropping a branch loses no pair: values are only ever added, so
    a closed cycle of q stays closed and an open chain only grows, and
    the unused parts of the target type only shrink.  The cuts give every
    leaf's q the third class's type.  p's split sign is read from the
    search's word, the third element's from one walk of q; a leaf adds its
    even weight when every split sign passes and its odd weight when all
    fail.  With F the fixed class the count is |F| * weighted leaves /
    |E|; a remainder raises :class:`VerificationFailed`.
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
    p_sign, q_sign = P.sign, Q.sign
    inverted = fixed != 2
    count = 0

    def leaf(p: list[int], q: list[int], word: list[int], even: int, odd: int) -> None:
        nonlocal count
        passes = {_sign_matches(word, p_sign)} if p_sign else set()
        if q_sign:
            passes.add(_cofactor_sign(q, inverted) == q_sign)
        count += (False not in passes) * even + (True not in passes) * odd

    _search(P.cycle_type.parts, n, leaf, (u, v, Q.cycle_type.parts), _cycles(x[1:]))
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
    are conjugate.  So one search over P, with r's cycles, bins every E at
    once: each p r is classified by one walk, its split sign read from its
    cycles' word, and takes p's even weight, and the other sign of a split
    type its odd weight (of a split P, only the weight of p's own class).
    A bin whose |Q| * count is not a multiple of |E| raises
    :class:`VerificationFailed`.
    """
    _check_degrees(C, D)
    P, Q = (C, D) if _size(C) <= _size(D) else (D, C)
    r, p_sign = _representative(Q), P.sign
    out = dict.fromkeys(an_class_labels(C.n), 0)
    split = {E.cycle_type.parts for E in out if E.sign}
    bins: dict[tuple[tuple[int, ...], bool], int] = {}

    def leaf(p: list[int], q: None, word: list[int], even: int, odd: int) -> None:
        if p_sign:
            even, odd = (even, 0) if _sign_matches(word, p_sign) else (0, odd)
        cycles = _cycles([p[y] for y in r])
        parts = _lengths(cycles)
        splits = parts in split
        plus = splits and _split_sign(cycles) == "+"
        for key, count in ((parts, plus), even), ((parts, plus != splits), odd):
            bins[key] = bins.get(key, 0) + count

    _search(P.cycle_type.parts, C.n, leaf, None, _cycles(r))
    label = {(E.cycle_type.parts, E.sign == "+"): E for E in out}
    for key, count in bins.items():
        E = label[key]
        out[E], rest = divmod(_size(Q) * count, _size(E))
        if rest:
            raise VerificationFailed(f"|{Q}| * {count} is not a multiple of |{E}|")
    return out

