"""Independent small-n oracles used by the tests.

The S_n character oracle here never touches the Murnaghan-Nakayama code:
it counts fixed tabloids to get Young permutation-module characters and
peels irreducibles off by exact inner products.  Slow, simple, and good
up to n = 6 or so.

:func:`mn_cellwise` is the Murnaghan-Nakayama rule one cell at a time,
recursing over the first-column hook lengths (beta set) of lam.  It
shares no code with the column-wise rule of :mod:`ancover.characters`
and checks it on every cell up to n = 14.

:func:`kind_template_ok`, :func:`reference_phi` and :data:`SUBINTERVAL_LENGTH`
state the witness pipeline's eight piece kinds case by case: which parts
each kind admits, its shrunken shape and the length of the subinterval it
packs into.  The package derives all three from ``shrink_part`` and
``SHRUNKEN_SHAPE``; the tests check that the two statements agree.

:func:`lift_sign_maps` lifts the two split m-cycle representatives to
degree n explicitly, as :func:`~ancover.constructor.cover_with_ncycles`
lifts its factors, and reads the signs off with ``an_class_of``.  The
package gets them from a parity rule instead; a test checks the two.

:func:`permutations_of_type` and :func:`iter_class` enumerate a cycle
type or an A_n class with the search of :mod:`ancover.oracle`, reading
split signs from the word it fills, up to the oracle's limit of n = 9.

:func:`stream_frobenius` is the brute-force pair count as a plain scan:
it streams every element of the smaller class and tests each element and
its cofactor with :func:`_member`, a class test that walks each split
permutation twice.  :mod:`ancover.oracle` counts the same pairs by a
pruned search and reads split signs from the words its search holds; the
tests check the two on many triples.

:func:`reference_images`, :func:`reference_from_cycles`,
:func:`reference_walk` and :func:`reference_an_class_of` are the
permutation kernel as first written: a bijection check by sorting, a
point-by-point cycle check, and a walk that builds every cycle and is run
again in full for a parity.  The package validates with sets and counts
cycles without building them; the tests check that both accept, reject
and label the same inputs.

:func:`an_orbit` is the tests' one definition-level reference for
A_n-conjugacy: the orbit of a permutation under conjugation by the
3-cycles (1,2,k), which generate A_n, formed on explicit images.
:func:`orbit_classes` gives every class of A_n that way, each from the
oracle's definition-level representative.  They anchor the class
labelling (``test_an_class_agrees_with_brute_force`` and its sampled
variant in ``test_permutations.py``), reality
(``test_reality_matches_brute_force`` and acceptance criterion 4) and
the oracle's counts (``test_oracle_matches_definition_level_counts``
and ``test_every_orientation_matches_definition_level_counts`` in
``test_oracle.py``).

:func:`two_twos_deltas` is the 2,2 fallback's trial loop as first
written, with a Permutation built for every trial; the package forms each
trial as swaps on an image list, and a test checks that both pick the
same witnesses.

:func:`broken_orthogonality` checks the column and the row orthogonality
relations of a character table at definition level, from its
``AlgebraicValue`` cells with one Fraction sum per radicand.  The package
checks only the column relation, through its integer column-sum kernel,
and relies on it implying the row relation for a square table; the tests
check both against this reference on genuine and corrupted tables.

:func:`an_degree`, :func:`surd_le`, :func:`abs_value_le_surd`,
:func:`labels_of_type`, :func:`is_covered_by`, :func:`is_real_in_an`,
:func:`packing_cycle`, :func:`is_even` and :func:`E_fraction` are small
statements about degrees, surd bounds, coverage by a cycle type,
reality, packing words, parity and the exact E of an orbit-size profile;
only tests call them.

:func:`run_python` runs the interpreter in a subprocess on the package
the tests imported, wherever that lives.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from pathlib import Path
from typing import Iterator, Sequence

import ancover
from ancover.combinatorics import (
    LimitExceeded,
    Partition,
    SubpartitionKind,
    centralizer_order,
    enumerate_partitions,
)
from ancover.bounds import EProfile, surd_sign
from ancover.characters import (
    AlgebraicValue,
    CharacterTable,
    IrreducibleLabel,
    an_character_table,
    degree,
)
from ancover.classalgebra import frobenius_count
from ancover.constructor import PackingPlan, ValidSequence, packing_word
from ancover.oracle import (
    ORACLE_LIMIT,
    _cycles,
    _lengths,
    _representative,
    _search,
    _sign_matches,
)
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_labels,
    an_class_of,
    an_class_size,
    class_representative,
    cycle_type,
    kappa_of_type,
    splits_in_an,
)


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


def kind_template_ok(kind: SubpartitionKind, parts: tuple[int, ...]) -> bool:
    """Whether a piece with these parts is of this kind, case by case."""
    if kind == SubpartitionKind.SINGLE_FIXED_POINT:
        return parts == (1,)
    if kind == SubpartitionKind.THREE_WITH_FOUR_ONES:
        return parts == (3, 1, 1, 1, 1)
    if kind == SubpartitionKind.THREE_THREES:
        return parts == (3, 3, 3)
    if kind == SubpartitionKind.ODD_PART:
        return len(parts) == 1 and parts[0] >= 5 and parts[0] % 2 == 1
    if kind == SubpartitionKind.TWO_TWOS:
        return parts == (2, 2)
    if kind == SubpartitionKind.FOUR_TWOS:
        return parts == (2, 2, 2, 2)
    if kind == SubpartitionKind.TWO_WITH_EVEN:
        return (
            len(parts) == 2
            and parts[1] == 2
            and parts[0] >= 4
            and parts[0] % 2 == 0
        )
    if kind == SubpartitionKind.EVEN_PAIR:
        return (
            len(parts) == 2
            and parts[0] >= parts[1] >= 4
            and parts[0] % 2 == 0
            and parts[1] % 2 == 0
        )
    return False


_PHI_FIXED = {
    SubpartitionKind.THREE_WITH_FOUR_ONES,
    SubpartitionKind.THREE_THREES,
    SubpartitionKind.TWO_TWOS,
    SubpartitionKind.FOUR_TWOS,
}


def reference_phi(kind: SubpartitionKind, parts: tuple[int, ...]) -> tuple[int, ...]:
    """The shrunken shape of a piece, case by case."""
    if kind == SubpartitionKind.SINGLE_FIXED_POINT:
        return ()
    if kind in _PHI_FIXED:
        return parts
    if kind == SubpartitionKind.ODD_PART:
        return (5,)
    if kind == SubpartitionKind.TWO_WITH_EVEN:
        return (4, 2)
    if kind == SubpartitionKind.EVEN_PAIR:
        return (4, 4)
    raise ValueError(f"unknown kind {kind}")


# Length of the subinterval a piece of each kind packs into.
SUBINTERVAL_LENGTH = {
    SubpartitionKind.THREE_WITH_FOUR_ONES: 7,
    SubpartitionKind.THREE_THREES: 9,
    SubpartitionKind.ODD_PART: 5,
    SubpartitionKind.TWO_TWOS: 4,
    SubpartitionKind.FOUR_TWOS: 8,
    SubpartitionKind.TWO_WITH_EVEN: 6,
    SubpartitionKind.EVEN_PAIR: 8,
}


def _rotate_to_end(word: tuple[int, ...], point: int) -> tuple[int, ...]:
    i = word.index(point)
    return word[i + 1 :] + word[: i + 1]


def _rotate_to_start(word: tuple[int, ...], point: int) -> tuple[int, ...]:
    i = word.index(point)
    return word[i:] + word[:i]


def ncycle_lift_c(cword: tuple[int, ...], m: int, n: int) -> Permutation:
    """(c_1..c_{m-1}, m) becomes (c_1..c_{m-1}, m, m+1, ..., n)."""
    return Permutation.from_cycles(n, [_rotate_to_end(cword, m) + tuple(range(m + 1, n + 1))])


def ncycle_lift_d(dword: tuple[int, ...], m: int, n: int) -> Permutation:
    """(m, d_1..d_{m-1}) becomes (n, n-1, ..., m, d_1, ..., d_{m-1})."""
    return Permutation.from_cycles(
        n, [tuple(range(n, m, -1)) + _rotate_to_start(dword, m)]
    )


def lift_sign_maps(m: int, n: int) -> tuple[dict[str, str], dict[str, str]]:
    """How the split sign of an m-cycle transfers through each lift."""
    map_c: dict[str, str] = {}
    map_d: dict[str, str] = {}
    for s in ("+", "-"):
        rep = class_representative(ClassLabel(Partition((m,)), s))
        word = rep.cycles()[0]
        map_c[s] = an_class_of(ncycle_lift_c(word, m, n)).sign
        map_d[s] = an_class_of(ncycle_lift_d(word, m, n)).sign
    return map_c, map_d


def images_of_type(parts: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Stream the image tuples of all permutations of {1..n} whose cycle
    lengths are parts (weakly decreasing), with no duplicates: the least
    unplaced point leads each cycle, its other points in every order."""
    images = list(range(1, n + 1))

    def rec(free: list[int], lengths: list[int]) -> Iterator[tuple[int, ...]]:
        if not lengths or lengths[0] == 1:
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


def _inverse(p: tuple[int, ...]) -> list[int]:
    inv = [0] * len(p)
    for i, y in enumerate(p, 1):
        inv[y - 1] = i
    return inv


def stream_frobenius(C: ClassLabel, D: ClassLabel, g: Permutation) -> int:
    """|{(c, d) in C x D : c d = g}|: stream every element p of the smaller
    class and test its cofactor (d = p^-1 g, or c = g p^-1) for the other."""
    gi = g.images
    p_in_c = an_class_size(C) <= an_class_size(D)
    small, other = (C, D) if p_in_c else (D, C)
    parts = small.cycle_type.parts
    count = 0
    for p in images_of_type(parts, small.n):
        if not _member(p, parts, small.sign):
            continue
        pi = _inverse(p)
        if p_in_c:
            h = tuple(pi[y - 1] for y in gi)
        else:
            h = tuple(gi[x - 1] for x in pi)
        count += _member(h, other.cycle_type.parts, other.sign)
    return count


def an_orbit(x: Sequence[int]) -> set[tuple[int, ...]]:
    """The A_n-conjugacy class of the permutation with images x, as a set
    of image tuples: its orbit under conjugation by the 3-cycles (1,2,k),
    k = 3..n, which generate A_n.  Each generator s is written out as
    images and each conjugate s y s^-1 is formed point by point, as the
    map s(i) -> s(y(i)), so no package code takes part."""
    n = len(x)
    gens = []
    for k in range(3, n + 1):
        # s = (1,2,k) as [0, s(1), ..., s(n)], beside the 0-based
        # positions s^-1(j) - 1 that z(j) = s(y(s^-1(j))) reads y at.
        s = list(range(n + 1))
        s[1], s[2], s[k] = 2, k, 1
        s_inv = list(range(n))
        s_inv[1], s_inv[k - 1], s_inv[0] = 0, 1, k - 1
        gens.append((s, s_inv))
    start = tuple(x)
    orbit, frontier = {start}, [start]
    while frontier:
        y = frontier.pop()
        for s, s_inv in gens:
            z = tuple([s[y[t]] for t in s_inv])
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return orbit


def orbit_classes(n: int) -> dict[ClassLabel, set[tuple[int, ...]]]:
    """Every A_n class as the :func:`an_orbit` of the oracle's
    representative, built from the definition of the "+" class (see
    :func:`ancover.oracle._representative`), not from the labelling or
    the representatives under test."""
    return {label: an_orbit(_representative(label)) for label in an_class_labels(n)}


def reference_images(images: Sequence[int]) -> tuple[int, ...]:
    """The images, checked to be a bijection of 1..n by sorting."""
    images = tuple(int(x) for x in images)
    n = len(images)
    if sorted(images) != list(range(1, n + 1)):
        raise ValueError(f"not a bijection of 1..{n}: {images}")
    return images


def reference_from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Images of a product of disjoint cycles, checked point by point."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        cyc = [int(x) for x in cyc]
        for x in cyc:
            if not 1 <= x <= n:
                raise ValueError(f"point {x} out of range 1..{n}")
            if x in seen:
                raise ValueError(f"point {x} appears in two cycles")
            seen.add(x)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return reference_images(images)


def reference_walk(images: Sequence[int]) -> list[list[int]]:
    """Every cycle, fixed points included, each from its least point."""
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


def reference_parity(images: Sequence[int]) -> int:
    return (len(images) - len(reference_walk(images))) % 2


def reference_cycle_type(images: Sequence[int]) -> Partition:
    return Partition(sorted(map(len, reference_walk(images)), reverse=True))


def reference_an_class_of(images: Sequence[int]) -> ClassLabel:
    """A_n label of an even permutation: the split sign is the parity of
    its cycles' word, longest first, read as a list of images."""
    n = len(images)
    walk = reference_walk(images)
    if (n - len(walk)) % 2:
        raise ValueError("odd permutation")
    t = Partition(sorted(map(len, walk), reverse=True))
    if not splits_in_an(t):
        return ClassLabel(t)
    walk.sort(key=len, reverse=True)
    word = [x for cyc in walk for x in cyc]
    return ClassLabel(t, "-" if (n - len(reference_walk(word))) % 2 else "+")


def two_twos_deltas(lam: Partition, seed: int) -> tuple[Permutation, Permutation]:
    """(delta, delta_bar) of the 2,2 fallback for mu = 2,2,1^(n-4): seeded
    trials h = (a, b)(c, e) on the largest cycle of gamma until
    gamma1^-1 * h is a full cycle, one per split class of lam (or the first
    when lam does not split), the other cycles of gamma inverted."""
    n, m = lam.n, lam.parts[0]
    offsets = [sum(lam.parts[:j]) for j in range(len(lam.parts))]
    gamma1_inv = Permutation.from_cycles(m, [tuple(range(1, m + 1))]).inverse()
    m_cycle = Partition((m,))
    rng = random.Random(seed)
    found: dict[str | None, Permutation] = {}
    want_both = splits_in_an(lam)
    other_words = [
        tuple(range(offsets[j] + 1, offsets[j] + lam.parts[j] + 1))
        for j in range(1, len(lam.parts))
    ]
    for _ in range(200_000):
        pts = rng.sample(range(1, m + 1), 4)
        h = Permutation.from_cycles(m, [(pts[0], pts[1]), (pts[2], pts[3])])
        d1 = gamma1_inv * h
        if cycle_type(d1) != m_cycle:
            continue
        words = [d1.cycles()[0]] + [tuple(reversed(w)) for w in other_words]
        delta = Permutation.from_cycles(n, words)
        found.setdefault(an_class_of(delta).sign if want_both else None, delta)
        if len(found) == (2 if want_both else 1):
            break
    else:
        raise AssertionError("no long-cycle cofactor within the budget")
    if want_both:
        return found["+"], found["-"]
    return found[None], found[None]


def an_degree(chi: IrreducibleLabel) -> int:
    d = degree(chi.partition)
    return d // 2 if chi.is_split() else d


def surd_le(terms_left: Sequence[tuple[Fraction, int]], terms_right: Sequence[tuple[Fraction, int]]) -> bool:
    diff = list(terms_left) + [(-Fraction(q), d) for q, d in terms_right]
    return surd_sign(diff) <= 0


def abs_value_le_surd(v: AlgebraicValue, bound: Sequence[tuple[Fraction, int]]) -> bool:
    """|v| <= bound, for a possibly complex exact value and a real bound.

    Compares |v|^2 against bound^2; the bound must be a two-term surd
    u + w*sqrt(d) with u, w >= 0.
    """
    (u, _), (w, d) = bound
    if u < 0 or w < 0:
        raise ValueError("bound must be nonnegative")
    bound_sq = [(u * u + w * w * d, 1), (2 * u * w, d)]
    vsq = v.norm_squared()
    if vsq.d < 0:
        raise ValueError(f"{vsq} is not real")
    return surd_le([(vsq.a, 1), (vsq.b, vsq.d)], bound_sq)


def _times_conjugate(x: AlgebraicValue, y: AlgebraicValue) -> dict[int, Fraction]:
    """x * conj(y) as {squarefree radicand d: coefficient of sqrt(d)}, with
    d = 1 for the rational part and sqrt(d) = i * sqrt(-d) for d < 0."""
    yb = -y.b if y.d < 0 else y.b
    terms = {1: x.a * y.a}
    terms[y.d] = terms.get(y.d, 0) + x.a * yb
    terms[x.d] = terms.get(x.d, 0) + x.b * y.a
    # sqrt(dx) sqrt(dy) = g sqrt(dx dy / g^2) for g = gcd, times i^2 if both
    # radicands are negative.
    g = gcd(x.d, y.d)
    d = x.d * y.d // (g * g)
    sign = -1 if x.d < 0 and y.d < 0 else 1
    terms[d] = terms.get(d, 0) + sign * g * x.b * yb
    return terms


def broken_orthogonality(table: CharacterTable) -> set[str]:
    """Which of the relations "column" and "row" the values of table break.

    Column: sum_chi chi(i) conj(chi(j)) = |G|/|C_i| if i = j, else 0.
    Row: sum_j |C_j| chi_r(j) conj(chi_s(j)) = |G| if r = s, else 0.
    Each sum is formed cell by cell from ``table.values`` with one Fraction
    per radicand, and every pair is checked on its own; nothing is shared
    with the table's integer kernel.
    """
    order = table.group_order

    def holds(vectors, weights, expect) -> bool:
        for p, u in enumerate(vectors):
            for q in range(p, len(vectors)):
                total: dict[int, Fraction] = {}
                for x, y, w in zip(u, vectors[q], weights):
                    for d, c in _times_conjugate(x, y).items():
                        total[d] = total.get(d, 0) + w * c
                want = {1: expect(p)} if p == q else {}
                if {d: c for d, c in total.items() if c} != want:
                    return False
        return True

    values = table.values
    columns = [list(col) for col in zip(*values)]
    broken = set()
    if not holds(columns, [1] * len(values), lambda i: Fraction(order, table.class_sizes[i])):
        broken.add("column")
    if not holds(values, table.class_sizes, lambda r: order):
        broken.add("row")
    return broken


def labels_of_type(lam: Partition) -> list[ClassLabel]:
    if splits_in_an(lam):
        return [ClassLabel(lam, "+"), ClassLabel(lam, "-")]
    return [ClassLabel(lam)]


def is_covered_by(lam: Partition, g: ClassLabel, *, table: CharacterTable | None = None) -> bool:
    """Whether g lies in CD for every pair of classes C, D of cycle type lam."""
    if not lam.is_even_type():
        raise ValueError(f"{lam.text()} is not an even cycle type")
    if table is None:
        table = an_character_table(lam.n)
    labels = labels_of_type(lam)
    return all(
        frobenius_count(C, D, g, table=table) > 0 for C in labels for D in labels
    )


def is_real_in_an(g: Permutation) -> bool:
    """Whether g and g^-1 are conjugate in A_n.

    Split-type elements are real exactly when kappa is even.  Non-split
    even elements are always real because their A_n class is a full S_n
    class.
    """
    label = an_class_of(g)
    return not label.is_split() or kappa_of_type(label.cycle_type) % 2 == 0


def packing_cycle(plan: PackingPlan, sequences: Sequence[ValidSequence]) -> Permutation:
    """The host-length cycle of :func:`~ancover.constructor.packing_word`."""
    return Permutation.from_cycles(plan.host_length, [packing_word(plan, sequences)])


def is_even(g: Permutation) -> bool:
    return g.parity() == 0


def E_fraction(profile: EProfile) -> Fraction | None:
    """E of an orbit-size profile as an exact rational when every positive
    count is a power of n, else None."""
    total = Fraction(0)
    prev = Fraction(0)
    for k, c in enumerate(profile.counts, start=1):
        if c == 0:
            continue
        e_sum = _log_n_exact(c, profile.n)
        if e_sum is None:
            return None
        total += (e_sum - prev) / k
        prev = e_sum
    return total


def _log_n_exact(c: int, n: int) -> Fraction | None:
    """log_n(c) when c is an exact power of n, else None."""
    if c == 1:
        return Fraction(0)
    if n <= 1:
        return None
    power = 0
    x = 1
    while x < c:
        x *= n
        power += 1
    return Fraction(power) if x == c else None


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run this interpreter on args, capturing text output, with PYTHONPATH
    set to the directory that holds the imported ``ancover`` package, so
    that the subprocess runs the code under test."""
    src = str(Path(ancover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def _elements(parts: tuple[int, ...], n: int, sign: str | None) -> Iterator[Permutation]:
    """The permutations of {1..n} with cycle lengths parts, in search
    order; for a split type with a sign, only those of that class."""
    if n > ORACLE_LIMIT:
        raise LimitExceeded(f"n = {n} exceeds the oracle limit {ORACLE_LIMIT}")
    out: list[Permutation] = []

    def leaf(p: list[int], q: None, word: list[int]) -> None:
        if _sign_matches(word, sign):
            out.append(Permutation(p[1:]))

    _search(parts, n, leaf)
    return iter(out)


def permutations_of_type(mu: Partition) -> Iterator[Permutation]:
    """All permutations of {1..n} with cycle type mu, no duplicates."""
    return _elements(mu.parts, mu.n, None)


def iter_class(label: ClassLabel) -> Iterator[Permutation]:
    """The elements of the labelled A_n class."""
    return _elements(label.cycle_type.parts, label.n, label.sign)
