"""Constructive witness factorizations.

Given cycle types lam (with k parts) and mu (with enough fixed points),
this module produces permutations gamma, delta, delta_bar of type lam
such that gamma*delta and gamma*delta_bar both have type mu, with delta
and delta_bar conjugate by an odd permutation.  When lam has distinct odd
parts the two products therefore witness membership of the mu class in
both C*C and C*D for the two A_n classes C, D of type lam.

The pipeline: break mu into typed subpartitions, shrink them by the one
rule :func:`~ancover.combinatorics.shrink_part` (a part of 6 or more
becomes 4 or 5, same parity), pack each shrunken shape ``phi(piece)``
into a cycle of gamma as a right-justified subinterval of its size,
realize it by a "valid sequence" whose product against the host cycle
has that shape, then grow each part p back in ``(p - shrink_part(p)) // 2``
steps of two points, conjugating delta with transpositions that consume
pairs of fixed points from the free space.

Separately, :func:`cover_with_ncycles` factors a given even permutation
into two n-cycles from requested classes, by stripping fixed points down
to a small base case, solving it by seeded random search, and lifting the
factors back with one long cycle through the stripped points.  The signs
of the base classes come from a parity rule (the c-lift keeps the split
sign; the d-lift through r stripped points flips it iff r = 2 (mod 4)).
Outside the search its interpreted work is O(moved points): the stripped
points enter c and d as runs copied by slices from g's images, and only
the two label walks and the two bijection checks read every point.

Neither re-checks what it has just built; every check on its outputs
stays.  Permutations come from the int words or image lists made here,
each through the one bijection check only, and each output is labelled
by one walk.  Each packed delta is one image list to the end: its orbits
to grow are walked on it and on gamma's list, and the growth steps change
it in place, so a call that packs builds five Permutations of degree n
(gamma, delta, delta_bar and their products with gamma) whatever its
steps.  A search trial reads its cofactor c^-1 h through the image list
of c^-1 along the orbit of 1 only, and forms, walks and labels it only
when that orbit is a full cycle.
"""

from __future__ import annotations

import random
from itertools import compress, count, islice
from operator import eq, itemgetter
from typing import Sequence

from ancover.combinatorics import (
    Infeasible,
    Partition,
    Record,
    VerificationFailed,
    decompose_subpartitions,
    phi,
    shrink_part,
)
from ancover.permutations import (
    ClassLabel,
    OddPermutation,
    Permutation,
    _cycle_count,
    _representative_words,
    _walk,
    an_class_of,
    cycle_type,
    splits_in_an,
)


def _check(ok: bool, what: str) -> None:
    """Raise VerificationFailed unless ok; unlike assert, kept under -O."""
    if not ok:
        raise VerificationFailed(what)


class HypothesisViolated(ValueError):
    """A rebuild hypothesis fails; .clause names the failing one."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"hypothesis ({clause}): {message}")
        self.clause = clause


class OnlyTrivialKinds(Infeasible):
    """mu decomposes into fixed points and one 2,2 piece only, and the
    fallback route is unavailable."""


class NotCoverable(ValueError):
    """The requested class pair cannot produce this element."""


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, seed: int, trials: int):
        super().__init__(f"no factorization in {trials} trials (seed {seed})")
        self.seed = seed
        self.trials = trials


# ---------------------------------------------------------------------------
# Intervals and packings


class Interval(Record):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a > b:
            raise ValueError(f"empty interval [{a},{b}]")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class PackingPlan(Record):
    """Right-justified subintervals of a host interval [1, host_length].

    ``subintervals[0]`` touches the right end; consecutive subintervals
    abut; whatever remains is an initial free interval, ``free`` (None
    when the subintervals fill the host), worked out once by ``__init__``.
    ``demands[i]`` records which demand index subinterval i serves.
    """

    __slots__ = ("host_index", "host_length", "subintervals", "demands", "free")

    def __init__(
        self,
        host_index: int,
        host_length: int,
        subintervals: tuple[Interval, ...],
        demands: tuple[int, ...],
    ):
        expect_b = host_length
        for iv in subintervals:
            if iv.b != expect_b:
                raise ValueError("subintervals must be right-justified and abutting")
            expect_b = iv.a - 1
        if len(demands) != len(subintervals):
            raise ValueError("one demand index per subinterval")
        free = Interval(1, expect_b) if expect_b > 0 else None
        self._init(host_index, host_length, subintervals, demands, free)


def greedy_pack(lengths: Sequence[int], demands: Sequence[int]) -> list[PackingPlan]:
    """Pack demands into host intervals, largest demands first.

    Each demand goes to the first host with room, flush against the
    current right end of its free space.  Raises Infeasible when some
    demand fits nowhere.
    """
    remaining = list(lengths)
    slots: list[list[tuple[Interval, int]]] = [[] for _ in lengths]
    order = sorted(range(len(demands)), key=lambda i: (-demands[i], i))
    for di in order:
        need = demands[di]
        for j in range(len(remaining)):
            if remaining[j] >= need:
                iv = Interval(remaining[j] - need + 1, remaining[j])
                slots[j].append((iv, di))
                remaining[j] -= need
                break
        else:
            raise Infeasible(
                f"demand of length {need} does not fit in any remaining free space"
            )
    return [
        PackingPlan(
            j,
            lengths[j],
            tuple(iv for iv, _ in slots[j]),
            tuple(di for _, di in slots[j]),
        )
        for j in range(len(lengths))
    ]


# ---------------------------------------------------------------------------
# Valid sequences


class ValidSequence(Record):
    """The points of an interval, each once, starting at the right end."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[int, ...]):
        lo, hi = min(terms), max(terms)
        if sorted(terms) != list(range(lo, hi + 1)):
            raise ValueError(f"terms are not an interval: {terms}")
        if terms[0] != hi:
            raise ValueError(f"first term must be the right endpoint: {terms}")
        object.__setattr__(self, "terms", terms)

    def shifted(self, offset: int) -> "ValidSequence":
        # an interval moved as a whole is still an interval, right end first
        return ValidSequence._trusted(tuple([t + offset for t in self.terms]))


# Tabulated sequences on [1, shape.n], keyed by shrunken shape: each
# product against (1..n) has the shape, and each pair is intertwined by an
# odd resequencing map.  The odd-length pairs are the first such pair in
# lexicographic order; a test re-derives them by exhaustive search.  Each
# is checked once, through ValidSequence, when the module loads.
_SEQUENCES: dict[tuple[int, ...], tuple[ValidSequence, ValidSequence | None]] = {
    shape: (ValidSequence(s), ValidSequence(t) if t else None)
    for shape, (s, t) in {
        (2, 2): ((4, 1, 2, 3), None),
        (5,): ((5, 1, 2, 3, 4), (5, 2, 4, 1, 3)),
        (4, 2): ((6, 1, 2, 4, 5, 3), (6, 1, 3, 4, 5, 2)),
        (3, 1, 1, 1, 1): ((7, 1, 6, 5, 4, 3, 2), (7, 2, 1, 6, 5, 4, 3)),
        (2, 2, 2, 2): ((8, 1, 2, 7, 4, 5, 6, 3), (8, 1, 3, 5, 6, 2, 7, 4)),
        (4, 4): ((8, 1, 2, 4, 7, 5, 3, 6), (8, 1, 2, 5, 7, 3, 6, 4)),
        (3, 3, 3): ((9, 1, 2, 3, 4, 8, 6, 7, 5), (9, 1, 2, 3, 5, 7, 4, 8, 6)),
    }.items()
}


def find_opposite_valid_sequences(shape: Partition) -> tuple[ValidSequence, ValidSequence | None]:
    """Valid sequences on [1, shape.n] whose product with (1..shape.n) has
    the given shape; the two are intertwined by an odd resequencing map.

    The pairs are tabulated; the 2,2 piece has no opposite partner.
    """
    if shape.parts not in _SEQUENCES:
        raise ValueError(f"unsupported shape {shape.parts}")
    return _SEQUENCES[shape.parts]


# ---------------------------------------------------------------------------
# Packing cycles and rebuilding


def packing_word(plan: PackingPlan, sequences: Sequence[ValidSequence]) -> list[int]:
    """The word juxtaposing the sequences, then the free space in
    decreasing order: one cycle through every point of the host."""
    if len(sequences) != len(plan.subintervals):
        raise ValueError("one sequence per subinterval")
    word: list[int] = []
    for iv, seq in zip(plan.subintervals, sequences):
        if min(seq.terms) != iv.a or max(seq.terms) != iv.b:
            raise ValueError(f"sequence {seq.terms} is not on [{iv.a},{iv.b}]")
        word.extend(seq.terms)
    free = plan.free
    if free is not None:
        word.extend(range(free.b, free.a - 1, -1))
    return word


def _rebuild_images(g: Sequence[int], d: list[int], x: int, y: int) -> None:
    """Conjugate delta by (x, y) so the product's orbit of x absorbs the
    fixed pair {y, gamma(y)}; g and d are the image lists of gamma and
    delta led by a 0, and d changes in place.

    Hypotheses, all checked: (a) delta moves x and y; (b) gamma(x) lies in
    the gamma*delta orbit of x; (c) y and gamma(y) are fixed by
    gamma*delta.  The new product agrees with the old outside that orbit
    and {y, gamma(y)}, which fuse into one orbit two points longer.
    """
    if x == y:
        raise HypothesisViolated("a", "x and y must be distinct")
    if d[x] == x:
        raise HypothesisViolated("a", f"delta fixes x = {x}")
    if d[y] == y:
        raise HypothesisViolated("a", f"delta fixes y = {y}")
    z = g[d[x]]  # the product is g[d[z]]
    while z != x and z != g[x]:
        z = g[d[z]]
    if z != g[x]:
        raise HypothesisViolated("b", f"gamma({x}) leaves the product orbit of {x}")
    if g[d[y]] != y:
        raise HypothesisViolated("c", f"product moves y = {y}")
    if g[d[g[y]]] != g[y]:
        raise HypothesisViolated("c", f"product moves gamma(y) = {g[y]}")
    # (x y) delta (x y): swap the values x and y, then their positions
    i, j = d.index(x), d.index(y)
    d[i], d[j] = y, x
    d[x], d[y] = d[y], d[x]


# ---------------------------------------------------------------------------
# The full construction


class WitnessPair(Record):
    """Verified factorization witnesses.

    gamma, delta and delta_bar all have cycle type lam; gamma*delta and
    gamma*delta_bar both have cycle type mu; delta and delta_bar are
    conjugate by an odd permutation, so when lam splits they represent
    the two A_n classes of their type.
    """

    __slots__ = (
        "lam",
        "mu",
        "gamma",
        "delta",
        "delta_bar",
        "product_label",
        "product_label_bar",
        "embeddings",
        "rebuild_log",
        "rebuild_log_bar",
        "seed",
    )

    def __init__(
        self,
        lam: Partition,
        mu: Partition,
        gamma: Permutation,
        delta: Permutation,
        delta_bar: Permutation,
        product_label: ClassLabel,
        product_label_bar: ClassLabel,
        embeddings: tuple[tuple[int, int], ...],
        rebuild_log: tuple[tuple[int, int], ...],
        rebuild_log_bar: tuple[tuple[int, int], ...],
        seed: int | None = None,
    ):
        self._init(
            lam,
            mu,
            gamma,
            delta,
            delta_bar,
            product_label,
            product_label_bar,
            embeddings,
            rebuild_log,
            rebuild_log_bar,
            seed,
        )

    def verify(self) -> None:
        """Raise VerificationFailed unless every stated invariant holds,
        the stored product labels included."""
        label, label_bar = _product_labels(
            self.lam,
            self.mu,
            self.gamma,
            self.delta,
            self.delta_bar,
            self.rebuild_log,
            self.rebuild_log_bar,
        )
        _check(label == self.product_label, "product label")
        _check(label_bar == self.product_label_bar, "bar product label")

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.lam.n,
            "lambda": self.lam.text(),
            "mu": self.mu.text(),
            "gamma": self.gamma.format_cycles(),
            "delta": self.delta.format_cycles(),
            "delta_bar": self.delta_bar.format_cycles(),
            "gamma_images": list(self.gamma.images),
            "delta_images": list(self.delta.images),
            "delta_bar_images": list(self.delta_bar.images),
            "product_class": self.product_label.text(),
            "product_class_bar": self.product_label_bar.text(),
            "embeddings": [list(e) for e in self.embeddings],
            "rebuild_log": [list(s) for s in self.rebuild_log],
            "rebuild_log_bar": [list(s) for s in self.rebuild_log_bar],
            "seed": self.seed,
        }


def _label_of_type(g: Permutation, lam: Partition, what: str) -> ClassLabel:
    """The A_n label of g, after checking that g has the even type lam."""
    try:
        label = an_class_of(g)
    except OddPermutation:
        label = None
    _check(label is not None and label.cycle_type == lam, what)
    return label


def _product_labels(
    lam: Partition,
    mu: Partition,
    gamma: Permutation,
    delta: Permutation,
    delta_bar: Permutation,
    log: Sequence[tuple[int, int]],
    log_bar: Sequence[tuple[int, int]],
) -> tuple[ClassLabel, ClassLabel]:
    """The A_n classes of gamma*delta and gamma*delta_bar, after checking
    every invariant a WitnessPair states; each product is formed once and
    its type read from the walk that labels it, as are the types of delta
    and delta_bar when lam splits."""
    _check(cycle_type(gamma) == lam, "gamma type")
    split = splits_in_an(lam)
    if split:
        delta_label = _label_of_type(delta, lam, "delta type")
        delta_bar_label = _label_of_type(delta_bar, lam, "delta_bar type")
    else:
        _check(cycle_type(delta) == lam, "delta type")
        _check(cycle_type(delta_bar) == lam, "delta_bar type")
    # equal types make both products even, so both have A_n labels
    label, label_bar = an_class_of(gamma * delta), an_class_of(gamma * delta_bar)
    _check(label.cycle_type == mu, "product type")
    _check(label_bar.cycle_type == mu, "bar product type")
    expected = sum(p - shrink_part(p) for p in mu.parts) // 2
    _check(len(log) == expected, "rebuild count")
    _check(len(log_bar) == expected, "bar rebuild count")
    if split:
        _check(
            delta_label != delta_bar_label,
            "delta and delta_bar must land in the two split classes",
        )
    return label, label_bar


def _grow(
    g: Sequence[int],
    d: list[int],
    spans: Sequence[tuple[range, list[int]]],
    pool: Sequence[int],
) -> tuple[Permutation, list[tuple[int, int]]]:
    """Grow each shrunken orbit of gamma*delta back to its part, changing
    d in place; return delta and the steps (x, y) taken.  g and d are the
    image lists of gamma and delta led by a 0.

    Each span holds the points of one piece's subinterval and the parts
    of 6 or more it grows back to, largest first; its orbits of 4 or more
    points, in order of their least point, are paired with those parts.
    """
    work: list[tuple[set[int], int]] = []
    for points, big in spans:
        left = set(points)
        grow: list[set[int]] = []
        while left:
            # orbits inside the span start at their least point, in order
            x = min(left)
            orb = {x}
            y = g[d[x]]
            while y != x:
                orb.add(y)
                y = g[d[y]]
            _check(orb <= left, "orbit leaves its subinterval")
            left -= orb
            if len(orb) >= 4:
                grow.append(orb)
        _check(len(grow) >= len(big), "missing seed orbits")
        work += zip(grow, big)
    log: list[tuple[int, int]] = []
    while work:
        # the orbit most steps short of its part, the least point first on ties
        orb, part = max(work, key=lambda w: ((w[1] - len(w[0])) // 2, -min(w[0])))
        if part - len(orb) < 2:
            break
        x = min(p for p in orb if d[p] != p and g[p] in orb)
        if len(log) == len(pool):
            raise Infeasible("free-space pool exhausted during rebuilding")
        y = pool[len(log)]
        _rebuild_images(g, d, x, y)
        orb.update({y, g[y]})
        log.append((x, y))
    return Permutation._from_ints(d[1:]), log


def construct_witnesses(
    lam: Partition,
    mu: Partition,
    *,
    strict: bool = True,
    seed: int = 0,
) -> WitnessPair:
    """Build verified witnesses for the coverage of type mu by type lam.

    In strict mode mu must have at least 8k+9 fixed points (k the number
    of parts of lam); with ``strict=False`` the construction is attempted
    anyway and failures surface as Infeasible.
    """
    n = lam.n
    if mu.n != n:
        raise ValueError(f"|lam| = {n} but |mu| = {mu.n}")
    if not mu.is_even_type():
        raise ValueError(f"{mu.text()} is not an even cycle type")
    if not lam.parts:
        raise ValueError("lam must be nonempty")
    k = len(lam.parts)
    fix = mu.ones()
    if mu.parts == tuple([1] * n):
        raise ValueError("mu = 1^n is excluded")
    if strict and fix < 8 * k + 9:
        raise Infeasible(
            f"mu has {fix} fixed points; the construction wants at least {8 * k + 9}"
        )

    pieces = decompose_subpartitions(mu)
    offsets = tuple(sum(lam.parts[:j]) for j in range(k))
    embeddings = tuple((offsets[j] + 1, offsets[j] + lam.parts[j]) for j in range(k))
    gamma = Permutation._from_words(
        n, [range(offsets[j] + 1, offsets[j] + lam.parts[j] + 1) for j in range(k)]
    )

    # A lone fixed point shrinks to the empty shape and packs nowhere.
    nontrivial = [p for p in pieces if phi(p).parts]
    shapes = [phi(p) for p in nontrivial]
    seqs = [find_opposite_valid_sequences(shape) for shape in shapes]
    # Only 2,2 has no opposite sequence; with nothing else it falls back.
    pivot = next((i for i, (_, sbar) in enumerate(seqs) if sbar is not None), None)
    if pivot is None:
        return _construct_two_twos_case(lam, mu, gamma, offsets, embeddings, seed)
    plans = greedy_pack(lam.parts, [shape.n for shape in shapes])

    def packed(use_bar_at: int | None) -> list[int]:
        # the image list of delta led by a 0, one packing cycle per host
        d = list(range(n + 1))
        for plan in plans:
            local: list[ValidSequence] = []
            for iv, di in zip(plan.subintervals, plan.demands):
                s, sbar = seqs[di]
                chosen = sbar if (di == use_bar_at and sbar is not None) else s
                local.append(chosen.shifted(iv.a - 1))
            off = offsets[plan.host_index]
            word = [p + off for p in packing_word(plan, local)]
            for x, y in zip(word, word[1:] + word[:1]):
                d[x] = y
        return d

    d = packed(None)
    d_bar = packed(pivot)

    # The points of each growing piece's subinterval, with its parts to
    # grow; and the growth pool: even positions strictly below the top of
    # each free run, so that {y, gamma(y)} pairs are disjoint and fixed by
    # the products.
    spans: list[tuple[range, list[int]]] = []
    pool: list[int] = []
    for plan in plans:
        off = offsets[plan.host_index]
        for iv, di in zip(plan.subintervals, plan.demands):
            big = sorted((p for p in nontrivial[di].parts.parts if shrink_part(p) != p), reverse=True)
            if big:
                spans.append((range(off + iv.a, off + iv.b + 1), big))
        if plan.free is not None:
            pool.extend(off + y for y in range(2, plan.free.b) if y % 2 == 0)

    needed = sum(p - shrink_part(p) for p in mu.parts) // 2
    if len(pool) < needed:
        raise Infeasible(
            f"free space supplies {len(pool)} growth pairs but {needed} are needed"
        )

    g = (0, *gamma.images)
    delta, log = _grow(g, d, spans, pool)
    delta_bar, log_bar = _grow(g, d_bar, spans, pool)

    labels = _product_labels(lam, mu, gamma, delta, delta_bar, log, log_bar)
    return WitnessPair(
        lam, mu, gamma, delta, delta_bar, *labels, embeddings, tuple(log), tuple(log_bar), seed
    )


def _construct_two_twos_case(
    lam: Partition,
    mu: Partition,
    gamma: Permutation,
    offsets: tuple[int, ...],
    embeddings: tuple[tuple[int, int], ...],
    seed: int,
) -> WitnessPair:
    """mu is 1^(n-4) 2,2: realize the 2,2 inside the largest cycle of
    gamma by seeded search for a long-cycle cofactor, in both classes."""
    n = lam.n
    m = lam.parts[0]
    if n <= 9 or m < 7:
        raise OnlyTrivialKinds(
            f"type {mu.text()} needs the long-cycle fallback, unavailable at n = {n}"
        )
    gamma1_inv = [m, *range(1, m)]  # images of (1..m)^-1
    rng = random.Random(seed)
    found: dict[str | None, Permutation] = {}
    want_both = splits_in_an(lam)
    budget = 200_000
    other_words = [
        tuple(range(offsets[j] + 1, offsets[j] + lam.parts[j] + 1))
        for j in range(1, len(lam.parts))
    ]
    # For a split lam, delta's sign changes with the parity of word1 read as
    # images alone: the other hosts' cycles, and their places in the label's
    # word, are the same on every trial, and a rotation of an odd cycle's
    # word is even.  The first delta built calibrates the sign of each
    # parity; _product_labels labels both deltas, so a wrong rule fails.
    sign_at: dict[int, str] = {}
    for _ in range(budget):
        pts = rng.sample(range(1, m + 1), 4)
        # d1 = gamma1^-1 * (pts[0], pts[1])(pts[2], pts[3]), as images
        a, b, c, e = (p - 1 for p in pts)
        d1 = gamma1_inv[:]
        d1[a], d1[b], d1[c], d1[e] = d1[b], d1[a], d1[e], d1[c]
        if not _is_full_cycle(d1):
            continue
        word1 = _walk(d1)[0][0]
        parity = _cycle_count(word1) % 2
        key = sign_at.get(parity) if want_both else None
        if key in found:
            continue
        # other hosts contribute inverse cycles so the product fixes them
        words = [word1] + [tuple(reversed(w)) for w in other_words]
        delta = Permutation._from_words(n, words)
        if want_both and not sign_at:
            key = an_class_of(delta).sign
            sign_at = {parity: key, 1 - parity: "-" if key == "+" else "+"}
        found[key] = delta
        if len(found) == (2 if want_both else 1):
            break
    else:
        raise Infeasible(
            f"no long-cycle cofactor for {mu.text()} within {budget} samples"
        )
    delta, delta_bar = (found["+"], found["-"]) if want_both else (found[None],) * 2
    labels = _product_labels(lam, mu, gamma, delta, delta_bar, (), ())
    return WitnessPair(lam, mu, gamma, delta, delta_bar, *labels, embeddings, (), (), seed)


# ---------------------------------------------------------------------------
# n-cycle coverage of a concrete element


def _cycle_images(word: Sequence[int]) -> list[int]:
    """Image list of the cycle (word) through every point 1..len(word)."""
    images = [0] * len(word)
    prev = word[-1]
    for x in word:
        images[prev - 1] = x
        prev = x
    return images


def _is_full_cycle(images: Sequence[int], then: Sequence[int] | None = None) -> bool:
    """Whether these images, followed by those of ``then`` when given, form
    one cycle through every point; only the orbit of 1 is walked, and the
    composite is never built."""
    x, length = images[0] if then is None else then[images[0] - 1], 1
    while x != 1:
        x = images[x - 1] if then is None else then[images[x - 1] - 1]
        length += 1
    return length == len(images)


def _d_lift_flips_sign(r: int) -> bool:
    """Whether lifting d through r = n - m stripped points flips the split
    sign of its m-cycle class; lifting c never does.

    An n-cycle's sign is the parity of its word read as a list of images,
    and rotating a word of odd length is an even permutation.  The c-lift
    appends m+1, ..., n to a rotation of c's word, adding no inversion.
    The d-lift puts n, n-1, ..., m+1 before a rotation of d's word, adding
    C(r,2) + r*m inversions; with r even and m odd that is odd iff
    r = 2 (mod 4).
    """
    return r % 4 == 2


# cover_with_ncycles pre-checks its residue only at m <= 16: an A_m table costs
# 30-770 ms at m = 17..24, against a search of milliseconds.  Residue factors
# lift to factors of g, so the check refuses every g that C * D misses.
_PRECHECK_LIMIT = 16


def cover_with_ncycles(
    g: Permutation,
    C: ClassLabel,
    D: ClassLabel,
    *,
    seed: int = 0,
    budget: int = 10**6,
) -> tuple[Permutation, Permutation]:
    """n-cycles c in C and d in D with c*d = g, for odd n >= 5.

    Strips an even number r of fixed points (or reduces to degree 7 or 5
    for nearly trivial g) by an even relabelling that ranks the moved
    points first, solves the residue at degree m = n - r by seeded random
    search over the base class of C with the cofactor membership-tested
    (at most budget trials; a budget below 1 raises ValueError), and
    lifts both factors back through the stripped points with one long
    run each: in rank order, c's word gets m+1, ..., n after m, d's gets
    n, n-1, ..., m+1 before m.

    The base classes follow a parity rule (:func:`_d_lift_flips_sign`):
    the c-lift keeps the split sign and the d-lift flips it iff
    r = 2 (mod 4).  The final checks of c*d == g and of both labels
    re-verify the rule on every call.

    C and D are checked before g is read.  Outside the search the
    interpreted work is O(moved points): g is split by one comprehension,
    the stripped points are copied into c and d by slices of g's images,
    and c*d is compared with g by one gather.  The two Permutations of
    degree n, c and d, are each checked once as a bijection and walked
    once for their labels.  The search runs on lists of degree m (see
    the module docstring for a trial).
    """
    from ancover.classalgebra import frobenius_count

    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    n = g.n
    if n < 5 or n % 2 == 0:
        raise ValueError("defined for odd n >= 5")
    ncycle = Partition((n,))
    if C.cycle_type != ncycle or D.cycle_type != ncycle:
        raise ValueError("C and D must be n-cycle classes of matching degree")
    images = g.images
    moved = [x for x, y in enumerate(images, 1) if x != y]
    k = n - len(moved)
    if k == n:
        raise ValueError("g must be nontrivial")

    if k <= n - 6:
        r = 2 * (k // 2)
    elif k in (n - 4, n - 5):
        r = n - 7
    else:  # k == n - 3, a single 3-cycle
        r = n - 5
    r = max(r, 0)  # the residual reductions only strip points when n > 7
    m = n - r

    # The relabelling ranks the residue res first: the moved points, then
    # the least m - len(moved) fixed points, which like every stripped
    # point are read as g's own ints.  The stripped points follow in
    # increasing order.  Its inversions pair each moved x with the
    # x - 1 - i fixed points below it; when their number is odd, swapping
    # the two least stripped ranks makes it even, so that it keeps every
    # A_n class.  runs lists the stripped points in rank order as runs of
    # consecutive points, the swapped two as runs of their own.
    runs: list[tuple[int, int]] = []
    if r == 0:
        res = list(range(1, n + 1))
    else:
        low = list(islice(compress(images, map(eq, images, count(1))), m - len(moved) + 2))
        res = moved + low[:-2]
        odd = sum(x - 1 - i for i, x in enumerate(moved)) % 2
        if odd:
            runs = [(low[-1], low[-1]), (low[-2], low[-2])]
        cut = sorted(moved + low if odd else res)
        runs += [(p + 1, q - 1) for p, q in zip([0, *cut], [*cut, n + 1]) if q - p > 1]
    rank = {x: i for i, x in enumerate(res, start=1)}
    h_small = [rank[images[x - 1]] for x in res]
    if (m - _cycle_count(h_small)) % 2:
        raise ValueError("g must be even")
    flip = {"+": "-", "-": "+"}
    base_c = ClassLabel(Partition((m,)), C.sign)
    base_d = ClassLabel(Partition((m,)), flip[D.sign] if _d_lift_flips_sign(r) else D.sign)

    if m <= _PRECHECK_LIMIT:
        h_label = an_class_of(Permutation._from_ints(h_small))
        if frobenius_count(base_c, base_d, h_label) == 0:
            raise NotCoverable(f"{'base case ' if r else ''}{h_label} is not in {base_c} * {base_d}")

    rng = random.Random(seed)
    rep_word = _representative_words(base_c)[0]
    for _ in range(budget):
        # w: a uniformly random even permutation of 1..m, as a list of images
        w = list(range(1, m + 1))
        rng.shuffle(w)
        if (m - _cycle_count(w)) % 2:
            w[0], w[1] = w[1], w[0]
        # the candidate w rep w^-1 is the cycle (w(a) for a in rep's word)
        c_word = [w[a - 1] for a in rep_word]
        c_inv = _cycle_images(c_word[::-1])
        # the cofactor c^-1 h is formed only when it is a full cycle
        if _is_full_cycle(h_small, c_inv):
            d_small = [c_inv[y - 1] for y in h_small]
            if an_class_of(Permutation._from_ints(d_small)) == base_d:
                break
    else:
        raise SearchBudgetExceeded(seed, budget)

    # c and d start as g's images shifted one place up and down: c steps
    # up each run of stripped points and d steps down it, holding g's own
    # ints.  The residue factors are written through the relabelling, and
    # the runs are chained in after the point of rank m in c, which runs
    # m, s_1, ..., s_r, c(m), and before it in d: d^-1(m), s_r, ..., s_1, m.
    c_img, d_img = [*images[1:], images[0]], [images[-1], *images[:-1]]
    for x, y in zip(c_word, c_word[1:] + c_word[:1]):
        c_img[res[x - 1] - 1] = res[y - 1]
    for x, y in zip(res, d_small):
        d_img[x - 1] = res[y - 1]
    prev = res[m - 1]
    after = c_img[prev - 1]
    for a, b in runs:
        c_img[prev - 1], d_img[a - 1] = images[a - 1], prev
        prev = images[b - 1]
    c_img[prev - 1], d_img[res[d_small.index(m)] - 1] = after, prev
    c, d = Permutation._from_ints(c_img), Permutation._from_ints(d_img)
    _check(itemgetter(*d.images)((0, *c.images)) == images, "lifted factorization must reproduce g")
    _check(an_class_of(c) == C and an_class_of(d) == D, "lifted labels must match")
    return c, d
