"""Partitions, Young-diagram geometry, and subpartition typing.

A partition plays two roles here: as a cycle type it names conjugacy
classes, and as a diagram it names irreducible characters.  This module
also states the one shrink rule of the constructive witness pipeline,
:func:`shrink_part`: every part of size 6 or more becomes the element of
{4, 5} with its parity, to be grown back later two points at a time.  A
target cycle type is broken into eight kinds of "subpartitions", and the
table ``SHRUNKEN_SHAPE`` gives the shrunken shape of each kind.  The rest
derives from the two: a piece is of a kind iff its parts shrink to that
kind's shape, ``phi`` reads the table, a piece packs into a subinterval
of length ``phi(piece).n``, and a part p grows back in
``(p - shrink_part(p)) // 2`` steps.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Iterable, Iterator

MAX_PART_SUM = 10**4


class Infeasible(ValueError):
    """A combinatorial precondition cannot be met for this input."""


class LimitExceeded(ValueError):
    """Input exceeds a configured size limit."""


class VerificationFailed(ArithmeticError):
    """A witness, a factorization or a brute-force count fails an invariant."""


class Record:
    """Base of the package's value classes, without ``dataclasses``.

    A subclass names its fields, in constructor order, in a tuple
    ``__slots__`` and sets them in its ``__init__`` with
    ``object.__setattr__``, or through :meth:`_init`, which is shorter
    but costs about 0.3 us more per instance; classes built many times
    per call set their fields directly.  It then keeps the contract of
    ``@dataclass(frozen=True)``:

    - ``x == y`` only when x and y are of the same class, by their fields;
    - ``hash(x) == hash(tuple of fields)``, so set and dict orders, and
      every output built from them, are the dataclass's;
    - ``repr(x)`` is ``Name(field=value, ...)``;
    - assigning or deleting an attribute raises ``AttributeError``;
    - ``copy`` and ``pickle`` restore the fields without ``__init__``.

    Importing ``dataclasses`` loads ``inspect``, and each decorated class
    builds its methods with ``exec``; that was a third of the cost of
    ``import ancover``, which every command pays before any arithmetic.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """An instance with these fields, without ``__init__``'s checks: for
        values the package has just derived itself."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        self._init(*state)


class Partition(Record):
    """Weakly decreasing positive parts; ``n`` is their sum."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(map(int, parts))
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if sum(parts) > MAX_PART_SUM:
            raise ValueError(f"partition size exceeds limit {MAX_PART_SUM}")
        object.__setattr__(self, "parts", parts)

    # Written out, not the base class's: every class_index lookup hashes
    # its labels' partitions.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def counts(self) -> dict[int, int]:
        """Multiplicity of each part size."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def ones(self) -> int:
        """Number of parts equal to 1."""
        return sum(1 for p in self.parts if p == 1)

    def is_even_type(self) -> bool:
        """True iff a permutation of this cycle type is even."""
        return (self.n - len(self.parts)) % 2 == 0

    def text(self) -> str:
        """Serialize as comma-separated decreasing integers, "-" if empty."""
        if not self.parts:
            return "-"
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, s: str) -> "Partition":
        """Parse "5,3,1" or "-"; token "1x26" abbreviates 26 parts of 1."""
        s = s.strip()
        if s in ("", "-"):
            return cls(())
        parts: list[int] = []
        total = 0
        for tok in s.split(","):
            size, x, count = tok.strip().partition("x")
            size, count = int(size), int(count) if x else 1
            if count < 0:
                raise ValueError(f"negative repeat count in {tok.strip()!r}")
            # Bound the size before building the parts, so a huge count
            # fails fast; a nonpositive part (rejected below) counts as 1.
            total += max(size, 1) * count
            if total > MAX_PART_SUM:
                raise ValueError(f"partition size exceeds limit {MAX_PART_SUM}")
            parts.extend([size] * count)
        return cls(sorted(parts, reverse=True))

    def __str__(self) -> str:
        return self.text()


def transpose(p: Partition) -> Partition:
    """Young-diagram transpose (an involution)."""
    if not p.parts:
        return p
    cols = [0] * p.parts[0]
    for row in p.parts:
        for j in range(row):
            cols[j] += 1
    return Partition(cols)


class FrobeniusSymbol(Record):
    """Arm and leg lengths along the diagonal of a Young diagram.

    ``arms[i] = parts[i] - (i+1)`` and ``legs`` is the same for the
    transpose; both lists are strictly decreasing and nonnegative.  For a
    self-conjugate partition arms equal legs and the diagonal hook lengths
    ``2*arms[i] + 1`` are distinct odd integers summing to n.
    """

    __slots__ = ("arms", "legs")

    def __init__(self, arms: tuple[int, ...], legs: tuple[int, ...]):
        self._init(arms, legs)

    def diagonal_hooks(self) -> tuple[int, ...]:
        return tuple(a + l + 1 for a, l in zip(self.arms, self.legs))


def frobenius_symbol(p: Partition) -> FrobeniusSymbol:
    """Frobenius symbol of a nonempty partition."""
    if not p.parts:
        raise ValueError("empty partition has no Frobenius symbol")
    t = transpose(p)
    m = 0
    while m < len(p.parts) and p.parts[m] >= m + 1:
        m += 1
    arms = tuple(p.parts[i] - (i + 1) for i in range(m))
    legs = tuple(t.parts[i] - (i + 1) for i in range(m))
    return FrobeniusSymbol(arms, legs)


def is_split_type(p: Partition) -> bool:
    """True iff all parts are odd and pairwise distinct.

    These are exactly the cycle types whose S_n class breaks into two
    A_n classes of equal size.
    """
    return all(part % 2 == 1 for part in p.parts) and len(set(p.parts)) == len(p.parts)


def shrink_part(p: int) -> int:
    """The shrink rule: a part of 6 or more becomes the element of {4, 5}
    with its parity, to be grown back later two points at a time."""
    return 4 + p % 2 if p >= 6 else p


class SubpartitionKind(IntEnum):
    """The eight shapes a target cycle type is broken into."""

    SINGLE_FIXED_POINT = 1  # 1
    THREE_WITH_FOUR_ONES = 2  # 3,1,1,1,1
    THREE_THREES = 3  # 3,3,3
    ODD_PART = 4  # m odd >= 5
    TWO_TWOS = 5  # 2,2
    FOUR_TWOS = 6  # 2,2,2,2
    TWO_WITH_EVEN = 7  # m even >= 4, with a 2
    EVEN_PAIR = 8  # m1 >= m2 even >= 4


# The shrunken shape of each kind: a piece is of kind k iff shrink_part
# maps its parts onto SHRUNKEN_SHAPE[k].  A lone fixed point shrinks away
# to the empty shape, as it needs no subinterval.
SHRUNKEN_SHAPE = {
    SubpartitionKind.SINGLE_FIXED_POINT: (),
    SubpartitionKind.THREE_WITH_FOUR_ONES: (3, 1, 1, 1, 1),
    SubpartitionKind.THREE_THREES: (3, 3, 3),
    SubpartitionKind.ODD_PART: (5,),
    SubpartitionKind.TWO_TWOS: (2, 2),
    SubpartitionKind.FOUR_TWOS: (2, 2, 2, 2),
    SubpartitionKind.TWO_WITH_EVEN: (4, 2),
    SubpartitionKind.EVEN_PAIR: (4, 4),
}


class TypedSubpartition(Record):
    __slots__ = ("kind", "parts")

    def __init__(self, kind: SubpartitionKind, parts: Partition):
        shape = SHRUNKEN_SHAPE.get(kind)
        if shape is None or tuple(map(shrink_part, parts.parts)) != (shape or (1,)):
            raise ValueError(f"parts {parts.text()} do not match kind {int(kind)}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "parts", parts)


# Frozen, so every lone fixed point of a decomposition can share them.
_FIXED_POINT = TypedSubpartition(SubpartitionKind.SINGLE_FIXED_POINT, Partition((1,)))
_SHAPES = {kind: Partition(shape) for kind, shape in SHRUNKEN_SHAPE.items()}


def decompose_subpartitions(mu: Partition) -> list[TypedSubpartition]:
    """Break an even cycle type into typed pieces.

    Deterministic policy: odd parts >= 5 stand alone (kind 4); parts of 3
    are grouped in triples (kind 3) and one or two leftovers each absorb
    four 1-parts (kind 2); even parts >= 4 are paired largest-first
    (kind 8) with an unpaired leftover joining a 2-part (kind 7); the
    remaining 2-parts are grouped in fours (kind 6) and at most one pair
    (kind 5); remaining 1-parts stand alone (kind 1).

    Raises Infeasible when the leftover 3-parts cannot absorb enough
    1-parts.  At most two kind-2 pieces and at most one kind-5 piece are
    ever produced.
    """
    if not mu.is_even_type():
        raise ValueError(f"{mu.text()} is not the cycle type of an even permutation")
    counts = mu.counts()
    ones = counts.get(1, 0)
    twos = counts.get(2, 0)
    threes = counts.get(3, 0)
    odd_big = sorted((p for p in mu.parts if p >= 5 and p % 2 == 1), reverse=True)
    even_big = sorted((p for p in mu.parts if p >= 4 and p % 2 == 0), reverse=True)

    pieces: list[TypedSubpartition] = []

    def add(kind: SubpartitionKind, *parts: int) -> None:
        # each call site passes its kind's parts in decreasing order
        pieces.append(TypedSubpartition._trusted(kind, Partition._trusted(parts)))

    for m in odd_big:
        add(SubpartitionKind.ODD_PART, m)

    for _ in range(threes // 3):
        add(SubpartitionKind.THREE_THREES, 3, 3, 3)
    leftover_threes = threes % 3
    if 4 * leftover_threes > ones:
        raise Infeasible(
            f"{leftover_threes} leftover 3-part(s) need {4 * leftover_threes} "
            f"fixed points but only {ones} are available"
        )
    for _ in range(leftover_threes):
        add(SubpartitionKind.THREE_WITH_FOUR_ONES, 3, 1, 1, 1, 1)
        ones -= 4

    for i in range(0, len(even_big) - 1, 2):
        add(SubpartitionKind.EVEN_PAIR, even_big[i], even_big[i + 1])
    if len(even_big) % 2:
        # Parity of the even-part count is even for an even cycle type, so
        # an unpaired leftover guarantees an available 2-part.
        if twos == 0:
            raise Infeasible("an unpaired even part needs a 2-part companion")
        add(SubpartitionKind.TWO_WITH_EVEN, even_big[-1], 2)
        twos -= 1

    for _ in range(twos // 4):
        add(SubpartitionKind.FOUR_TWOS, 2, 2, 2, 2)
    rem = twos % 4
    if rem == 2:
        add(SubpartitionKind.TWO_TWOS, 2, 2)
    elif rem:
        raise Infeasible("odd number of leftover 2-parts")

    # Kind 1 sorts first, and its pieces are all one shared piece.
    pieces.sort(key=lambda s: (int(s.kind), tuple(-p for p in s.parts.parts)))
    pieces[:0] = [_FIXED_POINT] * ones
    if sorted(itertools.chain(*(s.parts.parts for s in pieces)), reverse=True) != list(mu.parts):
        raise AssertionError(f"pieces do not reassemble {mu.text()}: {pieces}")
    return pieces


def phi(s: TypedSubpartition) -> Partition:
    """Shrink a piece: the shrunken shape of its kind."""
    return _SHAPES[s.kind]


def centralizer_order(p: Partition) -> int:
    """Order of the S_n centralizer of a permutation of this cycle type."""
    z = 1
    for size, mult in p.counts().items():
        z *= size**mult
        for j in range(2, mult + 1):
            z *= j
    return z


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in descending lexicographic order, by the
    iterative ZS1 algorithm (Zoghbi & Stojmenovic, 1998).  Each step
    lowers the last part above 1, x[h], by one and refills the parts
    after it from what that frees, r = x[h] at a time, then the rest."""
    if n <= 0:
        if n == 0:
            yield Partition._trusted(())
        return
    x = [1] * n
    x[0], m, h = n, 1, 0  # m parts, all of them 1 after x[h]
    yield Partition._trusted((n,))
    while x[0] > 1:
        if x[h] == 2:
            x[h], m, h = 1, m + 1, h - 1
        else:
            r = x[h] = x[h] - 1
            t = m - h  # what lowering x[h] and dropping its trailing 1s frees
            while t >= r:
                h += 1
                x[h], t = r, t - r
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield Partition._trusted(tuple(x[:m]))
