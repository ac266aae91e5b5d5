"""Permutations of {1..n}, cycle structure, and A_n class labels.

Products compose right to left: ``(a * b)(x) == a(b(x))``.  Degrees are
explicit; operations on mismatched degrees raise instead of embedding
silently, and :func:`embed` pads with fixed points when an embedding is
wanted.  A Permutation is checked as a bijection once, by
:func:`_bijection` behind three entry points: ``Permutation(...)``
converts each image with ``int()`` first, for outside input;
``Permutation._from_ints`` takes images the package built from ints, and
``Permutation._from_words`` disjoint int words it built, after one check
that their points are distinct and within 1..n (``from_cycles`` converts
outside cycles and delegates to it); or, for an n-cycle the package
built, by the walk from 1 of :func:`_full_cycle`.  One walk, ``_walk``,
gives the cycles and the fixed-point count that ``cycle_type`` and
``an_class_of`` read; ``_cycle_count`` walks without building anything.

An A_n class is named by its cycle type plus an optional sign.  A sign is
present exactly when the type has pairwise distinct odd parts (the split
case).  The ``+`` class is the one containing the representative whose
cycles are filled with consecutive integers in decreasing length order;
this convention is what anchors the irrational character values in
:mod:`ancover.characters`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ancover.combinatorics import (
    MAX_PART_SUM,
    LimitExceeded,
    Partition,
    Record,
    centralizer_order,
    enumerate_partitions,
    is_split_type,
)


class DegreeMismatch(ValueError):
    """Operands act on different point sets."""


class OddPermutation(ValueError):
    """An odd permutation where an element of A_n is required."""


def splits_in_an(p: Partition) -> bool:
    """Whether the S_n class of this even type breaks into two A_n classes.

    Equivalent to distinct odd parts, except at n = 1 where S_1 = A_1.
    """
    return p.n >= 2 and is_split_type(p)


def _bijection(images: tuple[int, ...]) -> tuple[int, ...]:
    """The images, checked to be a bijection of 1..n."""
    n = len(images)
    # n distinct integers between 1 and n are exactly 1..n
    if n and (min(images) != 1 or max(images) != n or len(set(images)) != n):
        raise ValueError(f"not a bijection of 1..{n}: {images}")
    return images


class Permutation(Record):
    """Bijection of {1..n}, stored as the tuple of images of 1..n."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        object.__setattr__(self, "images", _bijection(tuple(map(int, images))))

    @classmethod
    def _from_ints(cls, images: Iterable[int]) -> "Permutation":
        """``Permutation(images)`` for images that are already ints: the
        same check, without the ``int()`` pass."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", _bijection(tuple(images)))
        return p

    @classmethod
    def _from_words(cls, n: int, words: Sequence[Sequence[int]]) -> "Permutation":
        """The product of the cycles these int words spell, each mapping a
        point to the next and its last point to its first."""
        points: list[int] = []
        images: list[int] = []
        for w in words:
            if w:
                points += w
                images += w[1:]
                images.append(w[0])
        if points and (min(points) < 1 or max(points) > n or len(set(points)) != len(points)):
            raise ValueError(f"words are not disjoint cycles on 1..{n}")
        img = list(range(n + 1))
        for x, y in zip(points, images):
            img[x] = y
        return cls._from_ints(img[1:])

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        words = [list(map(int, cyc)) for cyc in cycles]
        try:
            return cls._from_words(n, words)
        except ValueError:
            seen: set[int] = set()
            for x in (x for w in words for x in w):  # name the first offending point
                if not 1 <= x <= n:
                    raise ValueError(f"point {x} out of range 1..{n}") from None
                if x in seen:
                    raise ValueError(f"point {x} appears in two cycles") from None
                seen.add(x)
            raise

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise DegreeMismatch(f"degree {self.n} vs {other.n}")
        images = (0, *self.images)
        return Permutation._from_ints([images[y] for y in other.images])

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, y in enumerate(self.images):
            inv[y - 1] = i + 1
        return Permutation._from_ints(inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, longest first."""
        out = [tuple(c) for c in _walk(self.images)[0]]
        out.sort(key=len, reverse=True)  # stable: ties stay ordered by minimum
        return out

    def cycle_type(self) -> Partition:
        return cycle_type(self)

    def parity(self) -> int:
        """0 for even, 1 for odd: a product of c cycles (fixed points
        included) is a product of n - c transpositions."""
        return (self.n - _cycle_count(self.images)) % 2

    def format_images(self) -> str:
        return " ".join(str(x) for x in self.images)

    def format_cycles(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.format_cycles()


def _walk(images: Sequence[int]) -> tuple[list[list[int]], int]:
    """Every cycle of length 2 or more of the permutation with these
    images, each starting at its least point, in order of that point; and
    the number of fixed points.  A cycle through every point ends the walk."""
    img = (0, *images)
    seen = [False] * len(img)
    out: list[list[int]] = []
    fixed = 0
    for start in range(1, len(img)):
        if seen[start]:
            continue
        x = img[start]
        if x == start:
            fixed += 1
            continue
        cyc = [start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = img[x]
        if len(cyc) == len(images):
            return [cyc], 0
        out.append(cyc)
    return out, fixed


def _cycle_count(images: Sequence[int]) -> int:
    """Number of cycles, fixed points included: the walk of :func:`_walk`
    without building any cycle."""
    img = (0, *images)
    seen = [False] * len(img)
    count = 0
    for start in range(1, len(img)):
        if seen[start]:
            continue
        count += 1
        x = img[start]
        while x != start:
            seen[x] = True
            x = img[x]
    return count


def _full_cycle(images: Sequence[int]) -> tuple[Permutation, str]:
    """The Permutation of int images that must form one cycle through 1..n,
    and the split sign :func:`an_class_of` gives it at odd n.  With values
    in 1..n, the walk from 1 first returns at step n just when they do."""
    n, img, word = len(images), (0, *images), [1]
    try:
        x = img[1]
        for _ in range(n - 1):
            if x == 1:
                break
            word.append(x)
            x = img[x]
    except IndexError:  # a value above n
        x = 0
    if x != 1 or len(word) != n or min(images) < 1:
        raise ValueError(f"not one cycle through 1..{n}")
    return Permutation._trusted(img[1:]), "-" if (n - _cycle_count(word)) % 2 else "+"


def cycle_type(g: Permutation) -> Partition:
    cycles, fixed = _walk(g.images)
    return Partition._trusted((*sorted(map(len, cycles), reverse=True), *(1,) * fixed))


def embed(g: Permutation, n: int) -> Permutation:
    """View g in a larger degree, the new points fixed."""
    if n < g.n:
        raise DegreeMismatch(f"cannot embed degree {g.n} into {n}")
    return Permutation._from_ints(g.images + tuple(range(g.n + 1, n + 1)))


def _check_degree(n: int) -> None:
    if n > MAX_PART_SUM:
        raise LimitExceeded(f"degree {n} exceeds limit {MAX_PART_SUM}")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse "2 3 4 5 1" (image list) or "(1,2,3)(4,5)" (cycles).

    A degree above MAX_PART_SUM raises LimitExceeded before any images
    are built.
    """
    if n is not None:
        _check_degree(n)
    text = text.strip()
    if text.startswith("("):
        cycles: list[list[int]] = []
        maxpt = 0
        for chunk in text.replace(")(", ")|(").split("|"):
            chunk = chunk.strip()
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError(f"bad cycle notation: {text!r}")
            body = chunk[1:-1].strip()
            if not body:
                continue
            cyc = [int(t) for t in body.replace(",", " ").split()]
            cycles.append(cyc)
            maxpt = max(maxpt, max(cyc))
        degree = n if n is not None else maxpt
        _check_degree(degree)
        return Permutation.from_cycles(degree, cycles)
    images = [int(t) for t in text.replace(",", " ").split()]
    g = Permutation(images)
    if n is not None and n != g.n:
        g = embed(g, n)
    return g


class ClassLabel(Record):
    """An A_n conjugacy class: cycle type plus sign for split types."""

    __slots__ = ("cycle_type", "sign")

    def __init__(self, cycle_type: Partition, sign: str | None = None):
        if sign not in (None, "+", "-"):
            raise ValueError(f"sign must be None, '+' or '-', got {sign!r}")
        if not cycle_type.is_even_type():
            raise ValueError(f"{cycle_type.text()} is an odd cycle type")
        if (sign is not None) != splits_in_an(cycle_type):
            raise ValueError(
                f"type {cycle_type.text()} "
                + ("requires a sign" if is_split_type(cycle_type) else "takes no sign")
            )
        object.__setattr__(self, "cycle_type", cycle_type)
        object.__setattr__(self, "sign", sign)

    # Written out, not the base class's: every class_index lookup hashes
    # the label.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.cycle_type, self.sign) == (other.cycle_type, other.sign)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.cycle_type, self.sign))

    @property
    def n(self) -> int:
        return self.cycle_type.n

    def is_split(self) -> bool:
        return self.sign is not None

    def text(self) -> str:
        base = self.cycle_type.text()
        return f"{base}:{self.sign}" if self.sign else base

    def __str__(self) -> str:
        return self.text()


def parse_class_label(text: str) -> ClassLabel:
    """Parse "5,3,1:+" or "2,2,1" or "1x26"."""
    body, _, sign = text.strip().partition(":")
    p = Partition.from_text(body)
    return ClassLabel(p, sign if sign else None)


def an_class_labels(n: int) -> list[ClassLabel]:
    """All A_n class labels, in a fixed deterministic order: those of each
    even cycle type in turn, two if it splits."""
    evens = filter(Partition.is_even_type, enumerate_partitions(n))
    return [ClassLabel(p, s) for p in evens for s in (("+", "-") if splits_in_an(p) else (None,))]


def _representative_words(label: ClassLabel) -> list[list[int]]:
    """The cycles of :func:`class_representative`, as its ``cycles()``
    lists them: consecutive fill, longest cycle first, fixed points left
    out; the "-" words swap the two largest points of the longest cycle."""
    words: list[list[int]] = []
    next_pt = 1
    for length in label.cycle_type.parts:
        if length > 1:
            words.append(list(range(next_pt, next_pt + length)))
        next_pt += length
    if label.sign == "-":
        if not words:
            raise ValueError("split type cannot consist of fixed points only")
        words[0][-2:] = words[0][:-3:-1]
    return words


def class_representative(label: ClassLabel) -> Permutation:
    """Canonical representative: consecutive fill, longest cycle first.

    The "-" representative is the "+" one conjugated by the transposition
    of the two largest points of its longest cycle.
    """
    return Permutation._from_words(label.n, _representative_words(label))


def an_class_of(g: Permutation) -> ClassLabel:
    """Label of the A_n class of an even permutation.

    For a split cycle type the sign is the parity of the canonical
    conjugator aligning g's cycles (longest first, each written from its
    minimum) with the consecutive-fill representative: even means "+".
    That conjugator is the inverse of the aligned word read as a list of
    images, so both have the same parity.  The parity does not depend on
    the rotation chosen for each cycle because all cycle lengths are odd.
    """
    cycles, fixed = _walk(g.images)
    n = g.n
    if (n - len(cycles) - fixed) % 2:
        raise OddPermutation(f"{g} is not in A_{n}")
    lengths = sorted(map(len, cycles), reverse=True)
    t = Partition._trusted((*lengths, *(1,) * fixed))
    if not splits_in_an(t):
        return ClassLabel._trusted(t, None)
    cycles.sort(key=len, reverse=True)
    word = cycles[0] if len(cycles) == 1 else [x for cyc in cycles for x in cyc]
    if fixed:  # the one fixed point is what the word leaves out of 1..n
        word.append(n * (n + 1) // 2 - sum(word))
    return ClassLabel._trusted(t, "-" if (n - _cycle_count(word)) % 2 else "+")


def kappa_of_type(t: Partition) -> int:
    """Number of parts congruent to 3 mod 4."""
    return sum(1 for p in t.parts if p % 4 == 3)


def an_class_size(label: ClassLabel) -> int:
    """Size of the labeled A_n class (split classes are half S_n classes)."""
    n = label.n
    size = math.factorial(n) // centralizer_order(label.cycle_type)
    if label.is_split():
        size //= 2
    return size


def inverse_label(label: ClassLabel) -> ClassLabel:
    """Label of the class of inverses; the sign flips iff kappa is odd."""
    if not label.is_split():
        return label
    if kappa_of_type(label.cycle_type) % 2 == 0:
        return label
    return ClassLabel(label.cycle_type, "-" if label.sign == "+" else "+")
