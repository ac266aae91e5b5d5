"""Permutations of {1..n}, cycle structure, and A_n class labels.

Products compose right to left: ``(a * b)(x) == a(b(x))``.  Degrees are
explicit; operations on mismatched degrees raise instead of embedding
silently, and :func:`embed` pads with fixed points when an embedding is
wanted.  Every Permutation passes the one bijection check,
:func:`_bijection`, behind two entry points: ``Permutation(...)`` first
converts each image with ``int()``, for outside input, and
``Permutation._from_ints`` skips that pass for images the package built
from ints itself.
``_walk`` builds the cycles; ``_cycle_count`` takes the same walk without
building anything, for parities and split signs.

An A_n class is named by its cycle type plus an optional sign.  A sign is
present exactly when the type has pairwise distinct odd parts (the split
case).  The ``+`` class is the one containing the representative whose
cycles are filled with consecutive integers in decreasing length order;
this convention is what anchors the irrational character values in
:mod:`ancover.characters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ancover.combinatorics import (
    MAX_PART_SUM,
    LimitExceeded,
    Partition,
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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

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
    def identity(cls, n: int) -> "Permutation":
        return cls._from_ints(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = list(map(int, cyc))
            points = set(cyc)
            bad = cyc and (min(cyc) < 1 or max(cyc) > n)
            if bad or len(points) < len(cyc) or not points.isdisjoint(seen):
                for x in cyc:  # name the first offending point
                    if not 1 <= x <= n:
                        raise ValueError(f"point {x} out of range 1..{n}")
                    if x in seen:
                        raise ValueError(f"point {x} appears in two cycles")
                    seen.add(x)
            seen |= points
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls._from_ints(images)

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

    def cycles(self, *, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its minimum, longest first."""
        out = [tuple(c) for c in _walk(self.images) if include_fixed or len(c) > 1]
        out.sort(key=len, reverse=True)  # stable: ties stay ordered by minimum
        return out

    def cycle_type(self) -> Partition:
        return cycle_type(self)

    def parity(self) -> int:
        """0 for even, 1 for odd: a product of c cycles (fixed points
        included) is a product of n - c transpositions."""
        return (self.n - _cycle_count(self.images)) % 2

    def support(self) -> list[int]:
        return [i + 1 for i, y in enumerate(self.images) if i + 1 != y]

    def format_images(self) -> str:
        return " ".join(str(x) for x in self.images)

    def format_cycles(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cycs)

    def __str__(self) -> str:
        return self.format_cycles()


def conjugate(g: Permutation, s: Permutation) -> Permutation:
    """s g s^-1."""
    if g.n != s.n:
        raise DegreeMismatch(f"degree {g.n} vs {s.n}")
    return s * g * s.inverse()


def _walk(images: Sequence[int]) -> list[list[int]]:
    """Every cycle of the permutation with these images, fixed points
    included, each starting at its least point, in order of that point."""
    img = (0, *images)
    seen = [False] * len(img)
    out: list[list[int]] = []
    for start in range(1, len(img)):
        if seen[start]:
            continue
        x = img[start]
        if x == start:
            out.append([start])
            continue
        cyc = [start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = img[x]
        out.append(cyc)
    return out


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


def _type_of_walk(walk: list[list[int]]) -> Partition:
    return Partition(sorted(map(len, walk), reverse=True))


def cycle_type(g: Permutation) -> Partition:
    return _type_of_walk(_walk(g.images))


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


@dataclass(frozen=True)
class ClassLabel:
    """An A_n conjugacy class: cycle type plus sign for split types."""

    cycle_type: Partition
    sign: str | None = None

    def __post_init__(self):
        if self.sign not in (None, "+", "-"):
            raise ValueError(f"sign must be None, '+' or '-', got {self.sign!r}")
        if not self.cycle_type.is_even_type():
            raise ValueError(f"{self.cycle_type.text()} is an odd cycle type")
        if (self.sign is not None) != splits_in_an(self.cycle_type):
            raise ValueError(
                f"type {self.cycle_type.text()} "
                + ("requires a sign" if is_split_type(self.cycle_type) else "takes no sign")
            )

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


def iter_an_class_labels(n: int) -> Iterator[ClassLabel]:
    """All A_n class labels, in a fixed deterministic order, one at a time."""
    for p in enumerate_partitions(n):
        if not p.is_even_type():
            continue
        if splits_in_an(p):
            yield ClassLabel(p, "+")
            yield ClassLabel(p, "-")
        else:
            yield ClassLabel(p)


def an_class_labels(n: int) -> list[ClassLabel]:
    """All A_n class labels, in a fixed deterministic order."""
    return list(iter_an_class_labels(n))


def class_representative(label: ClassLabel) -> Permutation:
    """Canonical representative: consecutive fill, longest cycle first.

    The "-" representative is the "+" one conjugated by the transposition
    of the two largest points of its longest cycle.
    """
    n = label.n
    cycles: list[list[int]] = []
    next_pt = 1
    for length in label.cycle_type.parts:
        cycles.append(list(range(next_pt, next_pt + length)))
        next_pt += length
    g = Permutation.from_cycles(n, cycles)
    if label.sign == "-":
        top = label.cycle_type.parts[0]
        if top < 2:
            raise ValueError("split type cannot consist of fixed points only")
        t = Permutation.from_cycles(n, [(top - 1, top)])
        g = t * g * t
    return g


def an_class_of(g: Permutation) -> ClassLabel:
    """Label of the A_n class of an even permutation.

    For a split cycle type the sign is the parity of the canonical
    conjugator aligning g's cycles (longest first, each written from its
    minimum) with the consecutive-fill representative: even means "+".
    That conjugator is the inverse of the aligned word read as a list of
    images, so both have the same parity.  The parity does not depend on
    the rotation chosen for each cycle because all cycle lengths are odd.
    """
    walk = _walk(g.images)
    if (g.n - len(walk)) % 2:
        raise OddPermutation(f"{g} is not in A_{g.n}")
    t = _type_of_walk(walk)
    if not splits_in_an(t):
        return ClassLabel(t)
    walk.sort(key=len, reverse=True)
    word = [x for cyc in walk for x in cyc]
    return ClassLabel(t, "-" if (g.n - _cycle_count(word)) % 2 else "+")


def kappa(g: Permutation) -> int:
    """Number of cycles of length congruent to 3 mod 4."""
    return kappa_of_type(cycle_type(g))


def kappa_of_type(t: Partition) -> int:
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


def random_permutation(n: int, rng) -> Permutation:
    """Uniform random permutation from an externally seeded Random."""
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation._from_ints(images)


def random_even_permutation(n: int, rng) -> Permutation:
    g = random_permutation(n, rng)
    if g.parity() == 1:
        imgs = list(g.images)
        imgs[0], imgs[1] = imgs[1], imgs[0]
        g = Permutation._from_ints(imgs)
    return g
