"""Exact irreducible character values of S_n and A_n.

Values of S_n characters come from the Murnaghan-Nakayama rule, taken
only at the partitions asked for (one per A_n irreducible in a table
build), each its beta set on an n-bead abacus (a bitmask).  chi_lam(mu)
is the signed sum of the column of mu without its largest part r at lam
less each r-rim hook: one bead moved from b + r to an empty b, signed by
the parity of the beads strictly between.  That column is a list over
the partitions of n - r, pulled the same way from the column of its own
suffix, so each step is one C-level gather over hook lists: the r-rim
hook removals of each partition of m, as indices into those of m - r.
Types that share a suffix share its column for one build or one
:func:`mn_values` call.  The lists for a size m depend only on (m, r);
for m below ``TABLE_LIMIT`` they are kept, by calls at n <= the limit,
and shared by every later build and call in the process, while those at
a table's own irreducibles are listed per build.  Tables are built for
2 <= n <= ``TABLE_LIMIT`` and kept in one module-level cache keyed by n.

A_n irreducibles are restrictions: one per transpose-pair of partitions,
and a pair of constituents for each self-conjugate partition.  Each
constituent pair is rational except on the two classes whose cycle type
equals the diagonal hooks h_1 > ... > h_m of its partition, where the
values are ``(eps +- sqrt(eps * h_1 * ... * h_m)) / 2`` with
``eps = (-1)^((n - m) / 2)``.

The sign bookkeeping is anchored to the class labeling of
:mod:`ancover.permutations`: the "+" constituent is the one taking the
``+sqrt`` value on the "+" class (the class of the consecutive-fill
representative).

A :class:`CharacterTable` stores integers only: twice the rational part
of every cell, plus, for each split constituent, one squarefree radicand
d and the integer coefficients of sqrt(d) on its two hook classes.  It is
built straight from MN values; :class:`AlgebraicValue` cells are derived
on demand.  Every build runs quick checks (square shape, degrees, and
column orthogonality across each split class pair).  The full check,
:meth:`CharacterTable.verify_orthogonality`, is exact column
orthogonality, which includes all three and implies row orthogonality
for a square table, and |chi(g)| <= chi(1) on every cell.  Tables are
written (:meth:`CharacterTable.dump`) but never read back.  Column sums,
here and in :mod:`ancover.classalgebra`, come from one exact kernel,
:meth:`CharacterTable.column_sums`.  A failed check raises
:class:`TableCheckFailed`, also under ``python -O``.

The kernel takes its weights factored: the columns whose values are
multiplied and a power of |G|/chi(1).  A call that asks for many target
columns is one exact matrix-vector product on packed rows: row i is the
single int sum_j rows[i][j] * 2^(W j), with W a multiple of 64 bits, and
the column sums are the W-bit slots of sum_i w_i * row_i.  W is the least
width with sum_i |w_i| * max_j |rows[i][j]| < 2^(W - 1); every slot then
lies strictly between -2^(W - 1) and 2^(W - 1), and adding 2^(W - 1) to
each makes them the borrow-free words of one nonnegative int.  A build
takes max_j |rows[i][j]| from the degrees, as |chi(g)| <= chi(1)
(:attr:`CharacterTable._row_max`).  Packed rows are built on the first
such call for a width and kept on the table (widths up to three words),
never during a build or the quick checks.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, repeat
from operator import mul, neg, sub
from typing import Iterable, Iterator, Sequence, TextIO

from ancover.combinatorics import (
    LimitExceeded,
    Partition,
    Record,
    centralizer_order,
    enumerate_partitions,
    frobenius_symbol,
    is_split_type,
)
from ancover.permutations import ClassLabel, inverse_label

TABLE_LIMIT = 24


def _squarefree_split(d: int) -> tuple[int, int]:
    """d = s*s*d0 with d0 squarefree (sign kept on d0); returns (s, d0)."""
    if d == 0:
        return 1, 0
    sign = -1 if d < 0 else 1
    d = abs(d)
    s = 1
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, sign * d


class AlgebraicValue(Record):
    """Exact value a + b*sqrt(d) with rational a, b and integer d.

    Normalized so that d is squarefree and d == 1 exactly when the value
    is rational (b == 0); d may be negative.  It is how a table cell is
    shown and compared (:attr:`CharacterTable.values`); the arithmetic on
    tables runs on their integers.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a = Fraction(a)
        b = Fraction(b)
        s, d0 = _squarefree_split(int(d))
        b *= s
        if d0 in (0, 1):
            a += b * d0  # sqrt(0) = 0, sqrt(1) = 1
            b = Fraction(0)
            d0 = 1
        if b == 0:
            d0 = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d0)

    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.a)
        return f"{self.a} + {self.b}*sqrt({self.d})"


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama rule


def _abacus(lam: tuple[int, ...], beads: int) -> int:
    """The beta set of lam on an abacus of the given number of beads, as a
    bitmask: part i sits at position lam_i + beads - 1 - i, and the zero
    parts fill positions 0 .. beads - len(lam) - 1."""
    mask = (1 << (beads - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + beads - 1 - i)
    return mask


# Shared by every build and mn_values call at n <= TABLE_LIMIT, for sizes
# m below TABLE_LIMIT: the partitions of m as {m-bead abacus: index}, and
# per (m, r) the r-rim hook lists of every partition of m.
_PARTITION_INDEX: dict[int, dict[int, int]] = {}
_RIM_HOOKS: dict[tuple[int, int], tuple[list[int], list[int]]] = {}


def _partition_index(m: int, keep: bool) -> dict[int, int]:
    """{abacus: index} over the partitions of m on m beads, in the order of
    enumerate_partitions (as _labels walks them)."""
    index = _PARTITION_INDEX.get(m)
    if index is None:
        index = {_abacus(p.parts, m): i for i, p in enumerate(enumerate_partitions(m))}
        if keep:
            _PARTITION_INDEX[m] = index
    return index


def _removed_rim_hooks(masks: Iterable[int], r: int, index: dict[int, int]) -> tuple[list[int], list[int]]:
    """(removed, cuts): each mask, a partition of m on m beads, less each of
    its r-rim hooks at removed[cuts[i]:cuts[i + 1]], as the index in index
    (the partitions of m - r) of what is left, complemented (~) when the
    hook's sign is odd.  Removing a hook moves one bead b down to an empty
    b - r, signed by the parity of the beads strictly between; the bottom
    r beads are then all filled, so the rest is the (m - r)-bead abacus."""
    removed, cuts = [], [0]
    between = (1 << (r - 1)) - 1
    for mask in masks:
        movable = mask & ~(mask << r) >> r << r
        while movable:
            bit = movable & -movable
            movable ^= bit
            i = index[(mask ^ bit ^ (bit >> r)) >> r]
            odd = ((mask >> (bit.bit_length() - r)) & between).bit_count() & 1
            removed.append(~i if odd else i)
        cuts.append(len(removed))
    return removed, cuts


def _pull(column: list[int], hooks: tuple[list[int], list[int]]) -> list[int]:
    """The signed sum of column over the hook removals of each listed mask,
    as C-level gathers: each value is a difference of running sums."""
    removed, cuts = hooks
    signed = column + list(map(neg, reversed(column)))  # signed[~i] == -column[i]
    sums = list(accumulate(map(signed.__getitem__, removed), initial=0))
    at_cuts = list(map(sums.__getitem__, cuts))
    return list(map(sub, at_cuts[1:], at_cuts))


def _mn_rows(
    n: int, masks: Sequence[int], types: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """(mu, [chi_lam(mu) for each mask]) for every nonempty cycle type mu of
    n in types (parts in descending order), each lam given by _abacus(lam, n).

    The value at lam is the signed sum of the column of mu without its
    largest part r at lam less each r-rim hook.  That column, a list over
    the partitions of n - r, tops a stack of suffix columns, each pulled
    from the one below.  Types are visited in the order of their reversed
    parts, so types sharing a suffix are consecutive: every suffix column
    is computed once and kept only while a later type still extends it.
    """
    keep = n <= TABLE_LIMIT
    types = sorted(types, key=lambda t: t[::-1])
    tops = {r: _removed_rim_hooks(masks, r, _partition_index(n - r, keep)) for r in {mu[0] for mu in types}}
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), [1])]
    for mu in types:
        r, rest = mu[0], mu[:0:-1]  # the other parts, smallest first
        while stack[-1][0] != rest[: len(stack[-1][0])]:
            stack.pop()
        for k in range(len(stack[-1][0]), len(rest)):
            m, part = sum(rest[: k + 1]), rest[k]
            hooks = _RIM_HOOKS.get((m, part))
            if hooks is None:
                hooks = _removed_rim_hooks(_partition_index(m, keep), part, _partition_index(m - part, keep))
                if keep:
                    _RIM_HOOKS[m, part] = hooks
            stack.append((rest[: k + 1], _pull(stack[-1][1], hooks)))
        yield mu, _pull(stack[-1][1], tops[r])


def mn_values(lams: Sequence[Partition], mu: Partition) -> list[int]:
    """Exact S_n character values chi_lam(mu) for each lam."""
    for lam in lams:
        if lam.n != mu.n:
            raise ValueError(f"|lam| = {lam.n} but |mu| = {mu.n}")
    if not mu.parts:
        return [1] * len(lams)
    masks = [_abacus(lam.parts, mu.n) for lam in lams]
    ((_, values),) = _mn_rows(mu.n, masks, [tuple(sorted(mu.parts, reverse=True))])
    return values


def hook_size(lam: Partition) -> int | None:
    """Size of a hook diagram (shorter of first row/column), else None."""
    if len(lam.parts) > 1 and lam.parts[1] > 1:
        return None
    if not lam.parts:
        return None
    return min(lam.parts[0], len(lam.parts))


# ---------------------------------------------------------------------------
# A_n irreducibles


def _transpose_mask(mask: int, n: int) -> int:
    """The n-bead abacus of the transposed partition: the complement of
    mask in 2n positions, read backwards.  Of two partitions of n, the
    larger mask is the lexicographically larger partition."""
    return int(format(mask ^ ((1 << 2 * n) - 1), f"0{2 * n}b")[::-1], 2)


class IrreducibleLabel(Record):
    """A_n irreducible: a partition, signed when it is self-conjugate."""

    __slots__ = ("partition", "sign")

    def __init__(self, partition: Partition, sign: str | None = None):
        if sign not in (None, "+", "-"):
            raise ValueError(f"bad sign {sign!r}")
        n = partition.n
        mask = _abacus(partition.parts, n)
        self_conj = n >= 2 and _transpose_mask(mask, n) == mask
        if (sign is not None) != self_conj:
            raise ValueError(
                f"partition {partition.text()} "
                + ("requires a sign" if self_conj else "takes no sign")
            )
        self._init(partition, sign)

    @property
    def n(self) -> int:
        return self.partition.n

    def is_split(self) -> bool:
        return self.sign is not None

    def text(self) -> str:
        base = self.partition.text()
        return f"{base}:{self.sign}" if self.sign else base

    def __str__(self) -> str:
        return self.text()


def _labels(n: int) -> tuple[list[ClassLabel], list[int], list[IrreducibleLabel], list[int]]:
    """The classes of A_n (n >= 2) and their sizes, and the irreducibles
    and the abacus mask of each one's partition, in table order, from one
    walk over the partitions of n: an irreducible per transpose pair, at
    its larger mask, and two per self-conjugate partition.  Each label is
    built from what the walk has just worked out, without rechecking it;
    the masks of the walk are kept as the shared partition index of n."""
    classes, sizes, irreducibles, masks, index = [], [], [], [], {}
    order = math.factorial(n)
    for p in enumerate_partitions(n):
        if p.is_even_type():
            signs = ("+", "-") if is_split_type(p) else (None,)
            classes += [ClassLabel._trusted(p, s) for s in signs]
            sizes += [order // centralizer_order(p) // len(signs)] * len(signs)
        mask = _abacus(p.parts, n)
        index[mask] = len(index)
        transposed = _transpose_mask(mask, n)
        if mask >= transposed:
            signs = ("+", "-") if mask == transposed else (None,)
            irreducibles += [IrreducibleLabel._trusted(p, s) for s in signs]
            masks += [mask] * len(signs)
    if n < TABLE_LIMIT:
        _PARTITION_INDEX.setdefault(n, index)
    return classes, sizes, irreducibles, masks


# ---------------------------------------------------------------------------
# Tables


class TableCheckFailed(ArithmeticError):
    """An exactness check on a character table failed."""


def _slot_ones(words: int, k: int) -> int:
    """sum_j 2^(64 * words * j) over k slots: a 1 at the bottom of each."""
    return int.from_bytes((b"\x01" + bytes(8 * words - 1)) * k, "little")


def _read_slots(total: int, words: int, k: int) -> list[int]:
    """The signed slots s_j of total = sum_j s_j * 2^(64 * words * j), given
    |s_j| < 2^(64 * words - 1) for all k slots.

    Adding 2^(64 * words - 1) to every slot makes each one a nonnegative
    number below 2^(64 * words), so the slots are the words of the sum,
    read without borrows.
    """
    half = 1 << (64 * words - 1)
    data = (total + half * _slot_ones(words, k)).to_bytes(8 * words * k, "little")
    if words == 1:
        slots = struct.unpack(f"<{k}Q", data)
    else:
        chunks = struct.unpack(f"{8 * words}s" * k, data)
        slots = list(map(int.from_bytes, chunks, repeat("little")))
    return list(map(sub, slots, repeat(half)))


class CharacterTable:
    """Complete exact A_n character table with deterministic labeling.

    The table is stored as integers.  ``rows[i][j]`` is twice the rational
    part of chi_i on class j, and ``surds[i] = (d, {j: b})`` holds the
    irrational part of row i, if it has one: chi_i(class j) equals
    ``(rows[i][j] + b * sqrt(d)) / 2`` with d squarefree and not 1.  Only
    split constituents have surds, on the two classes of their
    diagonal-hook type.  ``columns`` is the transpose of ``rows`` (both
    tuples, so they cannot drift apart), ``inverse_index[j]`` the
    column of the class of inverses of class j, and
    ``order_over_degree[i]`` is |G| / chi_i(1), worked out on first use.
    """

    def __init__(
        self,
        n: int,
        classes: list[ClassLabel],
        class_sizes: list[int],
        irreducibles: list[IrreducibleLabel],
        rows: list[list[int]],
        surds: dict[int, tuple[int, dict[int, int]]],
    ):
        self.n = n
        self.classes = list(classes)
        self.class_sizes = list(class_sizes)
        self.irreducibles = list(irreducibles)
        self.rows = [tuple(row) for row in rows]
        self.surds = surds
        self.columns = list(zip(*self.rows))
        self.group_order = math.factorial(n) // 2 if n >= 2 else 1
        self._class_index = {c: i for i, c in enumerate(self.classes)}
        self.inverse_index = [self._class_index[inverse_label(c)] for c in self.classes]
        self._packed: dict[int, list[int]] = {}
        self._hook_rows: dict[int, list[int]] = {}  # split rows with a sqrt(d) part at column j
        for i, (_, coefs) in surds.items():
            for j in coefs:
                self._hook_rows.setdefault(j, []).append(i)

    def class_index(self, cls: ClassLabel) -> int:
        return self._class_index[cls]

    def _value_at(self, i: int, j: int) -> AlgebraicValue:
        d, coefs = self.surds.get(i, (1, {}))
        return AlgebraicValue(Fraction(self.rows[i][j], 2), Fraction(coefs.get(j, 0), 2), d)

    @property
    def values(self) -> list[list[AlgebraicValue]]:
        """Every cell as an AlgebraicValue, derived from the integers."""
        k = len(self.classes)
        return [[self._value_at(i, j) for j in range(k)] for i in range(len(self.rows))]

    def degrees(self) -> list[int]:
        identity = ClassLabel(Partition([1] * self.n))
        j = self._class_index[identity]
        return [row[j] // 2 for row in self.rows]

    @cached_property
    def order_over_degree(self) -> list[int]:
        """|G| / chi(1) for every row; an integer, since chi(1) divides |G|."""
        return [self.group_order // d for d in self.degrees()]

    def _plain_weights(self, factors: Sequence[int], power: int) -> Iterable[int]:
        """prod_c rows[i][c] * (|G|/chi_i(1))^power for every row i, lazily:
        the weights of :meth:`column_sums` less the sqrt(d) parts of the
        factors, so exact on every row but the split rows."""
        seqs = [self.columns[c] for c in factors] + [self.order_over_degree] * power
        return reduce(partial(map, mul), seqs)

    def _split_weight(
        self, i: int, factors: Sequence[int], power: int, conjugate: bool
    ) -> tuple[int, int, int]:
        """(w0, w1, w0 - plain weight) on split row i, with w = w0 + w1 sqrt(d)
        the product of the factors in Z[sqrt(d)]."""
        d, coefs = self.surds[i]
        row, flip = self.rows[i], -1 if conjugate and d < 0 else 1
        a, b, plain = 1, 0, 1
        for c in factors:
            x0, x1 = row[c], flip * coefs.get(c, 0)
            a, b, plain = a * x0 + b * x1 * d, a * x1 + b * x0, plain * x0
        scale = self.order_over_degree[i] ** power if power else 1
        return a * scale, b * scale, (a - plain) * scale

    def column_sums(
        self, factors: Sequence[int], power: int, targets: Sequence[int], conjugate: bool = False
    ) -> tuple[list[int], dict[int, list[int]]]:
        """sum_chi w_chi * 2chi(t) for each target column t, exactly: the
        rational parts, and the sqrt(d) coefficients (one per target) of
        each radicand d that fails to cancel somewhere.  Raises nothing.

        The weights come factored: w_chi is the product of 2chi(c) over the
        columns c of factors (a column may repeat), complex conjugated if
        conjugate is set, times (|G|/chi(1))^power.  Each factor is an
        integer off the split rows; on a split row the weight is formed in
        Z[sqrt(d)] (:meth:`_split_weight`), and only where a factor or a
        target has a sqrt(d) part.

        With k columns and at least k/4 targets (and more than two) the
        weights are formed as a list and the sums come from packed rows:
        one big-int mul-add per nonzero weight for the rational sums and
        one per split row on its radicand's accumulator, after which the
        slots are read back (see :func:`_read_slots`).  Fewer targets take
        one lazy k-term product each, the target column being one more
        factor, and then correct the split rows.  Measured at A_12..A_20,
        the packed product overtakes the dot products at between k/12 and
        k/3 targets for weights of one or two 64-bit words (orthogonality
        and pair weights) and at k/4 to k/2 for cubes; every product_counts
        and power_counts call asks for all k, and frobenius_count, the
        tail of :meth:`verify_orthogonality` and the one- and two-column
        checks ask for fewer.  Cells of 2^63 or more, which no A_n table
        below n = 34 has, also take the dot products.
        """
        k = len(self.rows)
        if len(targets) <= 2 or 4 * len(targets) < k or max(self._row_max) >> 63:
            # The target column is one more factor of the lazy product.
            sums = [sum(self._plain_weights((*factors, t), power)) for t in targets]
            touched = {i for c in (*factors, *targets) for i in self._hook_rows.get(c, ())}
            if not touched:
                return sums, {}
            residues: dict[int, list[int]] = {}
            for i, (d, coefs) in self.surds.items():
                res = residues.setdefault(d, [0] * len(targets))
                if i not in touched:
                    continue
                a, b, gap = self._split_weight(i, factors, power, conjugate)
                row = self.rows[i]
                for p, t in enumerate(targets):
                    z0, z1 = row[t], coefs.get(t, 0)
                    sums[p] += gap * z0 + b * z1 * d
                    res[p] += a * z1 + b * z0
            return sums, {d: res for d, res in residues.items() if any(res)}
        rational = list(self._plain_weights(factors, power))
        surd = {}
        for i in {i for c in factors for i in self._hook_rows.get(c, ())}:
            rational[i], surd[i], _ = self._split_weight(i, factors, power, conjugate)
        m = self._row_max
        bound = max(sum(map(mul, map(abs, rational), m)), sum(abs(w) * m[i] for i, w in surd.items()))
        words = bound.bit_length() // 64 + 1
        packed = self._packed_rows(words)
        sums = _read_slots(sum([w * p for w, p in zip(rational, packed) if w]), words, k)
        accumulators: dict[int, int] = {}
        for i, (d, _) in self.surds.items():
            accumulators[d] = accumulators.get(d, 0) + surd.get(i, 0) * packed[i]
        residues = {
            d: _read_slots(acc, words, k) if acc else [0] * k for d, acc in accumulators.items()
        }
        for i, (d, coefs) in self.surds.items():
            a, b, res = rational[i], surd.get(i, 0), residues[d]
            for j, z1 in coefs.items():
                sums[j] += b * z1 * d
                res[j] += a * z1
        picked = {d: list(map(res.__getitem__, targets)) for d, res in residues.items() if any(res)}
        return list(map(sums.__getitem__, targets)), {d: r for d, r in picked.items() if any(r)}

    @cached_property
    def _row_max(self) -> list[int]:
        """max_j |rows[i][j]| for every row i: the packed slots' width bound.

        :func:`an_character_table` sets it to 2chi(1), the identity cell, as
        |chi(g)| <= chi(1) (Isaacs, *Character Theory of Finite Groups*,
        Lemma 2.15).  A table made directly scans its rows here instead.
        """
        return [max(max(row), -min(row)) for row in self.rows]

    def _packed_rows(self, words: int) -> list[int]:
        """Each row as one int, sum_j rows[i][j] * 2^(64 * words * j).

        A row is packed as 64-bit two's complement, the low word of each
        slot; xor with the slots' sign bits turns every slot into the cell
        plus 2^63, without borrows, and subtracting 2^63 per slot gives the
        signed sum.  Built on the first call for a width and kept for
        widths up to three words.
        """
        packed = self._packed.get(words)
        if packed is None:
            k = len(self.rows)
            layout = struct.Struct("<" + f"q{8 * words - 8}x" * k)
            high = _slot_ones(words, k) << 63
            packed = [
                (int.from_bytes(layout.pack(*row), "little") ^ high) - high for row in self.rows
            ]
            if words <= 3:
                self._packed[words] = packed
        return packed

    def _check_shape(self) -> None:
        """Orthogonality needs a square table: k rows, irreducibles and class
        sizes for the k classes, and k entries in every row."""
        k = len(self.classes)
        counts = {len(self.rows), len(self.irreducibles), len(self.class_sizes)}
        if counts | set(map(len, self.rows)) != {k}:
            raise TableCheckFailed(
                f"table is not {k} x {k}: {len(self.rows)} rows, {len(self.irreducibles)}"
                f" irreducibles, row lengths {sorted(set(map(len, self.rows)))}"
            )

    def _check_columns(self, i: int, targets: Sequence[int]) -> None:
        """Exact column orthogonality of column i against each target:
        4 * sum_chi conj(chi(i)) chi(t) must be 4|G|/|class i| for t = i
        and 0 otherwise."""
        sums, residues = self.column_sums((i,), 0, targets, conjugate=True)
        for p, (j, total) in enumerate(zip(targets, sums)):
            bad = {d: res[p] for d, res in residues.items() if res[p]}
            if bad:
                raise TableCheckFailed(
                    f"irrational residue in column pair {self.classes[i]},{self.classes[j]}: {bad}"
                )
            expect = 4 * self.group_order // self.class_sizes[i] if i == j else 0
            if total != expect:
                raise TableCheckFailed(
                    f"column orthogonality fails at {self.classes[i]},{self.classes[j]}:"
                    f" {Fraction(total, 4)} != {Fraction(expect, 4)}"
                )

    def verify_orthogonality(self) -> None:
        """Exact orthogonality; raises TableCheckFailed on failure.

        Checks that the table is square, that no cell of row chi exceeds
        2chi(1) in absolute value (the premise of :attr:`_row_max` for a
        build), and that its columns are exactly orthogonal.  That
        implies row orthogonality: with X the k x k matrix of values and W
        the diagonal of class sizes, the column relations read
        X* X = |G| W^-1, so X is invertible with
        X^-1 = W X* / |G|, and X W X* = |G| I are the row relations
        (James & Kerber, *The Representation Theory of the Symmetric
        Group*).  The argument needs X square, hence the shape check: a
        zero row appended to a genuine table leaves every column sum
        unchanged.
        """
        self._check_shape()
        for chi, row, d in zip(self.irreducibles, self.rows, self.degrees()):
            if max(row) > 2 * d or -min(row) > 2 * d:
                raise TableCheckFailed(f"a cell of row {chi} exceeds 2chi(1) = {2 * d}")
        k = len(self.classes)
        for i in range(k):
            self._check_columns(i, range(i, k))

    def _quick_checks(self) -> None:
        self._check_shape()
        if sum(d * d for d in self.degrees()) != self.group_order:
            raise TableCheckFailed("squared degrees do not sum to the group order")
        # Column orthogonality across each split class pair: this is the
        # check that pins the constituent/class pairing.
        for idx, cls in enumerate(self.classes):
            if cls.sign != "+":
                continue
            jdx = self._class_index[ClassLabel(cls.cycle_type, "-")]
            self._check_columns(idx, (jdx, idx))
            self._check_columns(jdx, (jdx,))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Cells are [2a, 1, 2b, 1, d] for the value a + b*sqrt(d)."""
        values = []
        for i, row in enumerate(self.rows):
            d, coefs = self.surds.get(i, (1, {}))
            values.append(
                [[a2, 1, coefs[j], 1, d] if j in coefs else [a2, 1, 0, 1, 1] for j, a2 in enumerate(row)]
            )
        return {
            "schema": 1,
            "kind": "an-character-table",
            "n": self.n,
            "classes": [c.text() for c in self.classes],
            "class_sizes": list(self.class_sizes),
            "irreducibles": [x.text() for x in self.irreducibles],
            "values": values,
        }

    def dump(self, fh: TextIO) -> None:
        """Write the sorted JSON of :meth:`to_json_dict` and a newline."""
        json.dump(self.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")


_TABLE_CACHE: dict[int, CharacterTable] = {}


def _hook_cells(
    chi: IrreducibleLabel, classes: list[ClassLabel]
) -> tuple[int, dict[int, tuple[int, int]]]:
    """(d, {j: (2a, b)}) for a split constituent chi: its value on each
    class j of its diagonal-hook type is (2a + b*sqrt(d)) / 2, with b = 0
    when d = 1."""
    hooks = frobenius_symbol(chi.partition).diagonal_hooks()
    eps = -1 if ((chi.n - len(hooks)) // 2) % 2 else 1
    s, d = _squarefree_split(eps * math.prod(hooks))
    cells: dict[int, tuple[int, int]] = {}
    for j, cls in enumerate(classes):
        if cls.cycle_type.parts == hooks:
            b = s if chi.sign == cls.sign else -s
            cells[j] = (eps + b, 0) if d == 1 else (eps, b)
    return d, cells


def _integer_rows(
    n: int, classes: list[ClassLabel], irreducibles: list[IrreducibleLabel], masks: list[int]
) -> tuple[list[list[int]], dict[int, tuple[int, dict[int, int]]]]:
    """Rows and surds of the A_n table, read from one MN column per even
    cycle type; masks[i] is the abacus of irreducibles[i]."""
    # A split constituent is half its parent off the hook classes.
    scales = [1 if chi.is_split() else 2 for chi in irreducibles]
    types = [c.cycle_type.parts for c in classes]
    columns = {mu: list(map(mul, scales, values)) for mu, values in _mn_rows(n, masks, set(types))}
    rows = [list(row) for row in zip(*(columns[t] for t in types))]
    surds: dict[int, tuple[int, dict[int, int]]] = {}
    for i, chi in enumerate(irreducibles):
        if not chi.is_split():
            continue
        d, hook = _hook_cells(chi, classes)
        for j, (a2, _) in hook.items():
            rows[i][j] = a2
        coefs = {j: b for j, (_, b) in hook.items() if b}
        if coefs:
            surds[i] = (d, coefs)
    return rows, surds


def check_table_limit(*ns: int) -> None:
    """Raise ValueError at the first n that an_character_table refuses."""
    for n in ns:
        if n < 2:
            raise ValueError("need n >= 2")
        if n > TABLE_LIMIT:
            raise LimitExceeded(f"n = {n} exceeds table limit {TABLE_LIMIT}")


def an_character_table(n: int) -> CharacterTable:
    """Build (and cache) the exact A_n character table."""
    check_table_limit(n)
    cached = _TABLE_CACHE.get(n)
    if cached is not None:
        return cached
    classes, sizes, irreducibles, masks = _labels(n)
    rows, surds = _integer_rows(n, classes, irreducibles, masks)
    table = CharacterTable(n, classes, sizes, irreducibles, rows, surds)
    table._quick_checks()
    table._row_max = [2 * d for d in table.degrees()]
    _TABLE_CACHE[n] = table
    return table
