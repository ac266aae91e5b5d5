import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ancover.characters import TABLE_LIMIT, an_character_table
from ancover.combinatorics import (
    Infeasible,
    Partition,
    SubpartitionKind,
    TypedSubpartition,
    decompose_subpartitions,
    enumerate_partitions,
    frobenius_symbol,
    is_split_type,
    phi,
    shrink_part,
    transpose,
)
from oracles import SUBINTERVAL_LENGTH, kind_template_ok, reference_partitions, reference_phi


@st.composite
def partitions(draw, max_n=18):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(parts)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    assert Partition(()).n == 0
    assert Partition((4, 2)).n == 6


def test_partition_text_round_trip():
    assert Partition.from_text("5,3,1").parts == (5, 3, 1)
    assert Partition.from_text("-").parts == ()
    assert Partition.from_text("9,4,2,2,1x26").ones() == 26
    assert Partition((5, 3, 1)).text() == "5,3,1"
    assert Partition(()).text() == "-"


def test_partition_text_rejects_oversized_repeat_before_building():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds limit"):
        Partition.from_text("1x1000000000000")
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="exceeds limit"):
        Partition.from_text("5,1x9996")
    assert Partition.from_text("5,1x9995").n == 10**4
    with pytest.raises(ValueError, match="negative repeat count"):
        Partition.from_text("5,1x-3")


def test_transpose_examples():
    assert transpose(Partition((3, 1, 1))) == Partition((3, 1, 1))
    assert transpose(Partition((7,))) == Partition([1] * 7)
    assert transpose(Partition((4, 2))) == Partition((2, 2, 1, 1))


def test_zs1_partitions_match_the_recursive_reference():
    # Same partitions, same descending lexicographic order, each as the
    # checking constructor builds it.
    for n in range(-1, 31):
        got = list(enumerate_partitions(n))
        assert got == list(reference_partitions(n)), n
        assert [Partition(p.parts) for p in got] == got
    assert len(got) == 5604


def test_transpose_involution_exhaustive():
    for n in range(0, 31):
        for p in enumerate_partitions(n):
            assert transpose(transpose(p)) == p


@given(partitions())
def test_transpose_preserves_size(p):
    assert transpose(p).n == p.n


def test_frobenius_symbol_examples():
    fs = frobenius_symbol(Partition((1,)))
    assert fs.arms == (0,) and fs.diagonal_hooks() == (1,)
    fs = frobenius_symbol(Partition((3, 1, 1)))
    assert fs.arms == (2,) and fs.diagonal_hooks() == (5,)
    fs = frobenius_symbol(Partition((3, 2, 1)))
    assert fs.arms == (2, 0) and fs.diagonal_hooks() == (5, 1)


def _plus_split_partitions(n: int) -> list[Partition]:
    """The self-conjugate partitions of n, one per split pair of
    irreducibles of the A_n table."""
    return [chi.partition for chi in an_character_table(n).irreducibles if chi.sign == "+"]


def test_frobenius_symbol_self_conjugate():
    for n in range(2, TABLE_LIMIT + 1):
        for p in _plus_split_partitions(n):
            assert transpose(p) == p
            fs = frobenius_symbol(p)
            assert fs.arms == fs.legs
            hooks = fs.diagonal_hooks()
            assert all(h % 2 == 1 for h in hooks)
            assert sum(hooks) == n


def test_is_split_type():
    assert is_split_type(Partition((5, 3, 1)))
    assert not is_split_type(Partition((3, 3, 1)))
    assert not is_split_type(Partition((4, 2, 1)))


def test_diagonal_hook_bijection():
    # The diagonal hooks of the self-conjugate partitions of n are exactly
    # the split cycle types of A_n, one partition to each type.
    for n in range(2, TABLE_LIMIT + 1):
        table = an_character_table(n)
        from_diagonals = [frobenius_symbol(p).diagonal_hooks() for p in _plus_split_partitions(n)]
        split_types = {c.cycle_type.parts for c in table.classes if c.is_split()}
        assert set(from_diagonals) == split_types
        assert len(from_diagonals) == len(split_types)


def test_decompose_all_fixed_points():
    pieces = decompose_subpartitions(Partition([1] * 20))
    assert len(pieces) == 20
    assert all(p.kind == SubpartitionKind.SINGLE_FIXED_POINT for p in pieces)


def test_decompose_examples():
    pieces = decompose_subpartitions(Partition.from_text("7,1x8"))
    kinds = sorted(int(p.kind) for p in pieces)
    assert kinds == [1] * 8 + [4]

    pieces = decompose_subpartitions(Partition.from_text("4,2,2,2,1x6"))
    shapes = {(int(p.kind), p.parts.parts) for p in pieces}
    assert (7, (4, 2)) in shapes
    assert (5, (2, 2)) in shapes


def test_decompose_infeasible_without_ones():
    with pytest.raises(Infeasible):
        decompose_subpartitions(Partition((3, 3, 3, 3, 3)))  # one leftover 3, no 1s


def _even_partitions(n):
    return [p for p in enumerate_partitions(n) if p.is_even_type()]


def test_decompose_reconstitutes_and_respects_quotas():
    for n in range(1, 15):
        for mu in _even_partitions(n):
            try:
                pieces = decompose_subpartitions(mu)
            except Infeasible:
                continue
            merged = sorted(
                (x for p in pieces for x in p.parts.parts), reverse=True
            )
            assert tuple(merged) == mu.parts
            kinds = Counter(int(p.kind) for p in pieces)
            assert kinds[2] <= 2
            assert kinds[5] <= 1
            for p in pieces:
                if 1 in p.parts.parts:
                    assert p.kind in (
                        SubpartitionKind.SINGLE_FIXED_POINT,
                        SubpartitionKind.THREE_WITH_FOUR_ONES,
                    )


def test_typed_subpartition_template_enforced():
    with pytest.raises(ValueError):
        TypedSubpartition(SubpartitionKind.THREE_WITH_FOUR_ONES, Partition((3, 1)))
    with pytest.raises(ValueError):
        TypedSubpartition(SubpartitionKind.ODD_PART, Partition((4,)))


def test_phi_table():
    cases = [
        (SubpartitionKind.SINGLE_FIXED_POINT, (1,), ()),
        (SubpartitionKind.THREE_WITH_FOUR_ONES, (3, 1, 1, 1, 1), (3, 1, 1, 1, 1)),
        (SubpartitionKind.THREE_THREES, (3, 3, 3), (3, 3, 3)),
        (SubpartitionKind.ODD_PART, (7,), (5,)),
        (SubpartitionKind.ODD_PART, (5,), (5,)),
        (SubpartitionKind.TWO_TWOS, (2, 2), (2, 2)),
        (SubpartitionKind.FOUR_TWOS, (2, 2, 2, 2), (2, 2, 2, 2)),
        (SubpartitionKind.TWO_WITH_EVEN, (6, 2), (4, 2)),
        (SubpartitionKind.EVEN_PAIR, (6, 4), (4, 4)),
    ]
    for kind, parts, image in cases:
        assert phi(TypedSubpartition(kind, Partition(parts))) == Partition(image)


def test_phi_replacement_rule():
    # Recombining phi images plus 1-fillers turns each odd part m >= 7 into
    # 1^(m-5) 5 and each even part m >= 6 into 1^(m-4) 4.
    for parts in [(9,), (7,), (11,), (8, 2), (10, 4), (6, 6)]:
        for kind in SubpartitionKind:
            try:
                piece = TypedSubpartition(kind, Partition(parts))
            except ValueError:
                continue
            image = phi(piece)
            fillers = piece.parts.n - image.n
            rebuilt = sorted(image.parts + (1,) * fillers, reverse=True)
            expected = []
            for m in parts:
                if m % 2 == 1 and m >= 7:
                    expected += [5] + [1] * (m - 5)
                elif m % 2 == 0 and m >= 6:
                    expected += [4] + [1] * (m - 4)
                else:
                    expected.append(m)
            assert rebuilt == sorted(expected, reverse=True)


def test_shrink_part():
    assert [shrink_part(p) for p in range(1, 12)] == [1, 2, 3, 4, 5, 4, 5, 4, 5, 4, 5]


@pytest.mark.parametrize("kind", list(SubpartitionKind))
def test_kinds_derived_from_shrink_rule_match_case_by_case_statement(kind):
    # Every partition of 1..24 with at most 5 parts: the kind accepts
    # exactly what the case-by-case template accepts, and phi and the
    # subinterval length phi(p).n agree with the case-by-case tables.
    accepted = 0
    for n in range(1, 25):
        for p in enumerate_partitions(n):
            if len(p) > 5:
                continue
            try:
                piece = TypedSubpartition(kind, p)
            except ValueError:
                assert not kind_template_ok(kind, p.parts), p
                continue
            assert kind_template_ok(kind, p.parts), p
            accepted += 1
            image = phi(piece)
            assert image.parts == reference_phi(kind, p.parts)
            assert image.n == SUBINTERVAL_LENGTH.get(kind, 0)
    assert accepted >= 1
