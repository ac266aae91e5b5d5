import pytest

from ancover.combinatorics import LimitExceeded, Partition
from ancover.oracle import (
    brute_an_conjugate,
    brute_frobenius,
    brute_product_labels,
    iter_class,
    permutations_of_type,
)
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_labels,
    an_class_size,
    class_representative,
    conjugate,
    parse_class_label,
)


def test_permutations_of_type_counts():
    # 5-cycles in S_5: 4! of them; 3,1,1: 20; 2,2,1: 15
    assert sum(1 for _ in permutations_of_type(Partition((5,)))) == 24
    assert sum(1 for _ in permutations_of_type(Partition((3, 1, 1)))) == 20
    assert sum(1 for _ in permutations_of_type(Partition((2, 2, 1)))) == 15


def test_enumerate_class_counts():
    for n in (5, 6, 7, 8):
        for label in an_class_labels(n):
            count = sum(1 for _ in iter_class(label))
            assert count == an_class_size(label)


def test_enumerate_class_counts_n9_spot():
    for text in ("9:+", "9:-", "5,3,1:+", "3,3,3", "1x9"):
        label = parse_class_label(text)
        assert sum(1 for _ in iter_class(label)) == an_class_size(label)


def test_enumerate_class_no_duplicates():
    label = parse_class_label("5:+")
    elems = list(iter_class(label))
    assert len(set(elems)) == len(elems) == 12


def test_limit_enforced():
    with pytest.raises(LimitExceeded):
        list(iter_class(ClassLabel(Partition((9, 1)), "+"), limit=9))


def test_brute_frobenius_identity():
    identity = parse_class_label("1x5")
    g = class_representative(parse_class_label("3,1,1"))
    assert brute_frobenius(identity, parse_class_label("3,1,1"), g) == 1
    assert brute_frobenius(identity, parse_class_label("5:+"), g) == 0


def test_brute_frobenius_a5_exception():
    g = Permutation.from_cycles(5, [(1, 2), (3, 4)])
    assert brute_frobenius(parse_class_label("5:+"), parse_class_label("5:+"), g) == 0
    assert brute_frobenius(parse_class_label("5:+"), parse_class_label("5:-"), g) > 0


def test_brute_product_labels():
    C = parse_class_label("5:+")
    labels = brute_product_labels(C, C)
    everything = set(an_class_labels(5))
    assert labels == everything - {parse_class_label("2,2,1")}
    identity = parse_class_label("1x5")
    assert brute_product_labels(identity, identity) == {identity}


def test_brute_an_conjugate():
    g = class_representative(parse_class_label("5:+"))
    h = class_representative(parse_class_label("5:-"))
    assert brute_an_conjugate(g, g)
    assert not brute_an_conjugate(g, h)
    s = Permutation.from_cycles(5, [(1, 2, 3)])
    assert brute_an_conjugate(g, conjugate(g, s))
