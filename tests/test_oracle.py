import ast
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from ancover import combinatorics, oracle
from ancover.combinatorics import LimitExceeded, Partition
from ancover.combinatorics import enumerate_partitions
from ancover.classalgebra import product_counts
from ancover.constructor import VerificationFailed
from ancover.oracle import (
    _cofactor_sign,
    _cycles,
    _fixed_count,
    _orbit_weight,
    _representative,
    _search,
    brute_frobenius,
    brute_product_counts,
)
from ancover.permutations import (
    ClassLabel,
    Permutation,
    an_class_labels,
    an_class_size,
    class_representative,
    parse_class_label,
)
from oracles import (
    _member,
    centralizer_stabiliser,
    conjugate,
    images_of_type,
    is_even,
    iter_class,
    orbit_classes,
    permutations_of_type,
    reference_cycle_type,
    reference_parity,
    reference_walk,
    run_python,
    stream_frobenius,
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
        list(iter_class(ClassLabel(Partition((9, 1)), "+")))


def test_pair_queries_refuse_n_10_before_searching(monkeypatch):
    # A faster search must not lift ORACLE_LIMIT: the refusal comes first,
    # and no search is started.
    import ancover.oracle

    def no_search(*args):
        raise AssertionError("searched past the oracle limit")

    monkeypatch.setattr(ancover.oracle, "_search", no_search)
    C, D = parse_class_label("9,1:+"), parse_class_label("3,3,3,1")
    g = class_representative(parse_class_label("5,5"))
    with pytest.raises(LimitExceeded):
        brute_frobenius(C, D, g)
    with pytest.raises(LimitExceeded):
        brute_product_counts(C, D)


def test_permutations_of_type_refuses_n_10():
    # It returns a list's iterator, so n = 10 would hold 9! permutations.
    with pytest.raises(LimitExceeded):
        permutations_of_type(Partition((10,)))


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("k", [1, 2, 7, 20])
def test_search_stops_at_the_first_true_leaf(paired, k):
    # With the cofactor of g = 1 enumerated from C, q = p^-1 has p's type,
    # so both searches reach all 20 permutations of type 3,1,1.
    parts, n = (3, 1, 1), 5
    same = range(n + 1)
    cofactor = (same, same, parts) if paired else None
    calls = []

    def leaf(p, q, word, even, odd):
        assert (even, odd) == (1, 0)
        calls.append(p[1:])
        return len(calls) == k

    assert _search(parts, n, leaf, cofactor) is True
    assert len(calls) == k
    calls.clear()
    assert _search(parts, n, lambda p, q, word, *w: calls.append(p[1:]), cofactor) is False
    assert len(calls) == 20 == len(set(map(tuple, calls)))


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_search_leaves_are_the_filtered_plain_leaves_in_order(n):
    # The pair search's cuts (a closed q-cycle needs an unused part of its
    # length, a chain may grow no longer than the largest unused part, a
    # join of two chains needs more open chains than unused parts) may
    # drop only branches without a leaf: its leaves must be the plain
    # search's, in order and with their weights, with q = v p^-1 u^-1 of
    # type Q.  Without cycles u and v are any permutations; with the
    # cycles of x, which the search explores one centralizer orbit at a
    # time, they are powers of x, as in _fixed_count.
    rng = random.Random(n)
    types = [mu.parts for mu in enumerate_partitions(n)]
    for trial in range(6):
        u, v = ([0, *rng.sample(range(1, n + 1), n)] for _ in range(2))
        cycles = None
        if trial >= 3:
            x, cycles = u, _cycles(u[1:])
            x_inv = [0, *(x.index(a) for a in range(1, n + 1))]
            u, v = (rng.choice([x, x_inv, range(n + 1)]) for _ in range(2))
        for P in types:
            plain = []

            def keep(p, q, word, even, odd):
                assert q is None
                q = [0] * (n + 1)
                for a in range(1, n + 1):
                    q[u[p[a]]] = v[a]
                plain.append((p[:], q, word[:], even, odd))

            _search(P, n, keep, None, cycles)
            for Q in types:
                paired = []

                def keep_pair(p, q, word, even, odd):
                    paired.append((p[:], q[:], word[:], even, odd))

                _search(P, n, keep_pair, (u, v, Q), cycles)
                expected = [leaf for leaf in plain if Permutation(leaf[1][1:]).cycle_type().parts == Q]
                assert paired == expected, (P, Q, u, v, cycles)


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_cofactor_class_test_matches_the_reference_on_all_of_s_n(n):
    # The pair leaf reads only the split sign of q, or of q^-1 when
    # inverted; the cuts have already given q the target type.  Checked on
    # every element of each split type, and its inverse.
    split = [label for label in an_class_labels(n) if label.is_split()]
    assert split
    checked = 0
    for h in itertools.permutations(range(1, n + 1)):
        for label in split:
            parts = label.cycle_type.parts
            if not _member(h, parts, None):
                continue
            h_inv = tuple(sorted(range(1, n + 1), key=lambda i: h[i - 1]))
            for inverted, element in ((False, h), (True, h_inv)):
                in_class = _cofactor_sign([0, *h], inverted) == label.sign
                assert in_class == _member(element, parts, label.sign), (h, inverted)
            checked += 1
    # Each element of a split type is checked against both of its signs.
    assert checked == 2 * sum(an_class_size(label) for label in split)


# (fixed, enumerated) as indices into (C, D, E).
ORIENTATIONS = list(itertools.permutations(range(3), 2))


@pytest.mark.parametrize("n, sample", [(3, None), (4, None), (5, None), (6, None), (7, 60)])
def test_every_pair_search_leaf_has_the_third_class_type(n, sample, monkeypatch):
    # _fixed_count's leaf reads only the split sign of q, so the cuts must
    # give every leaf's q exactly the type of the third class: on every
    # triple and orientation at n <= 6, and on a sample of triples at n = 7.
    import ancover.oracle

    real = ancover.oracle._search
    targets, leaves = [], 0

    def checked(parts, n, leaf, cofactor, cycles):
        target = cofactor[2]
        targets.append(target)

        def check(p, q, word, even, odd):
            nonlocal leaves
            assert reference_cycle_type(q[1:]).parts == target, (p, q, target)
            leaves += 1
            return leaf(p, q, word, even, odd)

        return real(parts, n, check, cofactor, cycles)

    monkeypatch.setattr(ancover.oracle, "_search", checked)
    triples = list(itertools.product(an_class_labels(n), repeat=3))
    if sample:
        triples = random.Random(f"leaf types {n}").sample(triples, sample)
    for triple in triples:
        g = _representative(triple[2])
        for fixed, enumerated in ORIENTATIONS:
            _fixed_count(triple, g, fixed, enumerated)
            assert targets.pop() == triple[3 - fixed - enumerated].cycle_type.parts
    assert leaves > 0


@pytest.mark.parametrize("n", [5, 6])
def test_pair_search_takes_no_step_once_a_join_has_spent_its_slack(n):
    # slack never rises and a leaf needs it at 0, so a join at slack 0
    # reaches no leaf: the cuts refuse it, at a cycle's close as at a free
    # point, and every step of a pair search starts with slack >= 0.  A
    # missed cut only costs work, so the leaves cannot show it; the step
    # routine's own frames do, read through the profiler.
    (step,) = [c for c in _search.__code__.co_consts if getattr(c, "co_name", None) == "place"]
    slacks = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is step:
            slacks.append(frame.f_locals["slack"])

    sys.setprofile(profile)
    try:
        for triple in itertools.product(an_class_labels(n), repeat=3):
            g = _representative(triple[2])
            for fixed, enumerated in ORIENTATIONS:
                _fixed_count(triple, g, fixed, enumerated)
    finally:
        sys.setprofile(None)
    assert slacks and min(slacks) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_weights_count_the_stabiliser_of_the_placed_points(n):
    # For x of every type and seeded sets T of placed points, S is the
    # pointwise stabiliser of T in x's centralizer, built element by
    # element.  S fixes every point of an x-cycle that meets T, and moves
    # the first point b0 of the first untouched x-cycle of each length L
    # over exactly the points of the m untouched L-cycles.  Where no odd
    # element of S fixes b0, each point is reached by one parity, and the
    # numbers of points reached by even and by odd elements are the
    # search's weights; otherwise every point is reached by both, and the
    # weights need only add up to the orbit.
    rng = random.Random(f"orbit weights {n}")
    fixers = set()
    for mu in enumerate_partitions(n):
        # x: the points 1..n in random order, cut into cycles of mu.
        s = rng.sample(range(1, n + 1), n)
        x = [0] * n
        for i, length in enumerate(mu.parts):
            cycle = s[sum(mu.parts[:i]) :][:length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                x[a - 1] = b
        cycles = sorted(reference_walk(x), key=min)
        for _ in range(6):
            placed = set(rng.sample(range(1, n + 1), rng.randrange(n)))
            group = centralizer_stabiliser(x, placed)
            touched = [c for c in cycles if placed & set(c)]
            assert all(h[y - 1] == y for h in group for c in touched for y in c)
            for length in {len(c) for c in cycles if c not in touched}:
                same = [c for c in cycles if c not in touched and len(c) == length]
                b0 = same[0][0]
                reached: dict[int, set[int]] = {}
                for h in group:
                    reached.setdefault(h[b0 - 1], set()).add(reference_parity(h))
                assert sorted(reached) == sorted(y for c in same for y in c)
                even, odd = _orbit_weight(length, len(same))
                fixers.add(1 in reached[b0])
                if 1 in reached[b0]:
                    assert all(len(p) == 2 for p in reached.values())
                    assert even + odd == len(reached)
                else:
                    assert all(len(p) == 1 for p in reached.values())
                    parities = [p.pop() for p in reached.values()]
                    assert (even, odd) == (parities.count(0), parities.count(1)), (mu, placed)
    # From n = 3 on, some T leaves an odd element fixing b0, and some not.
    assert fixers == ({False, True} if n >= 3 else {False})


def test_every_orientation_matches_product_counts_at_n_8():
    # A seeded sample at n = 8, where the centralizers have up to 8!
    # elements and the orbits up to 8 points: each (fixed, enumerated)
    # choice against the bins of brute_product_counts, with g a conjugate
    # of E's representative by an even and by an odd permutation, which
    # moves a split E to the other class.
    rng = random.Random("orientations 8")
    labels = an_class_labels(8)
    checked = 0
    for _ in range(40):
        C, D = rng.choice(labels), rng.choice(labels)
        bins = brute_product_counts(C, D)
        E = rng.choice([E for E, count in bins.items() if count])
        for parity in (0, 1):
            s = list(range(1, 9))
            rng.shuffle(s)
            if reference_parity(s) != parity:
                s[:2] = s[1], s[0]
            g = conjugate(class_representative(E), Permutation(s))
            F = E
            if parity and E.is_split():
                F = ClassLabel(E.cycle_type, "-" if E.sign == "+" else "+")
            got = [_fixed_count((C, D, F), g.images, *o) for o in ORIENTATIONS]
            assert got == [bins[F]] * 6, (C, D, F)
            checked += bins[F] > 0
    assert checked == 80


def test_brute_frobenius_identity():
    identity = parse_class_label("1x5")
    g = class_representative(parse_class_label("3,1,1"))
    assert brute_frobenius(identity, parse_class_label("3,1,1"), g) == 1
    assert brute_frobenius(identity, parse_class_label("5:+"), g) == 0


def test_brute_frobenius_a5_exception():
    g = Permutation.from_cycles(5, [(1, 2), (3, 4)])
    assert brute_frobenius(parse_class_label("5:+"), parse_class_label("5:+"), g) == 0
    assert brute_frobenius(parse_class_label("5:+"), parse_class_label("5:-"), g) > 0


def test_brute_frobenius_on_a_non_real_class():
    # 3,2,2,1 has the smallest type, so an element of it is fixed, and the
    # first call enumerates D and the second C; the third factor is in
    # 5,3:+, which is not real in A_8.  A cofactor that dropped an inverse
    # would count pairs with 5,3:- instead: 60, not 140.
    C, D = parse_class_label("3,2,2,1"), parse_class_label("5,3:+")
    g = class_representative(D)
    assert brute_frobenius(C, D, g) == brute_frobenius(D, C, g) == 140


def _reached(C, D):
    return {E for E, count in brute_product_counts(C, D).items() if count}


def test_brute_product_labels():
    C = parse_class_label("5:+")
    everything = set(an_class_labels(5))
    assert _reached(C, C) == everything - {parse_class_label("2,2,1")}
    identity = parse_class_label("1x5")
    assert _reached(identity, identity) == {identity}
    counts = brute_product_counts(identity, identity)
    assert counts == {E: int(E == identity) for E in everything}


def _counts_with_one_product_too_many():
    """brute_product_counts(3,1,1, 3,1,1) with the search reaching the
    3-cycle (3,4,5) once more, with weight (1, 0).  Its product with the
    oracle's element (1,2,3) is a 5-cycle, so one 5-cycle bin is one too
    large, and 20 * bin is no longer a multiple of 12."""
    import ancover.oracle

    real = ancover.oracle._search

    def one_more(parts, n, leaf, cofactor=None, cycles=None):
        real(parts, n, leaf, cofactor, cycles)
        leaf([0, 1, 2, 4, 5, 3], None, [0, 3, 4, 5, 1, 2], 1, 0)
        return False

    ancover.oracle._search = one_more
    try:
        C = parse_class_label("3,1,1")
        return brute_product_counts(C, C)
    finally:
        ancover.oracle._search = real


def test_product_counts_raise_on_a_bin_that_is_not_a_multiple():
    with pytest.raises(VerificationFailed, match="not a multiple"):
        _counts_with_one_product_too_many()


def test_product_counts_raise_on_a_bad_bin_under_optimize():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_oracle import _counts_with_one_product_too_many\n"
        "from ancover.constructor import VerificationFailed\n"
        "try:\n"
        "    _counts_with_one_product_too_many()\n"
        "except VerificationFailed:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a bin that is not a multiple passed')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_oracle_does_not_use_the_class_labelling(monkeypatch):
    # Give split types the wrong sign in the labelling and in the class
    # representatives under test, and every class the wrong size; the
    # oracle must still enumerate and count the right classes.
    import ancover.oracle
    import ancover.permutations

    plus, minus = parse_class_label("5:+"), parse_class_label("5:-")
    plus_rep = class_representative(plus)
    expected = {D: product_counts(plus, D) for D in (plus, minus)}
    assert expected[plus] != expected[minus]

    def flip(label):
        if label.sign is None:
            return label
        return ClassLabel(label.cycle_type, "-" if label.sign == "+" else "+")

    real_class_of = ancover.permutations.an_class_of
    real_representative = ancover.permutations.class_representative
    real_size = ancover.permutations.an_class_size
    for name, poisoned in [
        ("an_class_of", lambda g: flip(real_class_of(g))),
        ("class_representative", lambda label: real_representative(flip(label))),
        ("an_class_size", lambda label: 2 * real_size(label) + 1),
    ]:
        monkeypatch.setattr(ancover.permutations, name, poisoned)
        monkeypatch.setattr(ancover.oracle, name, poisoned, raising=False)
    elems = list(iter_class(plus))
    assert len(elems) == 12 and plus_rep in elems
    # g, of type 2,2,1 (15 elements), has the smallest type, so g itself
    # is fixed and these two counts are the weighted leaves.
    g = Permutation.from_cycles(5, [(1, 2), (3, 4)])
    two_twos = parse_class_label("2,2,1")
    assert brute_frobenius(plus, plus, g) == expected[plus][two_twos] == 0
    assert brute_frobenius(plus, minus, g) == expected[minus][two_twos] == 4
    for D in (plus, minus):
        assert brute_product_counts(plus, D) == brute_product_counts(D, plus) == expected[D]


@pytest.mark.parametrize("n", [5, 6, 7])
def test_oracle_matches_definition_level_counts(n):
    # n = 7 adds the first non-real classes (7:+ inverts to 7:-).
    classes = orbit_classes(n)
    union = set().union(*classes.values())
    assert len(union) == sum(len(c) for c in classes.values()) == math.factorial(n) // 2
    for label, members in classes.items():
        assert {h.images for h in iter_class(label)} == members
    inverses = {c: tuple(sorted(range(1, n + 1), key=lambda i: c[i - 1])) for c in union}
    triples = 0
    for C, c_members in classes.items():
        for D, d_members in classes.items():
            bins = brute_product_counts(C, D)
            for E in classes:
                g = class_representative(E).images
                # c d = g  <=>  d = c^-1 g
                direct = sum(
                    1 for c in c_members if tuple(inverses[c][y - 1] for y in g) in d_members
                )
                assert brute_frobenius(C, D, class_representative(E)) == direct, (C, D, E)
                assert bins[E] == direct, (C, D, E)
                triples += 1
    assert triples == {5: 125, 6: 343, 7: 729}[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_every_orientation_matches_definition_level_counts(n):
    # Each (fixed, enumerated) choice of classes among (C, D, E), with g a
    # random S_n conjugate of E's representative, and of a split E also one
    # by a conjugator of the other parity, so g's class, read from the
    # orbits, runs over both classes of a split pair.
    classes = orbit_classes(n)
    class_of = {h: label for label, members in classes.items() for h in members}
    inverses = {c: tuple(sorted(range(1, n + 1), key=lambda i: c[i - 1])) for c in class_of}
    rng = random.Random(f"orientations {n}")
    targets = []
    for E in classes:
        s = list(range(1, n + 1))
        rng.shuffle(s)
        targets.append(conjugate(class_representative(E), Permutation(s)))
        if E.is_split():
            s[:2] = s[1], s[0]
            targets.append(conjugate(class_representative(E), Permutation(s)))
    assert {class_of[g.images] for g in targets} == set(classes)
    for g in targets:
        E = class_of[g.images]
        for C, c_members in classes.items():
            # c d = g  <=>  d = c^-1 g
            cofactors = [tuple(inverses[c][y - 1] for y in g.images) for c in c_members]
            for D, d_members in classes.items():
                direct = sum(d in d_members for d in cofactors)
                got = [_fixed_count((C, D, E), g.images, *o) for o in ORIENTATIONS]
                assert got == [direct] * 6, (C, D, E)
                assert brute_frobenius(C, D, g) == direct, (C, D, E)


def test_odd_g_gives_zero_without_a_search(monkeypatch):
    import ancover.oracle

    def no_search(*args):
        raise AssertionError("searched for a product equal to an odd g")

    monkeypatch.setattr(ancover.oracle, "_search", no_search)
    labels = an_class_labels(6)
    for g in (
        Permutation.from_cycles(6, [(1, 2)]),
        Permutation.from_cycles(6, [(1, 2, 3, 4)]),
        Permutation.from_cycles(6, [(1, 2, 3, 4, 5, 6)]),
    ):
        assert not is_even(g)
        for C in labels:
            for D in labels:
                assert brute_frobenius(C, D, g) == 0


def _frobenius_with_one_leaf_too_many():
    """brute_frobenius(2,2,1, 3,1,1, (1 2 3)) with the search calling its
    last leaf twice.  C, of type 2,2,1 (15 elements), has the smallest
    type, so an element of C is fixed and D enumerated (D and E, both
    3,1,1, tie on size); neither D nor E splits, so every leaf adds both
    its weights.  The 6 pairs come from 8 weighted leaves, and the last
    leaf's weights (1, 1) again make 15 * 10, not a multiple of 20."""
    import ancover.oracle

    real = ancover.oracle._search

    def one_more(parts, n, leaf, cofactor=None, cycles=None):
        last = []

        def keep(p, q, word, even, odd):
            last[:] = [list(p), list(q), list(word), even, odd]
            return leaf(p, q, word, even, odd)

        real(parts, n, keep, cofactor, cycles)
        leaf(*last)
        return False

    ancover.oracle._search = one_more
    try:
        C, D = parse_class_label("2,2,1"), parse_class_label("3,1,1")
        return brute_frobenius(C, D, Permutation.from_cycles(5, [(1, 2, 3)]))
    finally:
        ancover.oracle._search = real


def test_pair_count_raises_on_a_count_that_is_not_a_multiple():
    C, D = parse_class_label("2,2,1"), parse_class_label("3,1,1")
    assert brute_frobenius(C, D, Permutation.from_cycles(5, [(1, 2, 3)])) == 6
    with pytest.raises(VerificationFailed, match="not a multiple"):
        _frobenius_with_one_leaf_too_many()


def test_pair_count_raises_on_a_bad_count_under_optimize():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from test_oracle import _frobenius_with_one_leaf_too_many\n"
        "from ancover.constructor import VerificationFailed\n"
        "try:\n"
        "    _frobenius_with_one_leaf_too_many()\n"
        "except VerificationFailed:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a count that is not a multiple passed')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _check_against_stream(C, D, g):
    assert brute_frobenius(C, D, g) == stream_frobenius(C, D, g), (C, D, g)


def test_search_enumerates_types_as_the_stream_does():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            expected = list(images_of_type(mu.parts, n))
            assert [h.images for h in permutations_of_type(mu)] == expected


@pytest.mark.parametrize("n", [5, 6, 7])
def test_search_matches_stream_count_on_every_triple(n):
    labels = an_class_labels(n)
    for E in labels:
        g = class_representative(E)
        for C in labels:
            for D in labels:
                _check_against_stream(C, D, g)


@pytest.mark.parametrize("n, trials", [(8, 40), (9, 12)])
def test_search_matches_stream_count_sampled(n, trials):
    # Each pair runs in both orders, so the search enumerates C for one and
    # D for the other unless the classes have the same size.
    rng = random.Random(n)
    labels = an_class_labels(n)
    for _ in range(trials):
        C, D, E = (rng.choice(labels) for _ in range(3))
        g = class_representative(E)
        _check_against_stream(C, D, g)
        _check_against_stream(D, C, g)


@pytest.mark.parametrize(
    "c, d, e",
    [
        # Classes above the benchmark's size caps at n = 9.
        ("9:+", "6,2,1", "4,3,2"),
        ("4,3,2", "9:-", "9:+"),
        ("6,2,1", "4,3,2", "5,3,1:-"),
        ("9:+", "9:+", "3,3,3"),
        # 5,3:+ is not real in A_8; it is the smaller class against 3,2,2,1.
        ("5,3:+", "3,2,2,1", "5,3:+"),
        ("3,2,2,1", "5,3:+", "5,3:-"),
        ("5,3:+", "5,3:+", "2,2,2,2"),
    ],
)
def test_search_matches_stream_count_on_large_and_non_real_classes(c, d, e):
    C, D, E = (parse_class_label(t) for t in (c, d, e))
    rng = random.Random(f"{c} {d} {e}")
    # A random element of the S_n class of E, not only its representative.
    s = list(range(1, E.n + 1))
    rng.shuffle(s)
    g = conjugate(class_representative(E), Permutation(s))
    _check_against_stream(C, D, g)
    _check_against_stream(D, C, g)


@pytest.mark.parametrize(
    "c, d",
    [
        # 5,3:+ is not real in A_8; 7,1:- squared needs the "-" element.
        ("5,3:+", "3,2,2,1"),
        ("7,1:-", "7,1:-"),
        # At n = 9 the smaller class comes second, then first.
        ("5,3,1:-", "3,3,3"),
        ("2,2,2,2,1", "9:+"),
    ],
)
def test_product_counts_match_stream_count_at_n_8_and_9(c, d):
    C, D = parse_class_label(c), parse_class_label(d)
    bins = brute_product_counts(C, D)
    assert bins == brute_product_counts(D, C)
    assert list(bins) == an_class_labels(C.n)
    for E, count in bins.items():
        assert count == stream_frobenius(C, D, class_representative(E)), (C, D, E)


def test_oracle_imports_only_combinatorics_and_permutations():
    # The oracle stays independent of the code it checks: of the package
    # it reads only partitions and the Permutation type, and the
    # VerificationFailed it raises is the class the constructor raises.
    tree = ast.parse(Path(oracle.__file__).read_text())
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    ours = {m for m in modules if m.split(".")[0] == "ancover"}
    assert ours == {"ancover.combinatorics", "ancover.permutations"}
    assert oracle.VerificationFailed is combinatorics.VerificationFailed is VerificationFailed
