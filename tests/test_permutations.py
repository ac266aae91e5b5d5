import hashlib
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from ancover.combinatorics import Partition
from ancover.oracle import _cycles, _lengths, _representative
from ancover.permutations import (
    ClassLabel,
    DegreeMismatch,
    OddPermutation,
    Permutation,
    an_class_labels,
    an_class_of,
    an_class_size,
    class_representative,
    cycle_type,
    embed,
    inverse_label,
    parse_class_label,
    parse_permutation,
    _representative_words,
    _walk,
)
from oracles import (
    an_orbit,
    conjugate,
    identity,
    is_even,
    is_real_in_an,
    iter_class,
    kappa,
    orbit_classes,
    permutations_of_type,
    random_even_permutation,
    random_permutation,
    reference_an_class_of,
    reference_cycle_type,
    reference_from_cycles,
    reference_images,
    reference_parity,
    reference_representative,
    reference_walk,
    run_python,
    support,
)


def test_group_operations():
    g = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert g * g.inverse() == identity(5)
    assert (g * g)(1) == 3
    h = Permutation.from_cycles(5, [(1, 2)])
    assert (g * h)(1) == g(2)
    with pytest.raises(DegreeMismatch):
        g * identity(4)


def test_parity_and_fix_count():
    assert Permutation.from_cycles(4, [(1, 2)]).parity() == 1
    assert Permutation.from_cycles(5, [(1, 2, 3)]).parity() == 0
    rng = random.Random(0)
    for _ in range(200):
        a = random_permutation(8, rng)
        b = random_permutation(8, rng)
        assert (a * b).parity() == (a.parity() + b.parity()) % 2
    g = class_representative(ClassLabel(Partition((5, 3, 1, 1)), None))
    assert g.n - len(support(g)) == 2


def test_cycle_type():
    assert cycle_type(identity(5)) == Partition([1] * 5)
    assert cycle_type(Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])) == Partition((5,))
    g = Permutation.from_cycles(10, [(1, 2, 3), (4, 5), (6, 7)])
    assert cycle_type(g) == Partition((3, 2, 2, 1, 1, 1))


def test_conjugation_preserves_type():
    rng = random.Random(1)
    for _ in range(100):
        g = random_permutation(9, rng)
        s = random_permutation(9, rng)
        assert cycle_type(conjugate(g, s)) == cycle_type(g)


def test_embed_is_explicit():
    g = Permutation.from_cycles(3, [(1, 2, 3)])
    assert support(embed(g, 5)) == [1, 2, 3]
    with pytest.raises(DegreeMismatch):
        embed(g, 2)


def test_parsing_and_formatting():
    g = parse_permutation("2 3 4 5 1")
    assert g == parse_permutation("(1,2,3,4,5)")
    assert parse_permutation(g.format_cycles()) == g
    assert parse_permutation(g.format_images()) == g
    assert support(parse_permutation("(1,2)(3,4)", n=6)) == [1, 2, 3, 4]


def test_class_representative_examples():
    assert class_representative(ClassLabel(Partition([1] * 4))) == identity(4)
    rep = class_representative(ClassLabel(Partition((5,)), "+"))
    assert rep.images == (2, 3, 4, 5, 1)
    rep_m = class_representative(ClassLabel(Partition((5,)), "-"))
    assert rep_m == parse_permutation("(1,2,3,5,4)")


def test_representatives_match_the_conjugated_construction():
    """The representative and its words, written directly, against the
    "+" representative conjugated by a transposition, for every label
    with n <= 25."""
    for n in range(1, 26):
        for label in an_class_labels(n):
            images = reference_representative(label)
            assert class_representative(label).images == images, label
            cycles = [c for c in reference_walk(images) if len(c) > 1]
            assert _representative_words(label) == cycles, label


# sha256 of the JSON of every class_representative(label).images, n <= 16,
# as the representatives were first built (from_cycles and a conjugation).
REPRESENTATIVES_DIGEST = "417252c46a76678747db1a6c914b39ccc6679409e09f9c1804c596b88547b6bf"


def test_class_representatives_are_pinned():
    reps = [class_representative(label).images for n in range(1, 17) for label in an_class_labels(n)]
    assert hashlib.sha256(json.dumps(reps).encode()).hexdigest() == REPRESENTATIVES_DIGEST


def test_walk_agrees_with_reference():
    """The walk stops after a cycle through every point; it must still
    report every cycle and fixed point of everything else."""
    rng = random.Random(29)
    for n in range(41):
        cases = [list(range(1, n + 1)), [*range(2, n + 1), 1][:n]]
        if n >= 2:
            cases.append([*range(2, n), 1, n])  # an (n-1)-cycle, n fixed
            word = rng.sample(range(1, n + 1), n)
            cases.append(list(Permutation.from_cycles(n, [word]).images))
        cases += [list(random_permutation(n, rng).images) for _ in range(5)]
        for images in cases:
            ref = reference_walk(images)
            expected = ([c for c in ref if len(c) > 1], sum(len(c) == 1 for c in ref))
            assert _walk(images) == expected, images


def test_class_label_validation():
    with pytest.raises(ValueError):
        ClassLabel(Partition((5,)), None)  # split type needs a sign
    with pytest.raises(ValueError):
        ClassLabel(Partition((3, 1, 1)), "+")  # non-split takes no sign
    with pytest.raises(ValueError):
        ClassLabel(Partition((2, 1)))  # odd type
    assert parse_class_label("5,3,1:+").sign == "+"
    assert parse_class_label("2,2,1").sign is None


def test_an_class_of_round_trips():
    for label in an_class_labels(7):
        assert an_class_of(class_representative(label)) == label
    with pytest.raises(OddPermutation):
        an_class_of(Permutation.from_cycles(4, [(1, 2)]))


def test_an_class_of_examples():
    g = Permutation.from_cycles(5, [(1, 2, 3)])
    assert an_class_of(g) == ClassLabel(Partition((3, 1, 1)))
    assert an_class_of(parse_permutation("(1,2,3,5,4)")) == ClassLabel(Partition((5,)), "-")


def test_split_halves_exhaustive():
    # The two labels of a split type halve its S_n class, for n <= 7.
    for n in range(3, 8):
        for label in an_class_labels(n):
            if not label.is_split():
                continue
            plus = ClassLabel(label.cycle_type, "+")
            seen = {"+": 0, "-": 0}
            for g in permutations_of_type(label.cycle_type):
                seen[an_class_of(g).sign] += 1
            assert seen["+"] == seen["-"] == an_class_size(plus)


def _check_labels_are_orbits(n):
    # The A_n classes are the orbits of the oracle's definition-level
    # representatives under conjugation by generators of A_n.  The orbits
    # partition A_n, and an_class_of gives every member of an orbit that
    # orbit's label, so its fibers are exactly the classes and the "+"
    # class is the one the definition names.
    classes = orbit_classes(n)
    union = set().union(*classes.values())
    assert len(union) == sum(map(len, classes.values())) == math.factorial(n) // 2
    for label, members in classes.items():
        assert len(members) == an_class_size(label)
        assert all(an_class_of(Permutation(h)) == label for h in members)


def test_an_class_agrees_with_brute_force():
    # Exhaustive at n = 4, 5, 6 and 8; n = 7 has its own test below.
    for n in (4, 5, 6, 8):
        _check_labels_are_orbits(n)


def test_an_class_agrees_with_brute_force_n7():
    _check_labels_are_orbits(7)


def _split_type(parts) -> bool:
    """Whether an even S_n class of this type splits in A_n: exactly
    when its centralizer lies in A_n, that is when no part is even and no
    two parts are equal."""
    return len(set(parts)) == len(parts) and all(k % 2 for k in parts)


def test_an_class_agrees_with_brute_force_sampled():
    # g and h = s g s^-1 lie in one A_n class unless s is odd and the type
    # splits.  At n <= 9 both labels are checked against orbits, each
    # computed once per class.  At n = 10..12 the labels are anchored on
    # the definition of the "+" class: the consecutive-fill element r of
    # g's type conjugated by s, on explicit images, is "+" exactly when s
    # is even.  Parities come from inversion counts and types from the
    # oracle's own walk, not from the code under test.
    rng = random.Random(7)
    orbits = {}
    for _ in range(10_000):
        n = rng.randint(4, 12)
        g = random_even_permutation(n, rng)
        s = random_permutation(n, rng)
        h = conjugate(g, s)
        parts = _lengths(_cycles(g.images))
        s_even = _inversion_parity(s.images) == 0
        split = _split_type(parts)
        same_class = s_even or not split
        lg, lh = an_class_of(g), an_class_of(h)
        if same_class:
            assert lg == lh
        else:
            assert lg.cycle_type == lh.cycle_type and lg.sign != lh.sign
        if n <= 9:
            for label in (lg, lh):
                if label not in orbits:
                    orbits[label] = an_orbit(_representative(label))
            assert g.images in orbits[lg] and h.images in orbits[lh]
            assert (h.images in orbits[lg]) == same_class
        else:
            r = _representative(ClassLabel(Partition(parts), "+" if split else None))
            conj = [0] * n
            for i in range(n):
                conj[s.images[i] - 1] = s.images[r[i] - 1]
            want = ClassLabel(Partition(parts), ("+" if s_even else "-") if split else None)
            assert an_class_of(Permutation(conj)) == want


def test_kappa():
    assert kappa(Permutation.from_cycles(7, [tuple(range(1, 8))])) == 1
    assert kappa(Permutation.from_cycles(5, [tuple(range(1, 6))])) == 0
    g = class_representative(ClassLabel(Partition((7, 3, 1)), "+"))
    assert kappa(g) == 2


def test_is_real_in_an():
    assert is_real_in_an(Permutation.from_cycles(5, [tuple(range(1, 6))]))
    assert not is_real_in_an(Permutation.from_cycles(7, [tuple(range(1, 8))]))
    assert is_real_in_an(class_representative(ClassLabel(Partition((7, 3)), "+")))
    assert is_real_in_an(Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)]))


def test_reality_matches_brute_force():
    # g is real in A_n iff g^-1 lies in the orbit of g.
    for n in (5, 6, 7):
        for label, members in orbit_classes(n).items():
            g = class_representative(label)
            assert g.images in members
            assert is_real_in_an(g) == (g.inverse().images in members)


def test_inverse_label():
    assert inverse_label(ClassLabel(Partition((5,)), "+")).sign == "+"
    assert inverse_label(ClassLabel(Partition((7,)), "+")).sign == "-"
    lab = ClassLabel(Partition((3, 1, 1)))
    assert inverse_label(lab) == lab
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(4, 10)
        g = random_even_permutation(n, rng)
        assert an_class_of(g.inverse()) == inverse_label(an_class_of(g))


def test_class_sizes():
    assert an_class_size(ClassLabel(Partition([1] * 5))) == 1
    assert an_class_size(ClassLabel(Partition((5,)), "+")) == 12
    assert an_class_size(ClassLabel(Partition((3, 1, 1)))) == 20
    for n in (5, 6, 7):
        labels = an_class_labels(n)
        sizes = [an_class_size(l) for l in labels]
        assert sum(sizes) == math.factorial(n) // 2


def test_class_size_matches_enumeration():
    for n in (5, 6):
        for label in an_class_labels(n):
            assert sum(1 for _ in iter_class(label)) == an_class_size(label)


# --- Properties of the cycle walk, each checked against a first-principles
# --- computation rather than the code under test.


def _inversion_parity(images) -> int:
    n = len(images)
    return sum(images[i] > images[j] for i in range(n) for j in range(i + 1, n)) % 2


def _even_images(images: list[int]) -> list[int]:
    """The images themselves, or with the first two swapped if odd."""
    if _inversion_parity(images):
        images[0], images[1] = images[1], images[0]
    return images


@st.composite
def permutations(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return Permutation(draw(st.permutations(range(1, n + 1))))


@st.composite
def split_type_permutations(draw, max_n=40):
    """Random elements of a split type: distinct odd cycle lengths."""
    lengths = draw(st.sets(st.sampled_from(range(1, max_n + 1, 2)), min_size=1))
    while sum(lengths) > max_n:
        lengths.remove(max(lengths))
    n = sum(lengths)
    points = draw(st.permutations(range(1, n + 1)))
    cycles, start = [], 0
    for length in lengths:
        cycles.append(points[start : start + length])
        start += length
    return Permutation.from_cycles(n, cycles)


@given(permutations())
def test_parity_is_inversion_parity(g):
    assert g.parity() == _inversion_parity(g.images)
    assert is_even(g) == (_inversion_parity(g.images) == 0)


@given(permutations())
def test_cycles_partition_the_points(g):
    cycles = g.cycles() + [(x,) for x, y in enumerate(g.images, 1) if x == y]
    assert sorted(x for c in cycles for x in c) == list(range(1, g.n + 1))
    for c in cycles:
        assert c[0] == min(c)
        assert [g(x) for x in c] == list(c[1:] + c[:1])
    assert [(-len(c), c[0]) for c in cycles] == sorted((-len(c), c[0]) for c in cycles)
    assert g.cycles() == [c for c in cycles if len(c) > 1]
    assert cycle_type(g).parts == tuple(sorted(map(len, cycles), reverse=True))


@given(st.one_of(permutations(), split_type_permutations()), st.data())
def test_an_class_of_under_conjugation(g, data):
    if g.n < 2:
        return
    g = Permutation(_even_images(list(g.images)))
    s = data.draw(st.permutations(range(1, g.n + 1)))
    # s g s^-1 sends s(x) to s(g(x)).
    h = [0] * g.n
    for x in range(1, g.n + 1):
        h[s[x - 1] - 1] = s[g(x) - 1]
    label, conj = an_class_of(g), an_class_of(Permutation(h))
    if _inversion_parity(s) == 0 or label.sign is None:
        assert conj == label
    else:
        assert conj.cycle_type == label.cycle_type and conj.sign != label.sign


# --- The kernel against the reference code it replaced (tests/oracles.py).


def _outcome(build, *args):
    """The images built, or the message of the ValueError raised."""
    try:
        out = build(*args)
    except ValueError as exc:
        return "raises", str(exc)
    return "builds", tuple(getattr(out, "images", out))


# Arbitrary small ints: duplicates, 0, n + 1, negatives and the empty list.
_int_lists = st.lists(st.integers(min_value=-3, max_value=12), max_size=10)


@st.composite
def _near_permutations(draw):
    """Images of a permutation of 1..n, one of them replaced by anything
    from -2 to n + 1: mostly a duplicate beside the least and greatest
    points 1 and n."""
    images = list(draw(st.permutations(range(1, draw(st.integers(1, 9)) + 1))))
    images[draw(st.integers(0, len(images) - 1))] = draw(st.integers(-2, len(images) + 1))
    return images


@given(st.one_of(_int_lists, _near_permutations(), permutations(max_n=9).map(lambda g: g.images)))
def test_constructor_raises_as_reference(images):
    # Both entry points: on int lists _from_ints skips only the int() pass.
    outcome = _outcome(Permutation, images)
    assert outcome == _outcome(Permutation._from_ints, images) == _outcome(reference_images, images)


def test_public_constructor_coerces_images():
    g = Permutation(["2", "1"])
    assert g.images == (2, 1) and all(type(x) is int for x in g.images)
    assert g == Permutation._from_ints([2, 1])
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(["1", "1"])


@st.composite
def _near_cycles(draw):
    """(n, cycles) from a split-type element, one point replaced by
    anything from -1 to n + 1."""
    g = draw(split_type_permutations(max_n=9))
    fixed = [[x] for x, y in enumerate(g.images, 1) if x == y]
    cycles = [list(c) for c in g.cycles()] + fixed
    if draw(st.booleans()):
        c = draw(st.sampled_from(cycles))
        c[draw(st.integers(0, len(c) - 1))] = draw(st.integers(-1, g.n + 1))
    return g.n, cycles


@given(
    st.one_of(
        st.tuples(
            st.integers(min_value=-1, max_value=9),
            st.lists(st.lists(st.integers(min_value=-2, max_value=10), max_size=5), max_size=4),
        ),
        _near_cycles(),
    )
)
def test_from_cycles_raises_as_reference(case):
    n, cycles = case
    expect = _outcome(reference_from_cycles, n, cycles)
    assert _outcome(Permutation.from_cycles, n, cycles) == expect
    # The package's own entry point builds the same images and rejects the
    # same words, under one message of its own.
    built = _outcome(Permutation._from_words, n, cycles)
    assert built == expect if expect[0] == "builds" else built[0] == "raises"


# Words that are not disjoint cycles on 1..n, one fault each.
_BAD_WORDS = {
    "repeated-in-one-word": (6, [[1, 2, 1]]),
    "in-two-words": (6, [[1, 2, 3], [4, 2]]),
    "below-1": (6, [[0, 2], [3, 4]]),
    "above-n": (6, [[3, 4], [5, 7]]),
}


@pytest.mark.parametrize("n, words", _BAD_WORDS.values(), ids=list(_BAD_WORDS))
def test_from_words_rejects_words_that_are_not_disjoint_cycles(n, words):
    with pytest.raises(ValueError, match=r"^words are not disjoint cycles on 1\.\.6$"):
        Permutation._from_words(n, words)


def test_from_words_rejects_bad_words_under_optimize():
    # The check is an if, not an assert: python -O keeps it.
    code = (
        "from ancover.permutations import Permutation\n"
        f"cases = {list(_BAD_WORDS.values())!r}\n"
        "for n, words in cases:\n"
        "    try:\n"
        "        Permutation._from_words(n, words)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'built {words}')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _split_elements(n, rng):
    """Random elements of split types of degree n."""
    if n <= 9:
        types = [l.cycle_type for l in an_class_labels(n) if l.sign == "+"]
    else:
        types = [Partition((n,)), Partition((n - 4, 3, 1))]
    for t in types:
        s = random_permutation(n, rng)
        yield conjugate(class_representative(ClassLabel(t, "+")), s)


def test_kernel_agrees_with_reference():
    rng = random.Random(12)
    for n in [*range(1, 10), 51, 1001]:
        for _ in range(20 if n <= 51 else 4):
            h = random_permutation(n, rng)
            assert h.parity() == reference_parity(h.images)
            for g in (random_even_permutation(n, rng), *_split_elements(n, rng)):
                assert g.parity() == reference_parity(g.images) == 0
                assert cycle_type(g) == reference_cycle_type(g.images)
                assert an_class_of(g) == reference_an_class_of(g.images)
