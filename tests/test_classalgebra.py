import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ancover.characters import an_character_table
from ancover.characters import CharacterTable
from ancover.classalgebra import (
    IrrationalResidue,
    covering_number,
    covers,
    frobenius_count,
    power_counts,
    product_counts,
)
from ancover.combinatorics import Partition
from ancover.oracle import brute_frobenius, brute_product_counts
from ancover.permutations import (
    an_class_labels,
    an_class_size,
    class_representative,
    inverse_label,
    parse_class_label,
)
from oracles import is_covered_by, labels_of_type, reference_column_sums, run_python


def _lbl(text):
    from ancover.permutations import parse_class_label

    return parse_class_label(text)


def test_class_size_examples():
    assert an_class_size(_lbl("1x5")) == 1
    assert an_class_size(_lbl("5:+")) == 12
    assert an_class_size(_lbl("3,1,1")) == 20


def test_identity_class_acts_as_unit():
    identity = _lbl("1x5")
    for D in an_class_labels(5):
        for g in an_class_labels(5):
            expected = 1 if D == g else 0
            assert frobenius_count(identity, D, g) == expected


def test_a5_exception_counts():
    assert frobenius_count(_lbl("5:+"), _lbl("5:+"), _lbl("2,2,1")) == 0
    assert frobenius_count(_lbl("5:-"), _lbl("5:-"), _lbl("2,2,1")) == 0
    assert frobenius_count(_lbl("5:+"), _lbl("5:-"), _lbl("2,2,1")) > 0


def test_counts_match_brute_force_n5_n6():
    for n in (5, 6):
        table = an_character_table(n)
        for C in table.classes:
            for D in table.classes:
                for E in table.classes:
                    assert frobenius_count(C, D, E, table=table) == brute_frobenius(
                        C, D, class_representative(E)
                    )


def test_counts_match_brute_force_sampled_n7():
    rng = random.Random(11)
    table = an_character_table(7)
    for _ in range(60):
        C, D, E = (rng.choice(table.classes) for _ in range(3))
        assert frobenius_count(C, D, E, table=table) == brute_frobenius(
            C, D, class_representative(E)
        )


def test_counting_consistency():
    # Sum over classes of count * |class| recovers |C| * |D|.
    for n in range(5, 11):
        table = an_character_table(n)
        for C in table.classes:
            for D in table.classes:
                total = sum(
                    frobenius_count(C, D, E, table=table) * an_class_size(E)
                    for E in table.classes
                )
                assert total == an_class_size(C) * an_class_size(D)


def test_triple_symmetry_spot_checks():
    rng = random.Random(2)
    for n in (6, 7, 8, 9):
        table = an_character_table(n)
        for _ in range(30):
            C, D, E = (rng.choice(table.classes) for _ in range(3))
            t1 = frobenius_count(C, D, inverse_label(E), table=table) * an_class_size(E)
            t2 = frobenius_count(D, E, inverse_label(C), table=table) * an_class_size(C)
            t3 = frobenius_count(E, C, inverse_label(D), table=table) * an_class_size(D)
            assert t1 == t2 == t3


def test_covers_examples():
    n7 = covers(_lbl("7:+"), _lbl("7:-"))
    assert n7.covered
    rep = covers(_lbl("5:+"), _lbl("5:+"))
    assert not rep.covered
    assert [c.text() for c in rep.uncovered] == ["2,2,1"]
    assert covers(_lbl("5:+"), _lbl("5:-")).covered


def test_coverage_report_serialization():
    rep = covers(_lbl("5:+"), _lbl("5:+"))
    data = rep.to_json_dict()
    assert data["covered"] is False
    assert data["uncovered"] == ["2,2,1"]
    assert set(data) == {"schema", "n", "C", "D", "uncovered", "covered"}
    assert any("missing" in line for line in rep.text_lines())


def test_is_covered_by():
    assert is_covered_by(Partition((7,)), _lbl("5,1,1"))
    assert not is_covered_by(Partition((5,)), _lbl("2,2,1"))
    assert is_covered_by(Partition((5,)), _lbl("5:+"))
    with pytest.raises(ValueError):
        is_covered_by(Partition((2, 1)), _lbl("3,1,1"))  # odd type


def test_labels_of_type():
    assert len(labels_of_type(Partition((5,)))) == 2
    assert len(labels_of_type(Partition((3, 1, 1)))) == 1


def test_covering_numbers_small():
    assert covering_number(_lbl("5:+")) == 3
    assert covering_number(_lbl("5:-")) == 3
    assert covering_number(_lbl("7:+")) == 3
    assert covering_number(_lbl("9:+")) == 2
    # a non-split class for contrast: 3-cycles in A_5 need 2 squarings
    assert covering_number(_lbl("3,1,1")) == 2


def test_covering_number_rejects_identity():
    with pytest.raises(ValueError):
        covering_number(_lbl("1x5"))


@pytest.mark.parametrize(
    "call",
    [
        lambda C, t: frobenius_count(C, C, _lbl("1x5"), table=t),
        lambda C, t: product_counts(C, C, table=t),
        lambda C, t: power_counts(C, 2, table=t),
        lambda C, t: covers(C, C, table=t),
        lambda C, t: covering_number(C, table=t),
    ],
    ids=["frobenius_count", "product_counts", "power_counts", "covers", "covering_number"],
)
def test_a_table_of_another_degree_is_a_value_error(call):
    # Not a KeyError from the class lookup: the message names both degrees.
    with pytest.raises(ValueError, match="^labels of degree 5 against a table of degree 7$"):
        call(_lbl("5:+"), an_character_table(7))


def test_product_support_unions_to_consistency():
    table = an_character_table(6)
    C = _lbl("5,1:+")
    supp = {E for E, count in product_counts(C, C, table=table).items() if count}
    assert _lbl("1x6") in supp  # kappa even: the class is real
    everything = set(table.classes)
    assert supp <= everything


def _sampled_pairs(rng, table, count):
    return [(rng.choice(table.classes), rng.choice(table.classes)) for _ in range(count)]


def test_product_counts_match_frobenius_count():
    for n in (5, 6, 7):
        table = an_character_table(n)
        for C in table.classes:
            for D in table.classes:
                counts = product_counts(C, D, table=table)
                assert list(counts) == table.classes
                for E in table.classes:
                    assert counts[E] == frobenius_count(C, D, E, table=table)
    rng = random.Random(12)
    for n in range(12, 17):
        table = an_character_table(n)
        for C, D in _sampled_pairs(rng, table, 6):
            counts = product_counts(C, D, table=table)
            for E in rng.sample(table.classes, 8):
                assert counts[E] == frobenius_count(C, D, E, table=table)


def test_product_counts_sum_and_symmetry_large_n():
    rng = random.Random(13)
    for n in range(12, 17):
        table = an_character_table(n)
        for C, D in _sampled_pairs(rng, table, 8):
            counts = product_counts(C, D, table=table)
            total = sum(counts[E] * an_class_size(E) for E in table.classes)
            assert total == an_class_size(C) * an_class_size(D)
            assert product_counts(D, C, table=table) == counts


def test_power_counts_square_is_product_counts():
    rng = random.Random(14)
    for n in (5, 7, 9, 12, 16):
        table = an_character_table(n)
        for C in rng.sample(table.classes, min(6, len(table.classes))):
            assert power_counts(C, 2, table=table) == product_counts(C, C, table=table)
    C = _lbl("5:+")
    assert power_counts(C, 1) == {E: int(E == C) for E in an_class_labels(5)}
    with pytest.raises(ValueError):
        power_counts(C, 0)


@st.composite
def class_pairs(draw):
    """A table at random n in 5..16 and two of its classes."""
    table = an_character_table(draw(st.integers(5, 16)))
    C = draw(st.sampled_from(table.classes))
    D = draw(st.sampled_from(table.classes))
    return table, C, D


@settings(max_examples=60, deadline=None)
@given(class_pairs(), st.data())
def test_class_product_identities(pair, data):
    table, C, D = pair
    counts = product_counts(C, D, table=table)
    sizes = an_class_size(C) * an_class_size(D)
    assert sum(an_class_size(E) * c for E, c in counts.items()) == sizes
    assert product_counts(D, C, table=table) == counts
    # |E| N(C, D, E) = |C| N(E, D^-1, C): both sides count the triples
    # (c, d, e) in C x D x E with c d = e.
    E = data.draw(st.sampled_from(table.classes))
    back = product_counts(E, inverse_label(D), table=table)
    assert an_class_size(E) * counts[E] == an_class_size(C) * back[C]


@settings(max_examples=40, deadline=None)
@given(class_pairs())
def test_square_counts_are_self_products(pair):
    table, C, _ = pair
    assert power_counts(C, 2, table=table) == product_counts(C, C, table=table)


def _closure_covering_number(C, classes, support_of):
    """Reference: iterate the class support of C, C^2, ... to everything."""
    everything = set(classes)
    support = {C}
    k = 1
    while support != everything:
        new = set().union(*(support_of(A, C) for A in support))
        assert new != support, f"support of {C} powers stabilized"
        support = new
        k += 1
    return k


def test_covering_numbers_match_support_closure():
    for n in (8, 9, 10):
        table = an_character_table(n)
        cache = {}

        def support_of(A, C):
            if (A, C) not in cache:
                cache[A, C] = {
                    E for E in table.classes if frobenius_count(A, C, E, table=table) > 0
                }
            return cache[A, C]

        for C in table.classes:
            if C.cycle_type.ones() == n:
                continue
            expect = _closure_covering_number(C, table.classes, support_of)
            assert covering_number(C, table=table) == expect, (n, C)


def test_covering_numbers_match_brute_force_closure():
    for n in (5, 6, 7):
        cache = {}

        def support_of(A, C):
            if (A, C) not in cache:
                counts = brute_product_counts(A, C)
                cache[A, C] = {E for E, count in counts.items() if count}
            return cache[A, C]

        for C in an_class_labels(n):
            if C.cycle_type.ones() == n:
                continue
            expect = _closure_covering_number(C, an_class_labels(n), support_of)
            assert covering_number(C) == expect, (n, C)


def test_flipped_irrational_cell_raises():
    good = an_character_table(5)
    i, (d, coefs) = next(iter(good.surds.items()))
    j = next(iter(coefs))
    flipped = dict(coefs)
    flipped[j] = -flipped[j]
    surds = dict(good.surds)
    surds[i] = (d, flipped)
    bad = CharacterTable(
        5, good.classes, good.class_sizes, good.irreducibles, good.rows, surds
    )
    C = good.classes[j]
    with pytest.raises(IrrationalResidue, match="irrational residue"):
        product_counts(C, _lbl("1x5"), table=bad)
    with pytest.raises(IrrationalResidue):
        power_counts(C, 2, table=bad)


def test_error_messages_name_the_question():
    # The label text is built only when a count fails; pin it in full.
    good = an_character_table(5)
    surds = dict(good.surds)
    d, coefs = surds[3]
    surds[3] = (d, {**coefs, 0: -coefs[0]})  # flip the sqrt(5) part of 5:+
    bad = CharacterTable(5, good.classes, good.class_sizes, good.irreducibles, good.rows, surds)
    sizes = list(good.class_sizes)
    sizes[good.classes.index(_lbl("3,1,1"))] += 1
    resized = CharacterTable(5, good.classes, sizes, good.irreducibles, good.rows, good.surds)
    c5, c3, one = _lbl("5:+"), _lbl("3,1,1"), _lbl("1x5")
    cases = [
        (
            lambda: frobenius_count(c5, one, c5, table=bad),
            "irrational residue {5: [-480]} for (5:+, 1,1,1,1,1, 5:+)",
        ),
        (
            lambda: product_counts(c5, one, table=bad),
            "irrational residue {5: [-480, -240, 480, -1440]} for (5:+, 1,1,1,1,1)",
        ),
        (
            lambda: power_counts(c5, 2, table=bad),
            "irrational residue {5: [-320, -80, 160, -480]} for 5:+^2",
        ),
        (
            lambda: frobenius_count(c3, c3, c5, table=resized),
            "count 441/80 for (3,1,1, 3,1,1, 5:+) is not a nonnegative integer",
        ),
        (
            lambda: product_counts(c3, _lbl("2,2,1"), table=resized),
            "count 21/4 for (3,1,1, 2,2,1) -> 5:+ is not a nonnegative integer",
        ),
    ]
    for call, message in cases:
        with pytest.raises(IrrationalResidue) as caught:
            call()
        assert str(caught.value) == message


@pytest.mark.parametrize("n", [7, 12])
def test_every_changed_surd_coefficient_raises(n):
    # On a copy of the table with one sqrt(d) coefficient raised by one,
    # the square of that coefficient's class leaves an irrational residue:
    # at the identity it is 4|G| eps, from the split pair whose two
    # coefficients no longer cancel.  The one-target count at the identity
    # finds it as the all-target counts do.
    good = an_character_table(n)
    identity = _lbl(f"1x{n}")
    edits = 0
    for i, (d, coefs) in good.surds.items():
        for j, b in coefs.items():
            surds = {**good.surds, i: (d, {**coefs, j: b + 1})}
            bad = CharacterTable(
                n, good.classes, good.class_sizes, good.irreducibles, good.rows, surds
            )
            C = good.classes[j]
            with pytest.raises(IrrationalResidue, match="irrational residue"):
                product_counts(C, C, table=bad)
            with pytest.raises(IrrationalResidue, match="irrational residue"):
                frobenius_count(C, C, identity, table=bad)
            edits += 1
    assert edits >= 4


def test_changed_surd_coefficients_raise_under_python_O():
    code = (
        "from ancover.characters import CharacterTable, an_character_table\n"
        "from ancover.classalgebra import IrrationalResidue, frobenius_count, product_counts\n"
        "from ancover.permutations import parse_class_label\n"
        "for n in (7, 12):\n"
        "    t = an_character_table(n)\n"
        "    one = parse_class_label(f'1x{n}')\n"
        "    for i, (d, coefs) in t.surds.items():\n"
        "        for j, b in coefs.items():\n"
        "            surds = {**t.surds, i: (d, {**coefs, j: b + 1})}\n"
        "            bad = CharacterTable(n, t.classes, t.class_sizes, t.irreducibles, t.rows, surds)\n"
        "            C = t.classes[j]\n"
        "            for count in (lambda: product_counts(C, C, table=bad),\n"
        "                          lambda: frobenius_count(C, C, one, table=bad)):\n"
        "                try:\n"
        "                    count()\n"
        "                except IrrationalResidue:\n"
        "                    continue\n"
        "                raise SystemExit(f'A_{n}: sqrt coefficient ({i}, {j}) changed, no residue')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


REFERENCE_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference_class_queries.json"


def test_the_benchmark_reference_pool_replays():
    # perfbench's class-queries answers, recorded by an earlier kernel:
    # every triple and covers pair at n = 12..16, and every covering number
    # at n = 11..13.
    ref = json.loads(REFERENCE_POOL.read_text())
    triples = pairs = 0
    for n, rows in ref["frobenius"].items():
        table = an_character_table(int(n))
        for *labels, count in rows:
            C, D, g = map(parse_class_label, labels)
            assert frobenius_count(C, D, g, table=table) == count, labels
            triples += 1
    for n, rows in ref["covers"].items():
        table = an_character_table(int(n))
        for C, D, uncovered in rows:
            report = covers(parse_class_label(C), parse_class_label(D), table=table)
            assert sorted(g.text() for g in report.uncovered) == uncovered, (C, D)
            pairs += 1
    for C, cn in ref["covering_number"].items():
        assert covering_number(parse_class_label(C)) == cn, C
    assert (triples, pairs) == (1500, 200)
    every = [C for n in (11, 12, 13) for C in an_class_labels(n)]
    assert set(ref["covering_number"]) == {C.text() for C in every if C.cycle_type.parts[0] > 1}


def test_cubes_at_n18_match_the_dot_product_reference(monkeypatch):
    # At A_18 the cube weights need slots of more than one 64-bit word.
    table = an_character_table(18)
    table.verify_orthogonality()
    rng = random.Random(18)
    classes = [table.classes[0], table.classes[-2]] + rng.sample(table.classes[1:-2], 3)
    got = {C: power_counts(C, 3, table=table) for C in classes}
    monkeypatch.setattr(CharacterTable, "column_sums", reference_column_sums)
    for C in classes:
        assert got[C] == power_counts(C, 3, table=table), C
    x = table.columns[table.class_index(classes[0])]
    rational = [v**3 * w**2 for v, w in zip(x, table.order_over_degree)]
    cell = max(abs(v) for row in table.rows for v in row)
    assert (sum(map(abs, rational)) * cell).bit_length() > 64
