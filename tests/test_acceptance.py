"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact;
the slowest pieces are the n = 13 character work and the brute-force
cross-checks at n = 8, 9.
"""

import math
from fractions import Fraction

from ancover.characters import an_character_table
from ancover.classalgebra import covering_number, covers, frobenius_count
from ancover.suites import (
    split_coverage_report,
    suite_bounds,
    suite_construction,
    suite_gleason,
    suite_prop24,
)
from ancover.combinatorics import Partition, frobenius_symbol
from ancover.permutations import (
    ClassLabel,
    class_representative,
    kappa_of_type,
)
from oracles import abs_value_le_surd, an_orbit, cell, verify_split_pair_sums


def _report(name: str, items) -> None:
    ok = all(passed for _, passed, _ in items)
    for label, passed, detail in items:
        print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")
    assert ok, f"{name} failed: {[l for l, p, _ in items if not p]}"


def test_criterion_1_gleason_desk_scale():
    items = suite_gleason(ns=(7, 9, 11, 13))
    _report("criterion 1", items)


def test_criterion_2_almost_derangements():
    items = suite_prop24(ns=(5, 7, 9, 11))
    _report("criterion 2", items)


def test_criterion_3_ncycle_covering_numbers():
    expected = {5: 3, 7: 3, 9: 2, 11: 3, 13: 2}
    items = []
    for n, want in expected.items():
        table = an_character_table(n)
        got = {
            covering_number(ClassLabel(Partition((n,)), s), table=table) for s in "+-"
        }
        items.append((f"criterion3 n={n}", got == {want}, f"cn={sorted(got)} want {want}"))
    _report("criterion 3", items)


def test_criterion_4_covering_two_iff_kappa_even():
    items = []
    for n in range(5, 10):
        table = an_character_table(n)
        identity = ClassLabel(Partition([1] * n))
        for C in table.classes:
            if not C.is_split():
                continue
            kap = kappa_of_type(C.cycle_type)
            rep = class_representative(C)
            real_formula = frobenius_count(C, C, identity, table=table) > 0
            # Real: rep^-1 lies in the A_n orbit of rep.
            real_brute = rep.inverse().images in an_orbit(rep.images)
            items.append(
                (
                    f"criterion4 reality n={n} {C}",
                    real_formula == real_brute == (kap % 2 == 0),
                    f"kappa={kap}",
                )
            )
            cn = covering_number(C, table=table)
            total = covers(C, C, table=table).covered and real_formula
            items.append(
                (f"criterion4 cn-square n={n} {C}", (cn == 2) == total, f"cn={cn}")
            )
            if n == 5:
                # The A_5 n-cycle classes are the known exception: kappa is
                # even yet the square misses the 2,2,1 class, so cn = 3.
                items.append(
                    (
                        f"criterion4 A5 exception {C}",
                        kap % 2 == 0 and cn == 3,
                        "kappa even but cn = 3",
                    )
                )
            else:
                items.append(
                    (
                        f"criterion4 shadow n={n} {C}",
                        (cn == 2) == (kap % 2 == 0),
                        f"cn={cn}, kappa={kap}",
                    )
                )
    for n in (11, 13):
        table = an_character_table(n)
        identity = ClassLabel(Partition([1] * n))
        for C in table.classes:
            if not C.is_split():
                continue
            kap = kappa_of_type(C.cycle_type)
            real = frobenius_count(C, C, identity, table=table) > 0
            items.append(
                (
                    f"criterion4 identity-in-square n={n} {C}",
                    real == (kap % 2 == 0),
                    f"kappa={kap}",
                )
            )
    _report("criterion 4", items)


def test_criterion_5_constructor_end_to_end():
    items = suite_construction(trials=200, seed=42)
    _report("criterion 5", items)


def test_criterion_6_oracle_equivalence(oracle_equiv_items):
    _report("criterion 6", oracle_equiv_items)


def test_criterion_7_character_table_integrity():
    items = []
    for n in range(2, 14):
        table = an_character_table(n)
        table.verify_orthogonality()
        verify_split_pair_sums(table)
        items.append((f"criterion7 n={n}", True, "orthogonality and split sums exact"))
    t5 = an_character_table(5)
    degrees_ok = sorted(t5.degrees()) == [1, 3, 3, 4, 5]
    items.append(("criterion7 A5 degrees", degrees_ok, "{1,3,3,4,5}"))
    from ancover.characters import AlgebraicValue, IrreducibleLabel

    golden = AlgebraicValue(Fraction(1, 2), Fraction(1, 2), 5)
    galois = AlgebraicValue(Fraction(1, 2), Fraction(-1, 2), 5)
    chi = IrreducibleLabel(Partition((3, 1, 1)), "+")
    vals = {
        cell(t5, chi, ClassLabel(Partition((5,)), s)) for s in "+-"
    }
    items.append(
        (
            "criterion7 A5 split values",
            vals == {golden, galois},
            "(1 +- sqrt 5)/2",
        )
    )
    _report("criterion 7", items)


def test_criterion_8_bounds_certificates():
    items = suite_bounds()
    _report("criterion 8", items)


def test_criterion_9_asymptotic_substitutes():
    lines, agree = split_coverage_report(ns=tuple(range(8, 17)))
    for line in lines:
        print("  " + line)
    items = [("criterion9 oracle agreement n<=9", agree, "report matches brute force")]

    bound_ok = True
    for n in range(3, 14):
        table = an_character_table(n)
        split_columns = [j for j, c in enumerate(table.classes) if c.is_split()]
        for chi, row in zip(table.irreducibles, table.values):
            if not chi.is_split():
                continue
            hooks = frobenius_symbol(chi.partition).diagonal_hooks()
            bound = [(Fraction(1, 2), 1), (Fraction(1, 2), math.prod(hooks))]
            for j in split_columns:
                if not abs_value_le_surd(row[j], bound):
                    bound_ok = False
    items.append(
        (
            "criterion9 split value bound n<=13",
            bound_ok,
            "|phi(x)| <= (1 + sqrt(prod hooks))/2 exhaustively",
        )
    )
    _report("criterion 9", items)
