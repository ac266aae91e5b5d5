import math
import random
from fractions import Fraction

import pytest

from ancover.bounds import (
    EvenOrSmallN,
    amgm_report,
    e_profile,
    hook_bound,
    min_split_degree_report,
    prop24_certificate,
    prop24_monotone_decreasing,
    surd_sign,
)
from ancover.characters import AlgebraicValue
from ancover.combinatorics import LimitExceeded, Partition, enumerate_distinct_partitions
from ancover.permutations import Permutation, random_permutation
from oracles import E_fraction, abs_value_le_surd, run_python, surd_le


def test_surd_sign_exact_cases():
    F = Fraction
    assert surd_sign([(F(1), 8), (F(-2), 2)]) == 0
    assert surd_sign([(F(1), 2), (F(-1), 3)]) == -1
    assert surd_sign([(F(3), 1), (F(-1), 5)]) == 1
    assert surd_sign([(F(-1), 1), (F(1), 2), (F(-1), 3)]) == -1
    assert surd_sign([]) == 0


def test_surd_sign_against_floats():
    rng = random.Random(0)
    for _ in range(2000):
        terms = [
            (Fraction(rng.randint(-20, 20), rng.randint(1, 7)), rng.randint(0, 50))
            for _ in range(rng.randint(1, 4))
        ]
        val = sum(float(q) * math.sqrt(d) for q, d in terms)
        if abs(val) > 1e-7:
            assert surd_sign(terms) == (1 if val > 0 else -1)


def test_surd_le_and_abs_bound():
    F = Fraction
    assert surd_le([(F(1), 2)], [(F(3, 2), 1)])
    golden = AlgebraicValue(F(1, 2), F(1, 2), 5)
    bound = [(F(1, 2), 1), (F(1, 2), 5)]  # (1 + sqrt 5)/2
    assert abs_value_le_surd(golden, bound)
    assert abs_value_le_surd(golden.galois_conjugate(), bound)
    assert not abs_value_le_surd(AlgebraicValue(3), bound)
    complex_v = AlgebraicValue(F(-1, 2), F(1, 2), -7)
    assert abs_value_le_surd(complex_v, [(F(1, 2), 1), (F(1, 2), 7)])


def test_hook_bound_values():
    assert hook_bound(13, 2) == 1
    assert hook_bound(9, 2) == 1
    assert hook_bound(13, 4) == 1 + math.comb(6, 1)
    with pytest.raises(ValueError):
        hook_bound(5, 6)


def test_e_profile_extremes():
    prof = e_profile(Permutation.identity(6))
    assert prof.counts == (6, 6, 6, 6, 6, 6)
    assert E_fraction(prof) == 1
    prof = e_profile(Permutation.from_cycles(7, [tuple(range(1, 8))]))
    assert prof.counts[:6] == (0, 0, 0, 0, 0, 0)
    assert E_fraction(prof) == Fraction(1, 7)


def test_e_profile_rejects_bad_counts_under_optimize():
    # The counts checks must not vanish under python -O the way asserts do.
    code = (
        "from ancover.bounds import EProfile\n"
        "for n, counts in [(3, (2, 1, 3)), (3, (1, 3)), (3, (0, 1, 2))]:\n"
        "    try:\n"
        "        EProfile(n, counts)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'EProfile accepted {counts}')\n"
    )
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_e_profile_defining_property():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randint(2, 200)
        g = random_permutation(n, rng)
        prof = e_profile(g)
        lens = [len(c) for c in g.cycles(include_fixed=True)]
        for k in sorted({1, 2, min(3, n), n}):
            expect = sum(l for l in lens if l <= k)
            assert prof.counts[k - 1] == expect


def test_e_profile_short_orbit_certificate():
    rng = random.Random(5)
    hits = 0
    for _ in range(800):
        n = rng.randint(10, 150)
        g = random_permutation(n, rng)
        prof = e_profile(g)
        for M in (3, 5, 10):
            if prof.satisfies_short_orbit_hypothesis(M):
                hits += 1
                assert prof.check_short_orbit_bound(M)
    assert hits > 50


def test_prop24_certificate():
    rep = prop24_certificate(13)
    assert rep.asserted and rep.all_ok()
    assert rep.hook_sum_value < Fraction(1, 2)
    rep11 = prop24_certificate(11)
    assert not rep11.asserted
    with pytest.raises(EvenOrSmallN):
        prop24_certificate(12)
    with pytest.raises(EvenOrSmallN):
        prop24_certificate(5)


def test_prop24_monotone():
    assert prop24_monotone_decreasing(13, 41)


def test_amgm_report():
    rep = amgm_report(3)
    assert rep.max_product == 3
    assert rep.argmax == Partition((3,))
    assert rep.all_bounded and rep.part_counts_ok
    rep = amgm_report(10)
    # 10 = 2+3+5 gives 30; 1+2+3+4 wastes the 1
    assert rep.max_product == 30
    for p in enumerate_distinct_partitions(10):
        m = len(p.parts)
        assert Fraction(math.prod(p.parts)) <= Fraction(10, m) ** m
    with pytest.raises(LimitExceeded):
        amgm_report(41)


def test_min_split_degree_report():
    rep = min_split_degree_report(5)
    assert rep.min_half_degree == 3
    assert rep.entries[0].partition == Partition((3, 1, 1))
    assert all(e.divides_half_factorial for e in rep.entries)
    rep2 = min_split_degree_report(2)
    assert rep2.min_half_degree is None
    rep16 = min_split_degree_report(16)
    assert all(e.divides_half_factorial for e in rep16.entries)
