import math
import random
from fractions import Fraction

import pytest

from ancover.bounds import (
    EvenOrSmallN,
    hook_bound,
    prop24_certificate,
    prop24_monotone_decreasing,
    surd_sign,
)
from ancover.characters import AlgebraicValue
from oracles import abs_value_le_surd, surd_le


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
    assert abs_value_le_surd(AlgebraicValue(F(1, 2), F(-1, 2), 5), bound)
    assert not abs_value_le_surd(AlgebraicValue(3), bound)
    complex_v = AlgebraicValue(F(-1, 2), F(1, 2), -7)
    assert abs_value_le_surd(complex_v, [(F(1, 2), 1), (F(1, 2), 7)])


def test_hook_bound_values():
    assert hook_bound(13, 2) == 1
    assert hook_bound(9, 2) == 1
    assert hook_bound(13, 4) == 1 + math.comb(6, 1)
    with pytest.raises(ValueError):
        hook_bound(5, 6)


def test_prop24_certificate():
    rep = prop24_certificate(13)
    assert rep.all_ok()
    assert rep.hook_sum_value < Fraction(1, 2)
    prop24_certificate(11)  # odd n below 13 get values too
    with pytest.raises(EvenOrSmallN):
        prop24_certificate(12)
    with pytest.raises(EvenOrSmallN):
        prop24_certificate(5)


def test_prop24_monotone():
    reports = [prop24_certificate(n) for n in range(13, 42, 2)]
    assert prop24_monotone_decreasing(reports)
    assert not prop24_monotone_decreasing(reports[::-1])
