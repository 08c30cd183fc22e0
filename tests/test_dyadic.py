import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotgames.dyadic import Dyadic, _make, dyadic

dyadics = st.builds(Dyadic, st.integers(-2000, 2000), st.integers(0, 10))


def test_normalization():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 1) == Dyadic(3, 0)
    assert Dyadic(0, 7).exp == 0
    assert Dyadic(-12, 2) == Dyadic(-3, 0)
    assert Dyadic(3, 2).num == 3 and Dyadic(3, 2).exp == 2


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_parse_forms():
    assert Dyadic.parse("5") == 5
    assert Dyadic.parse("-3/4") == Dyadic(-3, 2)
    assert Dyadic.parse("1.25") == Dyadic(5, 2)
    assert Dyadic.parse("-0.5") == Dyadic(-1, 1)


@pytest.mark.parametrize("bad", ["1/3", "0.1", "2/6", "x", "1/0", "1/-2", "３/４", "٣"])
def test_parse_rejects_non_dyadic(bad):
    with pytest.raises(ValueError):
        Dyadic.parse(bad)


def test_arithmetic_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    assert Dyadic(1, 1) - 1 == Dyadic(-1, 1)
    assert -Dyadic(3, 2) == Dyadic(-3, 2)
    assert Dyadic(3, 1) * Dyadic(1, 1) == Dyadic(3, 2)
    assert Dyadic(5).half() == Dyadic(5, 1)
    assert 2 * Dyadic(1, 1) == 1


def test_int_interop():
    assert Dyadic(4) == 4
    assert hash(Dyadic(4)) == hash(4)
    assert Dyadic(9, 1) > 4
    assert 5 > Dyadic(9, 1)
    assert int(Dyadic(7)) == 7
    with pytest.raises(ValueError):
        int(Dyadic(1, 1))


def test_str_forms():
    assert str(Dyadic(7)) == "7"
    assert str(Dyadic(-3, 2)) == "-3/4"
    assert str(Dyadic(33, 2)) == "33/4"


@given(dyadics, dyadics)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(dyadics, dyadics, dyadics)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(dyadics)
def test_round_trip(a):
    assert Dyadic.parse(str(a)) == a
    assert dyadic(str(a)) == a


@given(dyadics, dyadics)
def test_order_total(a, b):
    assert (a <= b) or (b <= a)
    if a <= b and b <= a:
        assert a == b
    assert (a < b) == (b > a)
    fa, fb = Fraction(a.num, 2**a.exp), Fraction(b.num, 2**b.exp)
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb, fa >= fb)


@given(dyadics)
def test_half_doubles_back(a):
    assert a.half() + a.half() == a
    assert a.half().half() == a * Dyadic(1, 2)


@given(dyadics, dyadics)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


def _seeded_parts(seed=2024, count=400):
    """(num, exp) pairs with zeros, negatives, even numerators and
    exponents past 64, so the normalization shifts are exercised."""
    rng = random.Random(seed)
    parts = [(0, 0), (0, 70), (-1, 0), (2, 1), (-4, 2), (1 << 80, 65), (-(3 << 66), 70)]
    for _ in range(count):
        num = rng.choice([0, rng.randint(-1000, 1000), rng.randint(-(1 << 90), 1 << 90)])
        num <<= rng.randint(0, 5)
        parts.append((num, rng.choice([0, rng.randint(0, 8), rng.randint(60, 100)])))
    return parts


def _frac(d):
    return Fraction(d.num, 1 << d.exp)


def test_make_equals_validating_constructor():
    for num, exp in _seeded_parts():
        made, built = _make(num, exp), Dyadic(num, exp)
        assert (made.num, made.exp) == (built.num, built.exp)
        assert made == built and hash(made) == hash(built)
        assert _frac(made) == Fraction(num, 1 << exp)


def test_fast_arithmetic_matches_fraction():
    parts = _seeded_parts()
    rng = random.Random(7)
    for _ in range(600):
        a, b = Dyadic(*rng.choice(parts)), Dyadic(*rng.choice(parts))
        fa, fb = _frac(a), _frac(b)
        for got, want in (
            (a + b, fa + fb),
            (a - b, fa - fb),
            (a * b, fa * fb),
            (-a, -fa),
            (abs(a), abs(fa)),
            (a.half(), fa / 2),
        ):
            # each result is normalized: equal values have equal parts
            assert _frac(got) == want
            norm = Dyadic(got.num, got.exp)
            assert (got.num, got.exp) == (norm.num, norm.exp)
        assert (a == b) == (fa == fb)


def test_mixed_operands_keep_their_behaviour():
    assert 1 + Dyadic(1, 1) == Dyadic(3, 1)
    assert Dyadic(1, 1) + 1 == Dyadic(3, 1)
    assert 1 - Dyadic(1, 1) == Dyadic(1, 1)
    assert Dyadic(2) == 2
    assert Dyadic(1) != "1" and not (Dyadic(1) == "1")
    with pytest.raises(TypeError):
        Dyadic(1) + 0.5
    with pytest.raises(TypeError):
        Dyadic(1) - 0.5
    with pytest.raises(TypeError):
        Dyadic(1.0)
    with pytest.raises(TypeError):
        Dyadic(1, 0.5)


def test_pickle_and_copy_go_through_the_constructor():
    for d in (Dyadic(0), Dyadic(-3, 2), Dyadic(1 << 70, 3)):
        assert pickle.loads(pickle.dumps(d)) == d
        assert copy.deepcopy(d) == d
