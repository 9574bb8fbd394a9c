from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenalyzer.scalars import ZERO, QQi, gaussian_integers, pair_str, parse_pair, parse_part, qq


def test_exact_arithmetic_is_lossless():
    a = qq("1/3", "2/7")
    b = qq("-0.5", "1")
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == ZERO


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qq(1) / ZERO


def test_parse_decimal_strings_exactly():
    assert parse_pair(["-0.5", "0"]) == qq(Fraction(-1, 2))
    assert parse_pair(["1/3", "2"]) == QQi(Fraction(1, 3), 2)


def test_parse_rejects_floats():
    with pytest.raises(ValueError):
        parse_pair([0.5, 0])


def test_pair_str_round_trip():
    x = qq("22/7", "-3")
    assert parse_pair(pair_str(x)) == x


def test_str_forms():
    assert str(qq(1)) == "1"
    assert str(qq(0, 1)) == "1i"
    assert str(qq("1/2", "-3/4")) == "1/2-3/4i"


def test_hash_consistency():
    assert hash(qq("2/4")) == hash(qq("1/2"))
    assert qq("2/4") == qq("1/2")


def _is_integral(d, values):
    return all((d * x.re).denominator == 1 and (d * x.im).denominator == 1 for x in values)


def _primes(d):
    p = 2
    while p * p <= d:
        if d % p == 0:
            yield p
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        yield d


@given(
    values=st.lists(
        st.builds(
            QQi,
            st.fractions(max_denominator=12),
            st.fractions(max_denominator=12),
        ),
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_gaussian_integers_share_the_least_common_denominator(values):
    d, ints = gaussian_integers(values)
    assert len(ints) == len(values)
    for x, (a, b) in zip(values, ints):
        assert isinstance(a, int) and isinstance(b, int)
        assert QQi(Fraction(a, d), Fraction(b, d)) == x
    # every x is integral over d and over no proper divisor of it
    assert d >= 1 and _is_integral(d, values)
    assert not any(_is_integral(d // p, values) for p in _primes(d))


def test_gaussian_integers_of_empty_and_zero_input():
    assert gaussian_integers([]) == (1, [])
    assert gaussian_integers(iter([ZERO, ZERO])) == (1, [(0, 0), (0, 0)])
    assert gaussian_integers([qq("1/2", "-2/3"), qq(0, 3)]) == (6, [(3, -4), (0, 18)])


def test_parse_part_bounds_the_magnitude():
    assert parse_part("1e150") == 10**150
    assert parse_part("-1e150") == -(10**150)
    for x in ("1e160", "-1e200", "1e300", 10**151):
        with pytest.raises(ValueError, match="float range"):
            parse_part(x)
