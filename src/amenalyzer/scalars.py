"""Exact complex scalars with arbitrary-precision rational parts."""

from __future__ import annotations

import math
import re
from fractions import Fraction


class QQi:
    """Complex scalar whose real and imaginary parts are exact rationals.

    Instances are immutable by convention; all arithmetic returns fresh
    objects and never rounds.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        return QQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return QQi(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        denom = c * c + d * d
        if not denom:
            raise ZeroDivisionError("division by zero scalar")
        a, b = self.re, self.im
        return QQi((a * c + b * d) / denom, (b * c - a * d) / denom)

    def inverse(self):
        return ONE / self

    def __eq__(self, other):
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = QQi(0, 0)
ONE = QQi(1, 0)


def gaussian_integers(values):
    """Scalars as Gaussian integers over one denominator: (D, [(a, b), ...]).

    D is the least common multiple of the denominators of every real and
    imaginary part, and each x of ``values`` is (a + b i) / D; D is 1 when
    ``values`` is empty.
    """
    values = list(values)
    d = math.lcm(*(x.re.denominator for x in values), *(x.im.denominator for x in values))
    return d, [
        (x.re.numerator * (d // x.re.denominator), x.im.numerator * (d // x.im.denominator))
        for x in values
    ]


def qq(re, im=0):
    """Coerce ints, Fractions, or numeric strings into a QQi scalar.

    Strings are parsed exactly: "0.5" and "1/2" both denote one half.
    """
    return QQi(Fraction(re), Fraction(im))


def parse_pair(pair):
    """Parse a [re, im] pair of decimal/rational strings or numbers exactly."""
    re, im = pair
    return QQi(parse_part(re), parse_part(im))


# Fraction expands a decimal exponent into an integer, so "1e999999999"
# would build a billion-digit number; 4300 is Python's default limit on the
# digits of an integer string.
MAX_EXPONENT = 4300
# The float lane squares and sums values, and a character's values can
# exceed the constants by a factor of the dimension; squares of parts up to
# 1e150 stay far inside the float range, whose top is about 1.8e308.
MAX_MAGNITUDE = 10**150
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*$", re.IGNORECASE)


def parse_part(x):
    """One real part, exactly: an int, a Fraction, or a decimal/rational string.

    bool and float are refused, as are decimal exponents beyond
    ``MAX_EXPONENT`` and values of modulus beyond ``MAX_MAGNITUDE``, whose
    squares the float lane and the character search could not hold.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(
            f"refusing to parse {type(x).__name__} {x!r} exactly; "
            "pass a decimal string instead"
        )
    if isinstance(x, str):
        exp = _EXPONENT.search(x)
        if exp and abs(int(exp.group(1))) > MAX_EXPONENT:
            raise ValueError(f"exponent of {x!r} is beyond +-{MAX_EXPONENT}")
    value = Fraction(x)
    if abs(value) > MAX_MAGNITUDE:
        raise ValueError(
            f"{x!r} is beyond +-1e150, the bound that keeps its square in the float range"
        )
    return value


def pair_str(q: QQi):
    """Serialize a scalar as a [re, im] pair of exact strings."""
    return [str(q.re), str(q.im)]
