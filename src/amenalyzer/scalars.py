"""Exact complex scalars with arbitrary-precision rational parts."""

from __future__ import annotations

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

    def conjugate(self):
        return QQi(self.re, -self.im)

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
_EXPONENT = re.compile(r"e([-+]?[0-9_]+)\s*$", re.IGNORECASE)


def parse_part(x):
    """One real part, exactly: an int, a Fraction, or a decimal/rational string.

    bool and float are refused, as are decimal exponents beyond
    ``MAX_EXPONENT`` and values beyond the float range, which the float
    lane and the character search could not convert.
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
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{x!r} is beyond the float range") from None
    return value


def pair_str(q: QQi):
    """Serialize a scalar as a [re, im] pair of exact strings."""
    return [str(q.re), str(q.im)]
