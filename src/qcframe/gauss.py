"""Exact Gaussian-rational arithmetic.

Every computation in this package is carried out over Q(i): complex
numbers whose real and imaginary parts are exact rationals.  There is
deliberately no floating-point fallback; identities are certified by
comparing against exact zero.

A value is stored as one integer triple ``(a, b, d)``, meaning
``(a + b i) / d``, always reduced: ``d > 0``, ``gcd(a, b, d) == 1``, and
zero is ``(0, 0, 1)``.  The form is canonical, so equality compares the
triples, and the ring operations are plain ``int`` arithmetic with one
``gcd`` per result.

Three helpers serve the rest of the package, so that no other module
reads the triple: ``axpy`` adds a multiple of one sparse vector of values
to another in place, ``cleared`` turns a list of values into Gaussian
integers over their lcm denominator, which ``GaussRational.from_ints``
turns back, and ``random_gauss_ints`` draws random values straight into
Gaussian integers over the fixed denominator ``lcm(1..den)``, with no
``gcd`` and no object per value: the one path by which the package draws
random inputs (``random_gauss`` is its one-value case, reduced).  It
reads ``getrandbits`` by the loop ``randint`` runs, so it gives the
values of ``Fraction(randint, randint)`` draws.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Collection, Dict, List, Mapping, Tuple, Union

Rat = Union[int, Fraction]

_HASH_MODULUS = sys.hash_info.modulus
_new = object.__new__


def _rat_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, without building the Fraction."""
    if d % _HASH_MODULUS == 0:
        return hash(Fraction(n, d))
    h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def _reduced(a: int, b: int, d: int) -> "GaussRational":
    """The triple (a, b, d), d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    r = _new(GaussRational)
    r.a, r.b, r.d = a // g, b // g, d // g
    return r


class GaussRational:
    """A complex number with exact rational real and imaginary parts,
    stored as the reduced triple ``(a + b i) / d``."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if re.__class__ is int and im.__class__ is int:
            self.a, self.b, self.d = re, im, 1
            return
        if not (isinstance(re, Rational) and isinstance(im, Rational)):
            raise TypeError(f"cannot build GaussRational from {re!r}, {im!r}")
        # both parts in lowest terms over their lcm: the triple is reduced
        rd, idn = re.denominator, im.denominator
        d = rd // gcd(rd, idn) * idn
        self.a = re.numerator * (d // rd)
        self.b = im.numerator * (d // idn)
        self.d = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(a: int, b: int, d: int = 1) -> "GaussRational":
        """(a + b i) / d for any ints with d != 0, reduced."""
        if d < 0:
            a, b, d = -a, -b, -d
        elif d == 0:
            raise ZeroDivisionError("GaussRational with denominator 0")
        return _reduced(a, b, d)

    @staticmethod
    def of(value) -> "GaussRational":
        out = GaussRational._coerce(value)
        if out is None:  # not a truth test: ZERO is falsy
            raise TypeError(f"cannot build GaussRational from {value!r}")
        return out

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussRational(value)
        return None

    # -- parts ----------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational._coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d != other.d:
            od = other.d
            return _reduced(self.a * od + other.a * d, self.b * od + other.b * d, d * od)
        if d != 1:
            return _reduced(self.a + other.a, self.b + other.b, d)
        r = _new(GaussRational)
        r.a, r.b, r.d = self.a + other.a, self.b + other.b, 1
        return r

    __radd__ = __add__

    def __neg__(self) -> "GaussRational":
        r = _new(GaussRational)
        r.a, r.b, r.d = -self.a, -self.b, self.d
        return r

    def __sub__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational._coerce(other)
            if other is None:
                return NotImplemented
        d = self.d
        if d != other.d:
            od = other.d
            return _reduced(self.a * od - other.a * d, self.b * od - other.b * d, d * od)
        if d != 1:
            return _reduced(self.a - other.a, self.b - other.b, d)
        r = _new(GaussRational)
        r.a, r.b, r.d = self.a - other.a, self.b - other.b, 1
        return r

    def __rsub__(self, other):
        other = GaussRational._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            other = GaussRational._coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        a = a1 * a2 - b1 * b2
        b = a1 * b2 + b1 * a2
        d = self.d * other.d
        if d != 1:
            return _reduced(a, b, d)
        r = _new(GaussRational)
        r.a, r.b, r.d = a, b, 1
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is int:  # (a + b i) / (d k), the int not coerced
            return GaussRational.from_ints(self.a, self.b, self.d * other)
        other = GaussRational._coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero GaussRational")
        # ((a1 + b1 i) / d1) / ((a2 + b2 i) / d2)
        #   = (a1 + b1 i)(a2 - b2 i) d2 / (d1 (a2^2 + b2^2))
        d2 = other.d
        a = (a1 * a2 + b1 * b2) * d2
        b = (b1 * a2 - a1 * b2) * d2
        return _reduced(a, b, self.d * norm)

    def __rtruediv__(self, other):
        other = GaussRational._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    # -- structure ------------------------------------------------------

    def conj(self) -> "GaussRational":
        r = _new(GaussRational)
        r.a, r.b, r.d = self.a, -self.b, self.d
        return r

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_real(self) -> bool:
        return not self.b

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction (as complex
        # does), any other like the pair (re, im) of its Fraction parts
        a, b, d = self.a, self.b, self.d
        if not b:
            return _rat_hash(a, d)
        if d == 1:
            return hash((a, b))
        return hash((_rat_hash(a, d), _rat_hash(b, d)))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}*i)"


ZERO = GaussRational(0)
ONE = GaussRational(1)
I = GaussRational(0, 1)
HALF = GaussRational(Fraction(1, 2))


def gr(re: Rat = 0, im: Rat = 0) -> GaussRational:
    """Shorthand constructor used pervasively in formula transcriptions."""
    return GaussRational(re, im)


# -- sparse vectors and Gaussian integers ---------------------------------


def axpy(acc: Dict, coeff: GaussRational, coords: Mapping) -> None:
    """acc += coeff * coords in place, dropping what cancels: acc and
    coords are sparse vectors with no zero value, such as coefficient
    dicts, coordinate dicts or the rows of an elimination, and acc stays
    one.  ``coords`` is only read; ``coeff`` ``ONE`` multiplies nothing."""
    if coeff.is_zero():
        return
    unit = coeff is ONE
    for k, v in coords.items():
        if not unit:
            v = coeff * v
        cur = acc.get(k)
        if cur is None:
            acc[k] = v
        else:
            v = cur + v
            if v.is_zero():
                del acc[k]
            else:
                acc[k] = v


def random_gauss_ints(rng, span: int, den: int, count: int,
                      real: bool = False) -> Tuple[int, List[Tuple[int, int]]]:
    """``count`` values a/d1 + (b/d2) i as Gaussian integers over the fixed
    denominator L = lcm(1..den), which comes first: one pair (a (L // d1),
    b (L // d2)) per value, the value ``GaussRational.from_ints(re, im, L)``.
    Each value is drawn in the order a, d1, b, d2 with a, b in -span..span
    and d1, d2 in 1..den (``real``: a and d1 only, b = 0).  ``rng`` is a
    ``random.Random``; each draw is the ``getrandbits`` rejection loop of
    its ``randint``, so values and state match it.  An empty range
    (span < 0, den < 1) raises ValueError before any draw."""
    if span < 0 or den < 1:
        raise ValueError(f"empty draw range: span {span}, den {den}")
    bits, width = rng.getrandbits, 2 * span + 1
    kw, kd = width.bit_length(), den.bit_length()
    L = lcm(*range(1, den + 1))
    scale = [L // d for d in range(1, den + 1)]  # by the draw d - 1
    out = []
    for _ in range(count):
        a = bits(kw)
        while a >= width:
            a = bits(kw)
        d1 = bits(kd)
        while d1 >= den:
            d1 = bits(kd)
        if real:
            out.append(((a - span) * scale[d1], 0))
            continue
        b = bits(kw)
        while b >= width:
            b = bits(kw)
        d2 = bits(kd)
        while d2 >= den:
            d2 = bits(kd)
        out.append(((a - span) * scale[d1], (b - span) * scale[d2]))
    return L, out


def random_gauss(rng, span: int, den: int, real: bool = False) -> GaussRational:
    """One value of ``random_gauss_ints``, reduced."""
    L, ((re, im),) = random_gauss_ints(rng, span, den, 1, real)
    return _reduced(re, im, L)


def cleared(values: Collection[GaussRational]) -> Tuple[int, List[Tuple[int, int]]]:
    """``values`` as Gaussian integers over their lcm denominator den, which
    comes first: one pair (re, im) per value, in order, with value =
    ``GaussRational.from_ints(re, im, den)``.  No value gives den 1.
    ``values`` is read twice, so it is a list, a tuple or a dict view."""
    den = lcm(*{v.d for v in values})
    return den, [(v.a * (den // v.d), v.b * (den // v.d)) for v in values]
