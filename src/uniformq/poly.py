"""Univariate polynomials over the exact scalars.

Coefficients are stored lowest degree first with the leading coefficient
nonzero; the zero polynomial has an empty coefficient tuple and degree
-1.  Coefficients may be ints, Fractions or QuadExt values of a common
radicand, mixed freely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .scalars import Scalar


def _strip(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs = _strip(list(coeffs))

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact division with remainder over the coefficient field."""
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [_frac(c) for c in self.coeffs]
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = _frac(other.leading())
        d = other.degree
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lead
            quo[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * _frac(b)
            rem.pop()
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Poly([_frac(c) / lead for c in self.coeffs])

    def scale_arg(self, s) -> "Poly":
        """p(s*t) as a polynomial in t."""
        out = []
        power: Scalar = Fraction(1)
        for c in self.coeffs:
            out.append(c * power)
            power = power * s
        return Poly(out)


def linear_product(roots) -> list[int]:
    """The integer coefficients, lowest degree first, of prod (q t - p)
    over the roots p/q (ints or Fractions): prod (t - nu) for integer
    roots."""
    coeffs = [1]
    for root in roots:
        p, q = root.numerator, root.denominator
        coeffs = [q * a - p * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _frac(c):
    return Fraction(c) if isinstance(c, int) else c


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()
