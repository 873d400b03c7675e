"""Exact scalar arithmetic over Q and quadratic extensions Q(sqrt(m)).

Rationals are plain ``fractions.Fraction`` values (always reduced,
positive denominator).  A ``QuadExt`` holds a value a + c*sqrt(m) with
rational a, c and squarefree integer radicand m >= 2.  Construction goes
through :func:`quad`, which normalises the radicand by pulling square
factors into c and collapses to a ``Fraction`` whenever the value is
rational (c == 0 or m a perfect square).  As a consequence a live
``QuadExt`` always has c != 0, so equality is plain component-wise
comparison and mixed Fraction/QuadExt arithmetic never produces an
irrational value disguised as one.

All values are immutable; every operation is a pure function of its
inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*m with m squarefree; return (s, m)."""
    if n <= 0:
        raise ValueError("squarefree decomposition needs a positive integer")
    s, m = 1, 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    m *= n  # leftover prime
    return s, m


def quad(a, c, m: int) -> Scalar:
    """a + c*sqrt(m) as a QuadExt, collapsed to Fraction when rational."""
    a = Fraction(a)
    c = Fraction(c)
    if m <= 0:
        raise ValueError(f"radicand must be positive, got {m}")
    if c == 0:
        return a
    s, m = squarefree_decompose(m)
    c *= s
    if m == 1:
        return a + c
    return QuadExt(a, c, m)


def _as_pair(x, m: int) -> tuple[Fraction, Fraction]:
    """Coerce x to (rational part, sqrt(m) coefficient); error on mismatch."""
    if isinstance(x, QuadExt):
        if x.m != m:
            raise ValueError(f"radicand mismatch: sqrt({x.m}) vs sqrt({m})")
        return x.a, x.c
    return Fraction(x), Fraction(0)


class QuadExt:
    """Element a + c*sqrt(m) of Q(sqrt(m)), with c != 0 and m squarefree."""

    __slots__ = ("a", "c", "m")

    def __init__(self, a: Fraction, c: Fraction, m: int):
        # Invariants are the factory's job; keep the constructor cheap.
        self.a = a
        self.c = c
        self.m = m

    def __repr__(self) -> str:
        return f"({self.a} + {self.c}*sqrt({self.m}))"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt)):
            return NotImplemented
        oa, oc = _as_pair(other, self.m)
        return quad(self.a + oa, self.c + oc, self.m)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.c, self.m)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt)):
            return NotImplemented
        oa, oc = _as_pair(other, self.m)
        return quad(self.a - oa, self.c - oc, self.m)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt)):
            return NotImplemented
        if isinstance(other, QuadExt):
            oa, oc = _as_pair(other, self.m)
            return quad(
                self.a * oa + self.c * oc * self.m,
                self.a * oc + self.c * oa,
                self.m,
            )
        other = Fraction(other)
        if other == 0:
            return Fraction(0)
        return QuadExt(self.a * other, self.c * other, self.m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        # n = a^2 - c^2 m is nonzero: c != 0 and sqrt(m) irrational.
        return QuadExt(self.a / n, -self.c / n, self.m)

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, QuadExt)):
            return NotImplemented
        if isinstance(other, QuadExt):
            return self * other.inverse()
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division by zero")
        return QuadExt(self.a / other, self.c / other, self.m)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base: Scalar = self if k >= 0 else self.inverse()
        k = abs(k)
        result: Scalar = Fraction(1)
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    def norm(self) -> Fraction:
        """Field norm a^2 - c^2 m (product with the conjugate)."""
        return self.a * self.a - self.c * self.c * self.m

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.c == other.c and self.m == other.m
        if isinstance(other, (int, Fraction)):
            return False  # live QuadExt is irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.c, self.m))

    def _sign(self) -> int:
        """Exact sign of a + c*sqrt(m) as a real number."""
        a, c = self.a, self.c
        if a == 0:
            return 1 if c > 0 else -1
        if a > 0 and c > 0:
            return 1
        if a < 0 and c < 0:
            return -1
        # opposite signs: compare a^2 against c^2 m
        if a * a > c * c * self.m:
            return 1 if a > 0 else -1
        return 1 if c > 0 else -1

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadExt):
            return diff._sign()
        return (diff > 0) - (diff < 0)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def rational_power(base, exponent) -> Scalar:
    """Exact base**exponent for rational base > 0 and rational exponent.

    The result must lie in Q or in a single quadratic extension
    Q(sqrt(m)); otherwise ValueError is raised.  Integer exponents are
    handled for any nonzero base.
    """
    base = Fraction(base)
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        if base == 0 and exponent < 0:
            raise ZeroDivisionError("0 to a negative power")
        return base ** int(exponent)
    if base <= 0:
        raise ValueError(f"fractional power of non-positive base {base}")

    factors: dict[int, int] = {}

    def accumulate(n: int, sign: int) -> None:
        d = 2
        while d * d <= n:
            while n % d == 0:
                factors[d] = factors.get(d, 0) + sign
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            factors[n] = factors.get(n, 0) + sign

    accumulate(base.numerator, 1)
    accumulate(base.denominator, -1)

    rat = Fraction(1)
    radicand = 1
    for p, a in sorted(factors.items()):
        e = a * exponent
        if e.denominator == 1:
            rat *= Fraction(p) ** int(e)
        elif e.denominator == 2:
            half = e - Fraction(1, 2)
            rat *= Fraction(p) ** int(half)
            radicand *= p
        else:
            raise ValueError(
                f"{base}**{exponent} lies outside any quadratic extension of Q"
            )
    if radicand == 1:
        return rat
    return quad(0, rat, radicand)


def exact_sqrt(x) -> Scalar:
    """Exact nonnegative square root of a rational x >= 0."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    return rational_power(x, Fraction(1, 2))


# -- JSON serialisation -------------------------------------------------


def scalar_to_json(x: Scalar):
    """Rational -> "p/q" (or "p"); QuadExt -> {"a","c","m"}."""
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "c": str(x.c), "m": x.m}
    return str(Fraction(x))


def scalar_from_json(data) -> Scalar:
    if isinstance(data, str):
        return Fraction(data)
    if isinstance(data, int):
        return Fraction(data)
    if isinstance(data, dict):
        return quad(Fraction(data["a"]), Fraction(data["c"]), int(data["m"]))
    raise ValueError(f"cannot parse scalar from {data!r}")
