"""Exact linear algebra over Q.

``ExactMatrix`` is a dense row-major matrix with rational entries, the
input of the one elimination: kernels, ranks, pivot columns and linear
solves over Q run through one fraction-free pivot table of integer rows
(rational rows scaled to integers).  The characteristic polynomial of an integer
matrix comes from a CRT/modular computation with a rigorous
Hadamard-style coefficient bound.  QuadExt values enter
column_space_basis only.  No floating point is used anywhere.

The word-size inner loops (integer products, modular charpoly) are
delegated to the pure-Python kernels in :mod:`uniformq._kernels`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Optional, Sequence

from . import _kernels
from .poly import Poly
from .scalars import QuadExt, Scalar


class ExactMatrix:
    """A rows x cols matrix, row-major in ``entries``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} != {rows} x {cols}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def int_entries(self) -> Optional[list[int]]:
        """Flat int entries when every entry is an integer, else None."""
        out = []
        for e in self.entries:
            if type(e) is int:
                out.append(e)
            elif isinstance(e, Fraction) and e.denominator == 1:
                out.append(e.numerator)
            else:
                return None
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def int_matmul_flat(a: list, b: list, n: int, k: int, m: int) -> list:
    """Exact integer product of the flat n x k matrix a and k x m matrix b."""
    return _kernels.imat_mul(a, b, n, k, m)


# -- kernels, ranks and linear solving ---------------------------------------


def solve_linear(a: ExactMatrix, b: Sequence[Scalar]) -> Optional[tuple]:
    """Exact solution set of a x = b over Q: None when it is empty, else
    (particular, basis), the particular solution, zero at the free
    columns, and one kernel vector per free column, 1 there and 0 at the
    others; the basis is empty when the solution is unique.  Both come
    from the kernel of the augmented matrix [a | b]: the system is
    inconsistent when the rhs column is a lead of its pivot table.  Any
    returned solution satisfies a x = b exactly.
    """
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and rhs")
    n = a.cols
    aug = ExactMatrix(a.rows, n + 1, [
        x for i in range(a.rows) for x in (*a.row(i), b[i])
    ])
    table = _pivot_table(aug)
    leads = {lead for lead, _ in table}
    if n in leads:
        return None
    *kernel, rhs = _table_kernel(table, n + 1)
    particular = [Fraction(-x, rhs[n]) for x in rhs[:n]]
    free = [c for c in range(n) if c not in leads]
    basis = [[Fraction(x, v[f]) for x in v[:n]] for f, v in zip(free, kernel)]
    return particular, basis


def nullspace(a: ExactMatrix) -> list[list]:
    """Basis of the right kernel of a rational matrix; empty list for
    injective maps.  One primitive integer vector per free column,
    positive there and 0 at the other free columns."""
    return _table_kernel(_pivot_table(a), a.cols)


def rank(a: ExactMatrix) -> int:
    """Exact rank of a rational matrix."""
    return len(_pivot_table(a))


def pivot_columns(a: ExactMatrix) -> list[int]:
    """The pivot columns of a rational matrix, in increasing order: the
    columns independent of the columns before them, so a basis of its
    column space, and as many as its rank.  They are the leads of the
    pivot table of its rows, an echelon form of the row space."""
    return sorted(lead for lead, _ in _pivot_table(a))


# -- the pivot table: the one elimination over Q -------------------------------


def extend_pivot_table(table: list, vec: list) -> bool:
    """Append the integer vector vec to the pivot table when it is
    independent of the rows there.  Rows are (lead, primitive integer
    row): each is reduced, fraction-free, against the earlier ones, so
    it vanishes at their leads.  The leads are distinct, so the rows
    sorted by lead are an echelon form of the span."""
    v = vec
    for lead, row in table:
        c = v[lead]
        if c:
            g = gcd(c, row[lead])
            a, b = row[lead] // g, c // g
            v = [a * s - b * t for s, t in zip(v, row)]
    lead = next((i for i, s in enumerate(v) if s), None)
    if lead is None:
        return False
    content = gcd(*v)
    table.append((lead, [s // content for s in v]))
    return True


def _pivot_table(a: ExactMatrix) -> list:
    """The pivot table of a's rows, each rational row scaled to integers
    by the lcm of its denominators."""
    c = a.cols
    ints = a.int_entries()
    if ints is not None:
        rows = [ints[i * c:(i + 1) * c] for i in range(a.rows)]
    else:
        rows = []
        for i in range(a.rows):
            row = a.row(i)
            if not all(isinstance(e, (int, Fraction)) for e in row):
                raise ValueError("exact elimination needs rational entries")
            d = lcm(*(Fraction(e).denominator for e in row))
            rows.append([int(e * d) for e in row])
    table: list = []
    for row in rows:
        extend_pivot_table(table, row)
    return table


def _table_kernel(table: list, ncols: int) -> list[list]:
    """The primitive integer kernel vector of each free column, in
    column order.  Back-substitution runs over the rows last first: a
    row vanishes at the leads of the rows before it, and those of the
    rows after it are solved already, so only its own lead is unknown.
    The vector is nonzero only at its free column and the leads solved
    to nonzero values so far, so each row's sum and each rescaling run
    over that support alone.  When the lead does not divide, the
    partial vector is scaled by the least factor that makes it divide,
    which keeps it primitive."""
    leads = {lead for lead, _ in table}
    basis = []
    for f in range(ncols):
        if f in leads:
            continue
        v = [0] * ncols
        v[f] = 1
        support = [f]
        for lead, row in reversed(table):
            acc = sum([row[j] * v[j] for j in support])
            if acc:
                p = row[lead]
                scale = abs(p) // gcd(acc, p)
                if scale != 1:
                    for j in support:
                        v[j] *= scale
                    acc *= scale
                v[lead] = -acc // p
                support.append(lead)
        basis.append(v)
    return basis


# -- characteristic polynomial ----------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_stream(bits: int):
    n = 2 ** bits - 1
    while n > 2:
        if _is_prime(n):
            yield n
        n -= 2


def _charpoly_coeff_bound(flat: list[int], n: int) -> int:
    norms = []
    for i in range(n):
        s = sum(v * v for v in flat[i * n:(i + 1) * n])
        norms.append(isqrt(s) + 1)
    norms.sort(reverse=True)
    best = 1
    prefix = 1
    for j in range(1, n + 1):
        prefix *= norms[j - 1]
        b = comb(n, j) * prefix
        if b > best:
            best = b
    return best


def charpoly_int(flat: list[int], n: int) -> Poly:
    """Exact characteristic polynomial of an integer matrix via CRT."""
    if n == 0:
        return Poly([1])
    bound = 2 * _charpoly_coeff_bound(flat, n) + 1
    residues: list[list[int]] = []
    primes: list[int] = []
    modulus = 1
    for p in _prime_stream(61):
        primes.append(p)
        residues.append(_kernels.charpoly_mod(flat, n, p))
        modulus *= p
        if modulus > bound:
            break
    coeffs = []
    for k in range(n + 1):
        x = 0
        m = 1
        for p, res in zip(primes, residues):
            r = res[k]
            t = (r - x) * pow(m, -1, p) % p
            x += m * t
            m *= p
        if x > m // 2:
            x -= m
        coeffs.append(x)
    if coeffs[n] != 1:
        raise ArithmeticError("charpoly reconstruction is not monic")
    trace = sum(flat[i * n + i] for i in range(n))
    if coeffs[n - 1] != -trace:
        raise ArithmeticError("charpoly reconstruction failed the trace check")
    return Poly(coeffs)


# -- column space helpers -----------------------------------------------------


def normalize_vector(v: list) -> list:
    """Scale a rational/QuadExt vector to primitive integral form.

    Clears denominators, divides by the integer content, and fixes the
    sign so the first nonzero component (its rational part, or its
    sqrt-coefficient when the rational part vanishes) is positive.
    Purely cosmetic-deterministic: the returned vector spans the same
    line.
    """
    den = 1
    for x in v:
        if isinstance(x, QuadExt):
            for f in (x.a, x.c):
                den = den * f.denominator // gcd(den, f.denominator)
        else:
            f = Fraction(x)
            den = den * f.denominator // gcd(den, f.denominator)
    scaled = [x * den for x in v]
    content = 0
    for x in scaled:
        if isinstance(x, QuadExt):
            content = gcd(content, int(x.a))
            content = gcd(content, int(x.c))
        else:
            content = gcd(content, int(x))
    if content == 0:
        return scaled
    sign = 0
    for x in scaled:
        if isinstance(x, QuadExt):
            lead = x.a if x.a != 0 else x.c
        else:
            lead = x
        if lead != 0:
            sign = 1 if lead > 0 else -1
            break
    content *= sign if sign else 1
    out = []
    for x in scaled:
        if isinstance(x, QuadExt):
            out.append(QuadExt(x.a / content, x.c / content, x.m))
        else:
            out.append(int(Fraction(x) / content))
    return out


def _as_field(x) -> Scalar:
    return Fraction(x) if isinstance(x, int) else x


def column_space_basis(vectors: list[list], expected_rank: Optional[int] = None
                       ) -> list[list]:
    """Echelonised basis of the span of the given vectors.

    Processes vectors in order, reducing each against the pivots found
    so far; stops early once expected_rank independent vectors are
    found.  Returned vectors are normalised integral.
    """
    pivots: list[tuple[int, list]] = []  # (pivot index, reduced vector)
    basis: list[list] = []
    for vec in vectors:
        v = list(vec)
        for pi, pv in pivots:
            f = _as_field(v[pi]) / pv[pi]
            if f != 0:
                v = [x - f * y for x, y in zip(v, pv)]
        lead = next((i for i, x in enumerate(v) if x != 0), None)
        if lead is None:
            continue
        v = normalize_vector(v)
        pivots.append((lead, v))
        basis.append(v)
        if expected_rank is not None and len(basis) == expected_rank:
            break
    if expected_rank is not None and len(basis) != expected_rank:
        raise ArithmeticError(
            f"column space has rank {len(basis)}, expected {expected_rank}"
        )
    return basis
