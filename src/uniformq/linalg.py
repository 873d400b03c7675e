"""Dense exact linear algebra over Q and Q(sqrt(m)).

Matrices are dense and row-major; entries may be ints, Fractions or
QuadExt values sharing one radicand.  No floating point is used
anywhere.  Integer matrices get fraction-free (Bareiss) elimination and
a CRT/modular characteristic polynomial with a rigorous Hadamard-style
coefficient bound; everything else runs textbook field elimination.

The word-size inner loops (integer products, modular charpoly) are
delegated to the pure-Python kernels in :mod:`uniformq._kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from operator import mul
from typing import Optional, Sequence

from . import _kernels
from .poly import Poly
from .scalars import QuadExt, Scalar


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} != {rows} x {cols}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return ExactMatrix(r, c, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        m = ExactMatrix.zeros(n, n)
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "ExactMatrix":
        n = len(values)
        m = ExactMatrix.zeros(n, n)
        for i, v in enumerate(values):
            m.entries[i * n + i] = v
        return m

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j: int) -> list:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def scale(self, s: Scalar) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [s * a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self) -> "ExactMatrix":
        r, c, e = self.rows, self.cols, self.entries
        return ExactMatrix(
            c, r, [e[i * c + j] for j in range(c) for i in range(r)]
        )

    def apply(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        c = self.cols
        for i in range(self.rows):
            acc = 0
            base = i * c
            for j, v in enumerate(vec):
                if v != 0:
                    a = self.entries[base + j]
                    if a != 0:
                        acc = acc + a * v
            out.append(acc)
        return out

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

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

    def _matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}"
            )
        a_int = self.int_entries()
        if a_int is not None:
            b_int = other.int_entries()
            if b_int is not None:
                flat = int_matmul_flat(
                    a_int, b_int, self.rows, self.cols, other.cols
                )
                return ExactMatrix(self.rows, other.cols, flat)
        n, k, m = self.rows, self.cols, other.cols
        out = [0] * (n * m)
        ae, be = self.entries, other.entries
        for i in range(n):
            for t in range(k):
                av = ae[i * k + t]
                if av == 0:
                    continue
                base = i * m
                brow = t * m
                for j in range(m):
                    bv = be[brow + j]
                    if bv != 0:
                        out[base + j] = out[base + j] + av * bv
        return ExactMatrix(n, m, out)


def int_matmul_flat(a: list, b: list, n: int, k: int, m: int) -> list:
    """Exact integer product of the flat n x k matrix a and k x m matrix b."""
    return _kernels.imat_mul(a, b, n, k, m)


# -- linear solving ----------------------------------------------------------


@dataclass
class UniqueSolution:
    x: list


@dataclass
class AffineSolution:
    particular: list
    basis: list[list]


@dataclass
class Inconsistent:
    pass


def _as_field(x) -> Scalar:
    return Fraction(x) if isinstance(x, int) else x


def _rref(rows: list[list], ncols: int) -> tuple[list[list], list[int]]:
    """In-place reduced row echelon form over the scalar field.

    Returns (rows, pivot column indices).  Rows shorter than the pivot
    search width (augmented systems) are supported by passing ncols.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][col] != 0:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        if lead != 1:
            inv_row = rows[r]
            for j in range(col, width):
                if inv_row[j] != 0:
                    inv_row[j] = _as_field(inv_row[j]) / lead
        prow = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][col]
            if f == 0:
                continue
            ri = rows[i]
            for j in range(col, width):
                pv = prow[j]
                if pv != 0:
                    ri[j] = ri[j] - f * pv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve_linear(a: ExactMatrix, b: Sequence[Scalar]):
    """Exact solution set of a x = b.

    Returns UniqueSolution, AffineSolution (particular + nullspace
    basis) or Inconsistent.  Any returned solution satisfies a x = b
    exactly.
    """
    if len(b) != a.rows:
        raise ValueError("dimension mismatch between matrix and rhs")
    n = a.cols
    rows = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    rows, pivots = _rref(rows, n)
    rank = len(pivots)
    for i in range(rank, len(rows)):
        if rows[i][n] != 0:
            return Inconsistent()
    particular: list = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        particular[col] = rows[r][n]
    if rank == n:
        return UniqueSolution(particular)
    basis = _nullspace_from_rref(rows, pivots, n)
    return AffineSolution(particular, basis)


def _nullspace_from_rref(rows, pivots, ncols) -> list[list]:
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v: list = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -_as_field(rows[r][f])
        basis.append(v)
    return basis


def nullspace(a: ExactMatrix) -> list[list]:
    """Basis of the right kernel of a; empty list for injective maps."""
    ints = a.int_entries()
    if ints is not None and a.rows and a.cols:
        return _int_nullspace(ints, a.rows, a.cols)
    rows = a.to_rows()
    if not rows:
        return [
            [Fraction(1) if i == j else Fraction(0) for i in range(a.cols)]
            for j in range(a.cols)
        ]
    rows, pivots = _rref(rows, a.cols)
    return _nullspace_from_rref(rows, pivots, a.cols)


def rank(a: ExactMatrix) -> int:
    ints = a.int_entries()
    if ints is not None:
        return _bareiss_echelon(ints, a.rows, a.cols)[1]
    rows = a.to_rows()
    if not rows:
        return 0
    return len(_rref(rows, a.cols)[1])


def det(a: ExactMatrix) -> Scalar:
    if not a.is_square():
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    if n == 0:
        return Fraction(1)
    ints = a.int_entries()
    if ints is not None:
        rows, nrank, pivots, sign = _bareiss_echelon_full(ints, n, n)
        if nrank < n:
            return Fraction(0)
        return Fraction(sign * rows[n - 1][n - 1])
    # field elimination with product of pivots
    rows = a.to_rows()
    d: Scalar = Fraction(1)
    r = 0
    for col in range(n):
        piv = -1
        for i in range(r, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv < 0:
            return Fraction(0)
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            d = -d
        lead = rows[r][col]
        d = d * lead
        for i in range(r + 1, n):
            f = _as_field(rows[i][col]) / lead
            if f == 0:
                continue
            for j in range(col, n):
                rows[i][j] = rows[i][j] - f * rows[r][j]
        r += 1
    return d


# -- fraction-free (Bareiss) elimination for integer matrices ---------------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _bareiss_echelon_full(flat: list[int], nrows: int, ncols: int):
    """Fraction-free row echelon form of an integer matrix.

    Returns (rows, rank, pivot columns, row-swap sign).  The returned
    rows span the same row space as the input.
    """
    rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    pivots: list[int] = []
    prev = 1
    r = 0
    sign = 1
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pv = rows[r][col]
        prow = rows[r]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[col]
            if f == 0:
                # update degenerates to a rescale; identity when pv == prev
                if pv != prev:
                    for j in range(col, ncols):
                        if ri[j]:
                            ri[j] = _exact_div(pv * ri[j], prev)
                continue
            for j in range(col, ncols):
                ri[j] = _exact_div(pv * ri[j] - f * prow[j], prev)
        prev = pv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, r, pivots, sign


def _bareiss_echelon(flat: list[int], nrows: int, ncols: int):
    rows, nrank, pivots, _ = _bareiss_echelon_full(flat, nrows, ncols)
    return rows, nrank, pivots


def _int_nullspace(flat: list[int], nrows: int, ncols: int) -> list[list]:
    """Kernel basis of an integer matrix as primitive integer vectors,
    one per free column, whose entry there is positive."""
    rows, nrank, pivots = _bareiss_echelon(flat, nrows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = [0] * ncols
        v[f] = 1
        # echelon rows: solve pivots bottom-up; when a pivot does not
        # divide, scale the partial solution so that it does
        for r in range(nrank - 1, -1, -1):
            col = pivots[r]
            row = rows[r]
            acc = sum(map(mul, row[col + 1:], v[col + 1:]))
            scale = abs(row[col]) // gcd(acc, row[col])
            if scale != 1:
                v = [x * scale for x in v]
                acc *= scale
            v[col] = -acc // row[col]
        content = gcd(*v)
        basis.append([x // content for x in v])
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


def _charpoly_field(a: ExactMatrix) -> Poly:
    """Hessenberg-based charpoly over Fraction or QuadExt entries."""
    n = a.rows
    h = [[_as_field(x) for x in a.row(i)] for i in range(n)]
    for j in range(n - 2):
        piv = -1
        for i in range(j + 1, n):
            if h[i][j] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        lead = h[j + 1][j]
        for i in range(j + 2, n):
            f = _as_field(h[i][j]) / lead
            if f == 0:
                continue
            hrow, prow = h[i], h[j + 1]
            for c in range(j, n):
                hrow[c] = hrow[c] - f * prow[c]
            for r in range(n):
                hr = h[r]
                hr[j + 1] = hr[j + 1] + f * hr[i]
    polys = [Poly([1])]
    t = Poly.x()
    for s in range(1, n + 1):
        cur = (t - h[s - 1][s - 1]) * polys[s - 1]
        prod: Scalar = Fraction(1)
        for i in range(1, s):
            prod = prod * h[s - i][s - i - 1]
            if prod == 0:
                break
            coef = prod * h[s - 1 - i][s - 1]
            if coef != 0:
                cur = cur - coef * polys[s - 1 - i]
        polys.append(cur)
    return polys[n]


def charpoly(a: ExactMatrix) -> Poly:
    """Monic characteristic polynomial det(t I - a), exact.

    Integer matrices go through the modular/CRT path; rational matrices
    are scaled to integers; QuadExt matrices use field Hessenberg
    reduction.
    """
    if not a.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    n = a.rows
    ints = a.int_entries()
    if ints is not None:
        return charpoly_int(ints, n)
    if all(isinstance(e, (int, Fraction)) for e in a.entries):
        d = 1
        for e in a.entries:
            if isinstance(e, Fraction):
                d = d * e.denominator // gcd(d, e.denominator)
        scaled = [int(e * d) for e in a.entries]
        cp = charpoly_int(scaled, n)
        # charpoly(dA)(d t) = d^n charpoly(A)(t)
        coeffs = [
            Fraction(cp[k], 1) / Fraction(d) ** (n - k) for k in range(n + 1)
        ]
        return Poly(coeffs)
    return _charpoly_field(a)


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
