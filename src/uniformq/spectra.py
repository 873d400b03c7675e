"""Exact spectra over Q(sqrt(m)), orthogonal-polynomial charpolys and
Q-polynomial ordering certification.

The adjacency spectrum of the instances treated here lives in a single
real quadratic extension: the closed form for the full bipartite graph
of a dual polar graph with parameters (b, e, D) is

    theta_i = b^((D+e)/2)/(b-1) * (b^((D-i)/2) - b^((i-D)/2)),
    0 <= i <= 2D,

strictly decreasing, antisymmetric about theta_D = 0.  Each thin module
of endpoint r and diameter d contributes the sub-multiset at indices
i = D - d + 2j, and the characteristic polynomial of its tridiagonal
representation matrix is generated by the three-term recurrence
h_{i+1} = t h_i - x_{r+i} h_{i-1}, a rescaled normalized dual
b-Krawtchouk polynomial.

``spectrum_exact`` is fully general for symmetric 0/1 matrices whose
squared spectrum is rational, and 2-colours the graph of A itself.  For
bipartite A = [[0, B], [B^T, 0]] it takes the exact characteristic
polynomial of the Gram block B B^T on the smaller colour class, finds
its integer roots by scanning [0, Delta^2] (Delta the maximum degree)
with exact synthetic division, and reads the spectrum off it: the
nonzero eigenvalues of A are +-sqrt(mu) for the nonzero roots mu, each
with the multiplicity of mu, and 0 takes the rest.  Only for
non-bipartite A does it scan the charpoly of A^2 and split the +-sqrt
pairs by exact rank computations (modular ranks with a sum-of-nullities
certificate, falling back to fraction-free elimination; conjugate
irrational pairs always share multiplicity since the field automorphism
sqrt(m) -> -sqrt(m) maps one eigenspace onto the other).

``idempotent_pattern`` decides which E_i A* E_j vanish from integer
spectral projectors of A^2 alone, without eigenspace bases; for
bipartite A they are built per colour class from B B^T and B^T B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Optional, Sequence

from . import _kernels
from .linalg import (
    ExactMatrix,
    charpoly_int,
    column_space_basis,
    int_matmul_flat,
    rank,
)
from .poly import Poly
from .scalars import (
    QuadExt,
    Scalar,
    is_rational,
    quad,
    rational_power,
    scalar_sort_key,
    squarefree_decompose,
)


# -- closed forms --------------------------------------------------------------


def closed_form_spectrum(b: int, e, D: int) -> list[Scalar]:
    """theta_0 > ... > theta_{2D} for the (b, e, D) full bipartite dual
    polar instance; ValueError when the values leave Q(sqrt(m))."""
    if b < 2:
        raise ValueError("need b >= 2")
    e = Fraction(e)
    kappa = rational_power(b, (D + e) / 2) / (b - 1)
    out = []
    for i in range(2 * D + 1):
        term = rational_power(b, Fraction(D - i, 2)) \
            - rational_power(b, Fraction(i - D, 2))
        out.append(kappa * term)
    return out


def module_eigenvalues(b: int, e, D: int, d: int) -> list[Scalar]:
    """Eigenvalues of the (r, d) module representation matrix: d+1
    pairwise distinct values, the spectrum at indices D - d + 2j."""
    if d < 0:
        raise ValueError("need d >= 0")
    e = Fraction(e)
    kappa = rational_power(b, (D + e) / 2) / (b - 1)
    out = []
    for j in range(d + 1):
        term = rational_power(b, Fraction(d - 2 * j, 2)) \
            - rational_power(b, Fraction(2 * j - d, 2))
        out.append(kappa * term)
    return out


def krawtchouk_charpoly(x_scalars: Sequence) -> list[Poly]:
    """h_0, ..., h_{d+1} from h_{i+1} = t h_i - x_{r+i} h_{i-1},
    h_0 = 1, h_1 = t; h_{d+1} is the charpoly of the module matrix."""
    x = [Fraction(v) for v in x_scalars]
    t = Poly.x()
    hs = [Poly([1]), t]
    for xi in x:
        hs.append(t * hs[-1] - xi * hs[-2])
    return hs


@dataclass
class KratResult:
    ok: bool
    fail_index: Optional[int] = None


def verify_krat_scaling(b: int, e, D: int, d: int,
                        x_scalars: Sequence) -> KratResult:
    """Check h_i(t) = kappa^i H_i(t / kappa) coefficient-wise, where
    kappa = b^((D+e+d)/2)/(b-1) and the H_i are generated by
    t H_i = H_{i+1} - b^(-d) (1 - b^i)(1 - b^(i-d-1)) H_{i-1},
    H_0 = 1, H_1 = t (the normalized dual b-Krawtchouk recurrence).
    """
    if len(x_scalars) != d:
        raise ValueError(f"need d = {d} x-scalars, got {len(x_scalars)}")
    e = Fraction(e)
    kappa = rational_power(b, (D + e + d) / 2) / (b - 1)
    inv_kappa = 1 / kappa
    hs = krawtchouk_charpoly(x_scalars)
    t = Poly.x()
    capital = [Poly([1]), t]
    bq = Fraction(b)
    for i in range(1, d + 1):
        coef = bq ** (-d) * (1 - bq ** i) * (1 - bq ** (i - d - 1))
        capital.append(t * capital[-1] + coef * capital[-2])
    scale: Scalar = Fraction(1)
    for i in range(d + 2):
        rescaled = scale * capital[i].scale_arg(inv_kappa)
        if rescaled != hs[i]:
            return KratResult(False, i)
        scale = scale * kappa
    return KratResult(True)


# -- exact spectra --------------------------------------------------------------


@dataclass
class Spectrum:
    eigenvalues: list[tuple[Scalar, int]]  # (value, multiplicity), descending
    radicand: int  # 1 when the spectrum is rational

    @property
    def vertex_count(self) -> int:
        return sum(m for _, m in self.eigenvalues)

    def values(self) -> list[Scalar]:
        return [v for v, _ in self.eigenvalues]

    def multiplicity(self, value) -> int:
        for v, m in self.eigenvalues:
            if v == value:
                return m
        return 0

    def to_json(self) -> dict:
        eig = []
        for v, m in self.eigenvalues:
            if isinstance(v, QuadExt):
                val = {"a": str(v.a), "c": str(v.c), "m": v.m}
            else:
                val = {"a": str(Fraction(v)), "c": "0", "m": self.radicand}
            eig.append({"value": val, "multiplicity": m})
        return {"radicand": self.radicand, "eigenvalues": eig}


def _validate_symmetric01(a: ExactMatrix) -> list[int]:
    ints = a.int_entries()
    if ints is None or not a.is_square():
        raise ValueError("need a square 0/1 integer matrix")
    n = a.rows
    for i in range(n):
        for j in range(n):
            v = ints[i * n + j]
            if v not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            if v != ints[j * n + i]:
                raise ValueError("matrix must be symmetric")
    return ints


def _deflate(coeffs: list[int], root: int) -> tuple[list[int], int]:
    """Quotient and remainder of the division by t - root (synthetic
    division); coefficients lowest degree first."""
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = acc * root + c
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


def _degree_bound(ints: list[int], n: int) -> int:
    """Delta^2 for the maximum degree Delta: no eigenvalue of A^2 (or of
    a diagonal block of it) exceeds it."""
    return max((sum(ints[i * n:(i + 1) * n]) for i in range(n)),
               default=0) ** 2


def _integer_roots(sq: list[int], n: int, bound: int) -> dict[int, int]:
    """Eigenvalue -> multiplicity of the symmetric n x n integer matrix
    sq, whose eigenvalues lie in [0, bound].

    The integer roots are found by scanning 0..bound with exact
    synthetic division of the integer charpoly; ValueError when the
    roots found do not account for all n eigenvalues.
    """
    coeffs = list(charpoly_int(sq, n).coeffs)
    mults: dict[int, int] = {}
    for mu in range(bound + 1):
        while len(coeffs) > 1:
            quotient, remainder = _deflate(coeffs, mu)
            if remainder:
                break
            coeffs = quotient
            mults[mu] = mults.get(mu, 0) + 1
    if len(coeffs) > 1:
        raise ValueError(
            "squared spectrum is not rational; this lies outside the "
            "supported scalar fields"
        )
    return mults


def _square_roots(mus) -> tuple[int, dict[int, tuple[int, int]]]:
    """The radicand and, per nonzero mu (descending), (s, m) with
    sqrt(mu) = s sqrt(m); ValueError when two radicands are needed."""
    radicand = 1
    roots = {}
    for mu in sorted(mus, reverse=True):
        if mu == 0:
            continue
        s, m = squarefree_decompose(mu)
        if m != 1:
            if radicand == 1:
                radicand = m
            elif radicand != m:
                raise ValueError(
                    f"spectrum needs two radicands ({radicand}, {m}); "
                    "outside the single-extension scope"
                )
        roots[mu] = (s, m)
    return radicand, roots


def _root_value(s: int, m: int) -> Scalar:
    return Fraction(s) if m == 1 else quad(0, s, m)


def _sorted_spectrum(pairs, radicand: int) -> Spectrum:
    """The Spectrum of (value, multiplicity) pairs, descending, without
    zero multiplicities."""
    pairs = sorted(pairs, key=lambda t: scalar_sort_key(t[0]), reverse=True)
    return Spectrum([(v, m) for v, m in pairs if m > 0], radicand)


def _colour_classes(ints: list[int], n: int) -> Optional[list[list[int]]]:
    """The two classes of a proper 2-colouring of the graph of A, the
    smaller first; None when the graph has an odd cycle or a loop."""
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            y = stack.pop()
            for z, v in enumerate(ints[y * n:(y + 1) * n]):
                if not v:
                    continue
                if colour[z] < 0:
                    colour[z] = 1 - colour[y]
                    stack.append(z)
                elif colour[z] == colour[y]:
                    return None
    classes = [[y for y in range(n) if colour[y] == c] for c in (0, 1)]
    return sorted(classes, key=len)


def _blocks(ints: list[int], n: int):
    """The classes and the nonzero blocks {(i, j): flat block} of A.

    For bipartite A the classes are the two colour classes, smaller
    first, so A = [[0, B], [B^T, 0]] and A^2 = diag(B B^T, B^T B);
    otherwise one class holds every vertex.
    """
    classes = _colour_classes(ints, n) or [list(range(n))]
    blocks = {}
    for i, rows in enumerate(classes):
        for j, cols in enumerate(classes):
            block = [ints[y * n + z] for y in rows for z in cols]
            if any(block):
                blocks[i, j] = block
    return classes, blocks


def _square_block(classes, blocks, i: int) -> list[int]:
    """Diagonal block i of A^2 (the blocks of A^2 off the diagonal
    vanish for both kinds of classes)."""
    size = len(classes[i])
    for j, cols in enumerate(classes):
        if (i, j) in blocks:  # for at most one j: A_ii = 0 when bipartite
            return int_matmul_flat(blocks[i, j], blocks[j, i], size,
                                   len(cols), size)
    return [0] * (size * size)


def _sqrt_mod(m: int, p: int) -> Optional[int]:
    """Square root of m mod a prime p with p % 4 == 3, else None."""
    m %= p
    if m == 0:
        return 0
    if pow(m, (p - 1) // 2, p) != 1:
        return None
    w = pow(m, (p + 1) // 4, p)
    return w if w * w % p == m else None


def _certified_nullities(ints: list[int], n: int,
                         thetas: list[tuple[int, int, int]]) -> Optional[list[int]]:
    """Exact eigenspace dimensions for theta = s * sqrt(m) (integer s, m).

    Modular ranks give nullity_p >= true nullity for each theta; since A
    is diagonalizable with exactly these eigenvalues the true nullities
    sum to n, so equality of the modular sum with n certifies every
    value.  Returns None when no suitable prime certifies (callers fall
    back to exact elimination).
    """
    radicands = {m for _, m, _ in thetas if m != 1}
    attempts = 0
    for p in _prime_stream_filtered():
        if attempts >= 6:
            return None
        roots = {}
        ok = True
        for m in radicands:
            w = _sqrt_mod(m, p)
            if w is None:
                ok = False
                break
            roots[m] = w
        if not ok:
            continue
        attempts += 1
        nullities = []
        for s, m, _ in thetas:
            shift = (s * roots.get(m, 1)) % p if m != 1 else s % p
            flat = list(ints)
            for i in range(n):
                flat[i * n + i] = (flat[i * n + i] - shift) % p
            nullities.append(n - _kernels.rank_mod(flat, n, n, p))
        if sum(nullities) == n:
            return nullities
    return None


def _prime_stream_filtered():
    bits = _kernels.PRIME_BITS
    x = 2 ** bits - 1
    from .linalg import _is_prime

    while x > 2:
        if x % 4 == 3 and _is_prime(x):
            yield x
        x -= 2


def spectrum_exact(a: ExactMatrix) -> Spectrum:
    """Exact spectrum of a symmetric 0/1 matrix.

    A 2-colouring of the graph of A decides the method.  For bipartite
    A = [[0, B], [B^T, 0]], with B B^T on the smaller colour class: the
    exact characteristic polynomial of B B^T, its integer roots mu by a
    scan of [0, Delta^2], then mult(+-sqrt mu) = mult_{BB^T}(mu) for
    mu != 0 and mult(0) = n - 2 rank B.  Otherwise the same scan on A^2
    and a sign split of each +-sqrt pair by exact ranks of A - theta I
    (``_sign_split_spectrum``).  Raises ValueError when the squared
    spectrum is not rational or the values need more than one radicand.
    """
    ints = _validate_symmetric01(a)
    n = a.rows
    classes, blocks = _blocks(ints, n)
    if len(classes) == 1:
        return _sign_split_spectrum(ints, n)
    gram = _square_block(classes, blocks, 0)
    mults = _integer_roots(gram, len(classes[0]), _degree_bound(ints, n))
    radicand, roots = _square_roots(mults)
    pairs = [(Fraction(0), n - 2 * sum(mults[mu] for mu in roots))]
    for mu, (s, m) in roots.items():
        pairs += [(_root_value(s, m), mults[mu]),
                  (_root_value(-s, m), mults[mu])]
    return _sorted_spectrum(pairs, radicand)


def _sign_split_spectrum(ints: list[int], n: int) -> Spectrum:
    """``spectrum_exact`` for any symmetric 0/1 matrix, given as flat
    integer entries: the scan of [0, Delta^2] on the charpoly of A^2,
    then the sign split of each +-sqrt pair by exact rank computations
    of A - theta I over Q(sqrt(m)) (modular ranks with a sum-of-nullities
    certificate, falling back to fraction-free elimination).
    """
    sq = int_matmul_flat(ints, ints, n, n, n)
    mults = _integer_roots(sq, n, _degree_bound(ints, n))
    radicand, roots = _square_roots(mults)

    thetas: list[tuple[int, int, int]] = []  # (s, m, mu) incl. negatives
    for mu, (s, m) in roots.items():
        thetas.append((s, m, mu))
        thetas.append((-s, m, mu))
    if 0 in mults:
        thetas.append((0, 1, 0))

    nullities = _certified_nullities(ints, n, thetas)
    if nullities is None:
        nullities = []
        for s, m, _ in thetas:
            entries: list = list(ints)
            for i in range(n):
                entries[i * n + i] -= _root_value(s, m)
            nullities.append(n - rank(ExactMatrix(n, n, entries)))
        if sum(nullities) != n:
            raise ArithmeticError("eigenspace dimensions do not sum to n")

    by_theta = {(s, m): (_root_value(s, m), nullity)
                for (s, m, _), nullity in zip(thetas, nullities)}

    # cross-checks: pair sums match charpoly multiplicities; conjugate
    # irrational pairs split evenly (field automorphism)
    for mu, (s, m) in roots.items():
        plus, minus = by_theta[(s, m)][1], by_theta[(-s, m)][1]
        if plus + minus != mults[mu]:
            raise ArithmeticError("sign split disagrees with A^2 multiplicity")
        if m != 1 and plus != minus:
            raise ArithmeticError("conjugate eigenvalues must share multiplicity")
    if (0, 1) in by_theta:
        if by_theta[(0, 1)][1] != mults[0]:
            raise ArithmeticError("kernel dimension mismatch")
    return _sorted_spectrum(by_theta.values(), radicand)


# -- spectral projectors, eigenspace bases and the idempotent pattern ------------


@dataclass
class EigenDecomposition:
    values: list  # eigenvalues, descending
    multiplicities: list[int]
    bases: list[list[list]]  # per eigenvalue: list of coordinate vectors
    radicand: int

    @property
    def dimension(self) -> int:
        return sum(self.multiplicities)


def _spectral_projectors(a: ExactMatrix, spectrum: Spectrum):
    """Integer multiples of the primitive idempotents of A, certified
    against the claimed spectrum, in block form.

    The classes are those of ``_blocks``: A^2 is block diagonal over
    them, with one block for non-bipartite A and the blocks B B^T and
    B^T B for bipartite A.  For each distinct mu = theta^2 of the
    spectrum, P_mu = prod_{nu != mu} (A^2 - nu I) is the block diagonal
    matrix of the same product over each block D, evaluated from the
    powers D^0, ..., D^k for k distinct mu.  Returns the mu of each
    eigenvalue, the classes and, per mu, a pair (X, Y) of block matrices
    {(i, j): flat block}, absent blocks zero, such that M_theta = X +
    theta Y equals c_theta E_theta: X = A P_mu, Y = P_mu for mu != 0,
    and X = P_0, Y = None for mu = 0.  Here c_theta = prod_{nu != mu}
    (mu - nu), times 2 theta when theta != 0.  For bipartite A, X has
    only the blocks off the diagonal and Y only those on it.

    The spectrum is checked exactly: (A^2 - mu_1 I) P_mu_1 = 0, on every
    block, shows that every eigenvalue of A^2 is some mu, then tr
    M_theta = c_theta mult_theta that each multiplicity is the
    eigenspace dimension, so distinct values whose multiplicities sum
    to n miss nothing.  ArithmeticError when the spectrum is not A's.
    """
    ints = _validate_symmetric01(a)
    n = a.rows
    values = spectrum.values()
    if spectrum.vertex_count != n or len(set(values)) != len(values):
        raise ArithmeticError(
            "spectrum needs distinct values whose multiplicities sum to "
            "the dimension"
        )
    keys = []
    for value in values:
        mu = value * value
        if not is_rational(mu) or Fraction(mu).denominator != 1:
            raise ArithmeticError(f"{value} squared is not an integer")
        keys.append(int(mu))
    mus = list(dict.fromkeys(keys))

    classes, a_blocks = _blocks(ints, n)
    sizes = [len(c) for c in classes]
    projectors: dict[int, dict] = {mu: {} for mu in mus}
    for i, size in enumerate(sizes):
        sq = _square_block(classes, a_blocks, i)
        powers = [[int(k % (size + 1) == 0) for k in range(size * size)], sq]
        while len(powers) <= len(mus):
            powers.append(int_matmul_flat(sq, powers[-1], size, size, size))

        def evaluate(roots) -> list[int]:  # prod_{nu in roots} (D - nu I)
            coeffs = [1]  # lowest degree first
            for nu in roots:
                coeffs = [hi - nu * lo
                          for hi, lo in zip([0] + coeffs, coeffs + [0])]
            return [sum(map(mul, coeffs, column)) for column in zip(*powers)]

        for mu in mus:
            projectors[mu][i, i] = evaluate([nu for nu in mus if nu != mu])
        if any(evaluate(mus)):  # (D - mu_1 I) P_mu_1 on this block
            raise ArithmeticError("the spectrum misses an eigenvalue of A^2")

    def times_a(p: dict) -> dict:  # (A P)_ij = A_ij P_jj
        return {(i, j): int_matmul_flat(block, p[j, j], sizes[i], sizes[j],
                                        sizes[j])
                for (i, j), block in a_blocks.items()}

    def trace(m: dict) -> int:
        return sum(sum(m[i, i][::size + 1])
                   for i, size in enumerate(sizes) if (i, i) in m)

    blocks = {mu: (times_a(p), p) if mu else (p, None)
              for mu, p in projectors.items()}
    for (value, mult), mu in zip(spectrum.eigenvalues, keys):
        x, y = blocks[mu]
        scale = prod(mu - nu for nu in mus if nu != mu)
        total = trace(x)
        if mu:
            scale *= 2 * value
            total += value * trace(y)
        if total != scale * mult:
            raise ArithmeticError(
                f"eigenvalue {value} does not have multiplicity {mult}"
            )
    return keys, classes, blocks


def _dense(m: dict, classes, n: int) -> list:
    """The flat n x n matrix of a block matrix over the classes."""
    out = [0] * (n * n)
    for (i, j), block in m.items():
        cols = classes[j]
        width = len(cols)
        for k, y in enumerate(classes[i]):
            for z, v in zip(cols, block[k * width:(k + 1) * width]):
                out[y * n + z] = v
    return out


def eigenspace_bases(a: ExactMatrix, spectrum: Spectrum) -> EigenDecomposition:
    """Per-eigenvalue bases of the kernels of A - theta I over Q(sqrt(m))
    for a symmetric 0/1 matrix A: the column spaces of the certified
    projector multiples M_theta of ``_spectral_projectors``.  Raises
    ArithmeticError when the spectrum is not A's.
    """
    n = a.rows
    keys, classes, blocks = _spectral_projectors(a, spectrum)
    bases = []
    for (value, mult), mu in zip(spectrum.eigenvalues, keys):
        x, y = (None if m is None else _dense(m, classes, n)
                for m in blocks[mu])
        cols = [[x[i * n + j] + (value * y[i * n + j] if mu else 0)
                 for i in range(n)] for j in range(n)]
        bases.append(column_space_basis(cols, expected_rank=mult))
    return EigenDecomposition(spectrum.values(),
                              [m for _, m in spectrum.eigenvalues],
                              bases, spectrum.radicand)


def idempotent_pattern(a: ExactMatrix, spectrum: Spectrum,
                       astar: ExactMatrix) -> list[list[bool]]:
    """P[i][j] = (E_i A* E_j != 0), indexed like spectrum.eigenvalues.

    A* is diagonal and the E_i are symmetric, so ||E_i A* E_j||_F^2 =
    tr(E_i A* E_j A*).  With M_i = c_i E_i from ``_spectral_projectors``
    that trace is, up to the nonzero factor c_i c_j, the sum over y, z
    of (M_i)_yz (M_j)_yz a*_y a*_z.  Writing M_i = X + theta_i Y turns
    it into four integer sums per pair of squared eigenvalues, each a
    sum over the blocks present in both factors (for bipartite A, X and
    Y share none).  Raises ArithmeticError when the spectrum is not A's.
    """
    n = astar.rows
    if astar.cols != n or a.rows != n:
        raise ValueError("A* must be square, of the size of A")
    if any(astar.entries[i * n + j] != 0
           for i in range(n) for j in range(n) if i != j):
        raise ValueError("A* must be diagonal")
    diag = [astar.entries[i * n + i] for i in range(n)]
    if not all(is_rational(d) for d in diag):
        raise ValueError("A* must be rational")
    den = lcm(*(Fraction(d).denominator for d in diag))
    w = [int(Fraction(d) * den) for d in diag]  # same zeros as A*

    keys, classes, blocks = _spectral_projectors(a, spectrum)
    ww = {(i, j): [w[y] * w[z] for y in rows for z in cols]
          for i, rows in enumerate(classes) for j, cols in enumerate(classes)}
    weighted = {mu: [None if m is None else
                     {key: list(map(mul, block, ww[key]))
                      for key, block in m.items()}
                     for m in xy] for mu, xy in blocks.items()}

    def dot(u, v) -> int:
        if u is None or v is None:
            return 0
        return sum(sum(map(mul, u[key], v[key])) for key in u.keys() & v.keys())

    sums = {}
    for mu in blocks:
        for nu in blocks:
            (xa, ya), (xb, yb) = weighted[mu], blocks[nu]
            sums[mu, nu] = (dot(xa, xb), dot(xa, yb), dot(ya, xb),
                            dot(ya, yb))
    values = spectrum.values()
    k = len(values)
    pattern = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            xx, xy, yx, yy = sums[keys[i], keys[j]]
            ti, tj = values[i], values[j]
            pattern[i][j] = xx + tj * xy + ti * yx + ti * tj * yy != 0
    return pattern


@dataclass
class OrderingReport:
    ordering: list[int]
    tridiagonal: bool
    violation: Optional[tuple[int, int]]

    def to_json(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "tridiagonal": self.tridiagonal,
            "violation": list(self.violation) if self.violation else None,
        }


def check_q_ordering(pattern: list[list[bool]],
                     ordering: Sequence[int]) -> OrderingReport:
    """Does A* act tridiagonally on the eigenspaces in this ordering?

    True iff every nonzero block of the idempotent pattern joins
    eigenvalues adjacent in the ordering; the first violating pair in
    row-major order is reported otherwise.
    """
    k = len(pattern)
    if sorted(ordering) != list(range(k)):
        raise ValueError("ordering must be a permutation of the eigenvalue indices")
    pos = [0] * k
    for position, idx in enumerate(ordering):
        pos[idx] = position
    for i in range(k):
        for j in range(k):
            if pattern[i][j] and abs(pos[i] - pos[j]) > 1:
                return OrderingReport(list(ordering), False, (i, j))
    return OrderingReport(list(ordering), True, None)


def natural_ordering(k: int) -> list[int]:
    return list(range(k))


def even_odd_ordering(k: int) -> list[int]:
    """E_0 < E_2 < ... < E_2D < E_1 < E_3 < ... (even indices first)."""
    return list(range(0, k, 2)) + list(range(1, k, 2))


def odd_even_ordering(k: int) -> list[int]:
    """E_1 < E_3 < ... < E_2D-1 < E_0 < E_2 < ... (odd indices first)."""
    return list(range(1, k, 2)) + list(range(0, k, 2))
