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

``spectrum_exact`` takes the level split of a bipartite graph, and,
where there is one, its certified thin-module decomposition.  Given the
modules, it reads the spectrum off them (``_module_spectrum``): A acts
on the chain basis of a module of type (r, d) by a tridiagonal matrix
with characteristic polynomial h_{d+1}, so the spectrum is the multiset
union over the module types of the d + 1 roots of h_{d+1}, each counted
once per module of the type.  For bipartite A, h_{d+1} is even or odd,
and its roots are found by an exact scan of mu = theta^2 over the
integers in [0, Delta^2] (Delta the maximum degree).  This is the only
route of ``pipeline``: where no decomposition certifies, it reports no
spectrum.

Without modules it takes the dense route, the route of ``uniformq
spectrum`` alone, which needs no uniform structure.  The colour
classes are the even and the odd levels of the base's distance
partition, so A = [[0, B], [B^T, 0]], and it works on the Gram block
B B^T of the smaller class, read off the adjacency lists.  The roots of
its characteristic polynomial modulo one prime in [0, Delta^2] are the
candidate eigenvalues; the powers of B B^T certify that they hold every
eigenvalue and give each multiplicity by a trace.  The nonzero
eigenvalues of A are +-sqrt(mu) for the nonzero eigenvalues mu of
B B^T, each with the multiplicity of mu, and 0 takes the rest.
Both routes reject non-bipartite input, need a rational squared
spectrum and return the same plain Spectrum value: the eigenvalues with
their multiplicities, and the radicand.  The tests hold the two routes
against each other.

``module_pattern`` decides which E_i A* E_j vanish on the certified
thin modules: each module type is a small tridiagonal pair (T, diag
theta*), so the pattern needs O(d) work per pair of eigenvalues and
type, whatever n.  It is the pattern of ``pipeline``.  It checks the
modules' eigenvalue counts against the spectrum's multiplicities.  In
``pipeline`` that check holds by construction: the pattern needs the
modules, and with modules the spectrum is read off them.  The dense
spectrum is checked against the module route by the tests' twin and by
the CI run on C_3(3).

The dense twin that the tests compare ``module_pattern`` with builds
its own data from the split: ``_spectral_projectors`` forms the integer
spectral projectors of A^2 = diag(B B^T, B^T B), ``idempotent_pattern``
decides the pattern from them, and ``eigenspace_bases`` takes
eigenspace bases from them.  None of these lies on the certified path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import lcm, prod
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import _kernels
from .graphs import LFRSplit
from .linalg import column_space_basis, int_matmul_flat
from .poly import Poly, linear_product
from .scalars import (
    QuadExt,
    Scalar,
    is_rational,
    quad,
    rational_power,
    squarefree_decompose,
)
from .uniform import Decomposition


# -- closed forms --------------------------------------------------------------


def _spectrum_value(b: int, e: Fraction, D: int, i: int) -> Scalar:
    """theta_i = kappa (b^((D-i)/2) - b^((i-D)/2)) of the (b, e, D)
    full bipartite dual polar instance, kappa = b^((D+e)/2)/(b-1)."""
    kappa = rational_power(b, (D + e) / 2) / (b - 1)
    return kappa * (rational_power(b, Fraction(D - i, 2))
                    - rational_power(b, Fraction(i - D, 2)))


def closed_form_spectrum(b: int, e, D: int) -> list[Scalar]:
    """theta_0 > ... > theta_{2D} for the (b, e, D) full bipartite dual
    polar instance; ValueError when the values leave Q(sqrt(m)).

    At e = 0 the dual polar graph D_D(b) is bipartite, so it is its own
    full bipartite graph, and its spectrum is the D + 1 values at even
    indices, theta_{2j} = [D - j] - [j] with [m] = (b^m - 1)/(b - 1).
    """
    if b < 2:
        raise ValueError("need b >= 2")
    e = Fraction(e)
    if e == 0:
        return [Fraction(b ** (D - j) - b ** j, b - 1) for j in range(D + 1)]
    return [_spectrum_value(b, e, D, i) for i in range(2 * D + 1)]


def module_eigenvalues(b: int, e, D: int, d: int) -> list[Scalar]:
    """Eigenvalues of the (r, d) module representation matrix: d+1
    pairwise distinct values, the spectrum at indices D - d + 2j."""
    if b < 2:
        raise ValueError("need b >= 2")
    if d < 0:
        raise ValueError("need d >= 0")
    e = Fraction(e)
    return [_spectrum_value(b, e, D, D - d + 2 * j) for j in range(d + 1)]


def krawtchouk_charpoly(x_scalars: Sequence) -> list[Poly]:
    """h_0, ..., h_{d+1} from h_{i+1} = t h_i - x_{r+i} h_{i-1},
    h_0 = 1, h_1 = t; h_{d+1} is the charpoly of the module matrix."""
    x = [Fraction(v) for v in x_scalars]
    t = Poly.x()
    hs = [Poly([1]), t]
    for xi in x:
        hs.append(t * hs[-1] - xi * hs[-2])
    return hs


def verify_krat_scaling(b: int, e, D: int, d: int,
                        x_scalars: Sequence) -> Optional[int]:
    """Check h_i(t) = kappa^i H_i(t / kappa) coefficient-wise, where
    kappa = b^((D+e+d)/2)/(b-1) and the H_i are generated by
    t H_i = H_{i+1} - b^(-d) (1 - b^i)(1 - b^(i-d-1)) H_{i-1},
    H_0 = 1, H_1 = t (the normalized dual b-Krawtchouk recurrence).
    Returns the first index i where it fails, or None when it holds.
    """
    if b < 2:
        raise ValueError("need b >= 2")
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
            return i
        scale = scale * kappa
    return None


# -- exact spectra --------------------------------------------------------------

# the one prime of the Gram block's characteristic polynomial: every
# integer root is a root modulo it (a Mersenne prime)
_PRIME = 2 ** 61 - 1

_IRRATIONAL = ("squared spectrum is not rational; this lies outside the "
               "supported scalar fields")


class Spectrum(NamedTuple):
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


def _powers(d: list[int], size: int, k: int) -> list[list[int]]:
    """D^0, ..., D^k (at least D^0 and D^1) of the size x size matrix d."""
    powers = [[int(i % (size + 1) == 0) for i in range(size * size)], d]
    while len(powers) <= k:
        powers.append(int_matmul_flat(d, powers[-1], size, size, size))
    return powers


def _evaluate(powers: list[list[int]], roots) -> list[int]:
    """prod_{nu in roots} (D - nu I) from the powers D^0, D^1, ... of D."""
    coeffs = linear_product(roots)
    return [sum(map(mul, coeffs, column)) for column in zip(*powers)]


def _classes(split: LFRSplit) -> list[list[int]]:
    """The colour classes of a bipartite split, the even and the odd
    levels, the smaller first (the even levels on a tie)."""
    return sorted(([v for level in split.ctx.levels[parity::2] for v in level]
                   for parity in (0, 1)), key=len)


def _gram(split: LFRSplit, rows: list[int]) -> list[int]:
    """The Gram block over the colour class ``rows``, flat len(rows) x
    len(rows), from the adjacency lists: entry (y, y') counts the walks
    y - u - y'."""
    adj = split.graph.adj
    size = len(rows)
    position = {y: k for k, y in enumerate(rows)}
    gram = [0] * (size * size)
    for k, y in enumerate(rows):
        row = k * size
        for u in adj[y]:
            for z in adj[u]:
                gram[row + position[z]] += 1
    return gram


def spectrum_exact(split: LFRSplit,
                   decomposition: Optional[Decomposition] = None) -> Spectrum:
    """Exact spectrum of the adjacency matrix A of the graph of a
    bipartite split.

    Given the split's certified thin-module decomposition, the spectrum
    is read off the modules (``_module_spectrum``) and no Gram block is
    formed.  Otherwise every edge joins consecutive levels, so the even
    and the odd levels are the colour classes, A = [[0, B], [B^T, 0]],
    and the Gram block D = B B^T on the smaller class (``_classes``) is
    read off the adjacency lists (``_gram``); B itself is never formed.
    Every eigenvalue of D lies in [0, Delta^2] (Delta the maximum
    degree); the candidates are the mu there that are roots of the
    characteristic polynomial of D modulo one fixed prime, since every
    integer root is one.  From the powers D^0, ..., D^k for k candidates,
    prod_mu (D - mu I) = 0 proves that the candidates hold every
    eigenvalue of D.  D is symmetric, so
    P_mu = prod_{nu != mu} (D - nu I) has trace mult_mu prod_{nu != mu}
    (mu - nu), which gives each multiplicity; a false candidate gets 0
    and is dropped.  Then mult(+-sqrt mu) = mult_D(mu) for mu != 0 and
    mult(0) = n - 2 rank B.

    Raises ValueError when the graph is not bipartite, the squared
    spectrum is not rational or the values need more than one radicand,
    and ArithmeticError when the given modules do not fill V.
    """
    if not split.is_bipartite():
        raise ValueError(
            "the graph is not bipartite; only bipartite graphs are supported"
        )
    g = split.graph
    # no eigenvalue of A^2 exceeds Delta^2, Delta the maximum degree
    bound = max(map(len, g.adj), default=0) ** 2
    if decomposition is not None:
        return _module_spectrum(g.n, bound, decomposition)
    rows = _classes(split)[0]
    size = len(rows)
    gram = _gram(split, rows)
    coeffs = _kernels.charpoly_mod(gram, size, _PRIME)[::-1]  # highest first
    candidates = [mu for mu in range(bound + 1)
                  if not reduce(lambda r, c: (r * mu + c) % _PRIME,
                                coeffs, 0)]
    powers = _powers(gram, size, len(candidates))
    if any(_evaluate(powers, candidates)):
        raise ValueError(_IRRATIONAL)
    traces = [sum(p[::size + 1]) for p in powers]
    mults = {}
    for mu in candidates:
        others = [nu for nu in candidates if nu != mu]
        mult = sum(map(mul, linear_product(others), traces)) \
            // prod(mu - nu for nu in others)
        if mult:
            mults[mu] = mult
    return _from_squares(g.n, mults)


def _from_squares(n: int, mults: dict[int, int]) -> Spectrum:
    """The Spectrum of a bipartite A on n vertices from the multiplicity
    of each eigenvalue mu of A^2 on one colour class: +-sqrt(mu) each
    with the multiplicity of mu for mu != 0, and 0 takes the rest."""
    radicand, roots = _square_roots(mults)
    pairs = [(Fraction(0), n - 2 * sum(mults[mu] for mu in roots))]
    for mu, (s, m) in roots.items():
        pairs += [(quad(0, s, m), mults[mu]), (quad(0, -s, m), mults[mu])]
    pairs.sort(key=lambda t: t[0], reverse=True)
    return Spectrum([(v, m) for v, m in pairs if m > 0], radicand)


def _module_spectrum(n: int, bound: int,
                     decomposition: Decomposition) -> Spectrum:
    """Exact spectrum of the adjacency matrix A of a bipartite graph on
    n vertices with maximum degree Delta, bound = Delta^2, read off its
    certified thin modules.

    V is the direct sum of the modules, and A acts on the chain basis of
    a module of type (r, d) by the tridiagonal T with characteristic
    polynomial h_{d+1} (``krawtchouk_charpoly``), so the spectrum of A
    is the multiset union of the roots of h_{d+1}, each counted once per
    module of the type.  The recurrence has no diagonal term, so
    h_{d+1}(t) = t^p g(t^2) with p = (d + 1) mod 2; every squared
    eigenvalue of A is an algebraic integer in [0, Delta^2], so where
    the squared spectrum is rational the roots
    are +-sqrt(mu) for the integers mu there with g(mu) = 0, and 0 when
    p = 1 or g(0) = 0.  Each type must have d + 1 of them, and the module
    dimensions must sum to n.

    Raises ValueError when a type's roots are not all square roots of
    integers (the squared spectrum is not rational) or need more than
    one radicand, and ArithmeticError when the modules do not fill V.
    """
    types = decomposition.types()
    total = sum((d + 1) * count for (_, d), (_, count) in types.items())
    if total != n:
        raise ArithmeticError(
            f"module dimensions sum to {total}, expected {n}")
    mults: dict[int, int] = {}
    for (_, d), (x, count) in types.items():
        h = krawtchouk_charpoly(x)[-1].coeffs
        even = h[(d + 1) % 2::2]  # g, lowest first
        den = lcm(*(Fraction(c).denominator for c in even))
        g = [int(c * den) for c in reversed(even)]  # highest first
        roots = [mu for mu in range(bound + 1)  # t | h_{d+1} for even d
                 if (mu == 0 and d % 2 == 0)
                 or not reduce(lambda acc, c: acc * mu + c, g, 0)]
        if sum(2 if mu else 1 for mu in roots) != d + 1:
            raise ValueError(_IRRATIONAL)
        for mu in roots:
            mults[mu] = mults.get(mu, 0) + count
    return _from_squares(n, mults)


# -- the idempotent pattern on the thin modules ----------------------------------


def module_pattern(spectrum: Spectrum, decomposition: Decomposition,
                   theta_star: Sequence) -> list[list[bool]]:
    """P[i][j] = (E_i A* E_j != 0), indexed like spectrum.eigenvalues, for
    the A* with value theta_star[i] on level i, decided on the certified
    thin modules of ``decomposition`` with no matrix algebra.

    V is the direct sum of the modules, and each is invariant under A
    and A*.  On the chain basis w_r, ..., w_{r+d} of a module of type
    (r, d), A acts by the tridiagonal matrix T of its x-scalars and A* by
    diag(theta*_r, ..., theta*_{r+d}).  The x-scalars are nonzero, so
    T has d + 1 simple eigenvalues, the roots of h_{d+1}.  At a root
    theta, v_theta = (h_k(theta))_k is a right eigenvector of T and
    u_theta = (h_k(theta) / (x_{r+1} ... x_{r+k}))_k a left one, and
    E_theta acts on the module as v_theta u_theta^T / (u_theta^T
    v_theta).  So E_theta A* E_theta' vanishes on it exactly when

        sum_k theta*_{r+k} h_k(theta) h_k(theta') / (x_{r+1} ... x_{r+k})

    is 0, and on V exactly when that holds for every module type.  The
    roots are looked up among the spectrum's values: each type must
    have d + 1 of them, and counting each root once per module must
    give the spectrum's multiplicities, a check of the modules against
    the spectrum (one that holds by construction when the spectrum was
    read off the same modules).  ArithmeticError otherwise.
    """
    values = spectrum.values()
    found = [0] * len(values)
    pattern = [[False] * len(values) for _ in values]
    for (r, d), (x, count) in decomposition.types().items():
        if r + d >= len(theta_star):
            raise ValueError(f"need a theta* value for level {r + d}")
        hs = krawtchouk_charpoly(x)
        roots = [(i, [h(theta) for h in hs[:-1]])
                 for i, theta in enumerate(values) if hs[-1](theta) == 0]
        if len(roots) != d + 1:
            raise ArithmeticError(
                f"module type (r, d) = ({r}, {d}) has {len(roots)} of its "
                f"{d + 1} eigenvalues in the spectrum"
            )
        weights = [theta_star[r + k] / scale for k, scale in
                   enumerate(accumulate(x, mul, initial=Fraction(1)))]
        for i, hi in roots:
            found[i] += count
            for j, hj in roots:
                if sum(map(mul, weights, map(mul, hi, hj))) != 0:
                    pattern[i][j] = True
    mults = [m for _, m in spectrum.eigenvalues]
    if found != mults:
        raise ArithmeticError(
            f"module multiplicities {found} disagree with the "
            f"spectrum's {mults}"
        )
    return pattern


# -- the dense twin: spectral projectors, eigenspace bases and the pattern --------


class _Projectors(NamedTuple):
    """The dense twin's data for the graph of a bipartite split."""
    spectrum: Spectrum
    keys: list[int]  # mu = theta^2 of each eigenvalue, in spectrum order
    classes: list[list[int]]  # the colour classes, smaller first
    pairs: dict  # mu -> (X, Y), see _spectral_projectors


def _spectral_projectors(split: LFRSplit) -> _Projectors:
    """Integer multiples of the primitive idempotents of the adjacency
    matrix A of the graph of a bipartite split, in block form over its
    colour classes (``_classes``), with the spectrum they belong to.

    A = [[0, B], [B^T, 0]] and A^2 = diag(B B^T, B^T B), so for each
    distinct mu = theta^2 of the spectrum, P_mu = prod_{nu != mu}
    (A^2 - nu I) is the block diagonal matrix of the same product over
    each Gram block (``_gram``), evaluated from its powers.  Per mu the
    pair (X, Y) of block matrices {(i, j): flat block} has M_theta =
    X + theta Y equal to c_theta E_theta: X = A P_mu (the blocks off the
    diagonal) and Y = P_mu (those on it) for mu != 0, and X = P_0,
    Y = None for mu = 0.  Here c_theta = prod_{nu != mu} (mu - nu),
    times 2 theta when theta != 0.
    """
    spectrum = spectrum_exact(split)
    classes = _classes(split)
    sizes = [len(c) for c in classes]
    keys = [int(Fraction(value * value)) for value in spectrum.values()]
    mus = list(dict.fromkeys(keys))
    powers = [_powers(_gram(split, rows), size, len(mus) - 1)
              for rows, size in zip(classes, sizes)]
    rows, cols = classes
    size, width = sizes
    position = {z: k for k, z in enumerate(cols)}
    b = [0] * (size * width)
    for k, y in enumerate(rows):
        for z in split.graph.adj[y]:
            b[k * width + position[z]] = 1
    bt = [b[k * width + j] for j in range(width) for k in range(size)]
    a_blocks = {(0, 1): b, (1, 0): bt}

    def times_a(p: dict) -> dict:  # (A P)_ij = A_ij P_jj
        return {(i, j): int_matmul_flat(block, p[j, j], sizes[i], sizes[j],
                                        sizes[j])
                for (i, j), block in a_blocks.items()}

    pairs = {}
    for mu in mus:
        others = [nu for nu in mus if nu != mu]
        p = {(i, i): _evaluate(q, others) for i, q in enumerate(powers)}
        pairs[mu] = (times_a(p), p) if mu else (p, None)
    return _Projectors(spectrum, keys, classes, pairs)


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


def eigenspace_bases(projectors: _Projectors) -> list[list[list]]:
    """Per eigenvalue of ``projectors.spectrum``, in its order, a basis
    of the kernel of A - theta I over Q(sqrt(m)): the column space of
    the projector multiple M_theta of ``_spectral_projectors``.
    """
    spectrum, keys, classes, pairs = projectors
    n = spectrum.vertex_count
    bases = []
    for (value, mult), mu in zip(spectrum.eigenvalues, keys):
        x, y = (None if m is None else _dense(m, classes, n)
                for m in pairs[mu])
        cols = [[x[i * n + j] + (value * y[i * n + j] if mu else 0)
                 for i in range(n)] for j in range(n)]
        bases.append(column_space_basis(cols, expected_rank=mult))
    return bases


def idempotent_pattern(projectors: _Projectors,
                       astar: Sequence) -> list[list[bool]]:
    """P[i][j] = (E_i A* E_j != 0), indexed like the eigenvalues of
    ``projectors.spectrum``, for the rational diagonal A* = diag(astar).

    A* is diagonal and the E_i are symmetric, so ||E_i A* E_j||_F^2 =
    tr(E_i A* E_j A*).  With M_i = c_i E_i from ``_spectral_projectors``
    that trace is, up to the nonzero factor c_i c_j, the sum over y, z
    of (M_i)_yz (M_j)_yz a*_y a*_z.  Writing M_i = X + theta_i Y turns
    it into four integer sums per pair of squared eigenvalues, each a
    sum over the blocks present in both factors (X and Y share none).
    """
    spectrum, keys, classes, pairs = projectors
    if len(astar) != spectrum.vertex_count:
        raise ValueError("A* must have one value per vertex of A")
    if not all(is_rational(d) for d in astar):
        raise ValueError("A* must be rational")
    den = lcm(*(Fraction(d).denominator for d in astar))
    w = [int(Fraction(d) * den) for d in astar]  # same zeros as A*
    ww = {(i, j): [w[y] * w[z] for y in rows for z in cols]
          for i, rows in enumerate(classes) for j, cols in enumerate(classes)}
    weighted = {mu: [None if m is None else
                     {key: list(map(mul, block, ww[key]))
                      for key, block in m.items()}
                     for m in xy] for mu, xy in pairs.items()}

    def dot(u, v) -> int:
        if u is None or v is None:
            return 0
        return sum(sum(map(mul, u[key], v[key])) for key in u.keys() & v.keys())

    sums = {}
    for mu in pairs:
        for nu in pairs:
            (xa, ya), (xb, yb) = weighted[mu], pairs[nu]
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


def check_q_ordering(pattern: list[list[bool]],
                     ordering: Sequence[int]) -> Optional[tuple[int, int]]:
    """Does A* act tridiagonally on the eigenspaces in this ordering?

    It does iff every nonzero block of the idempotent pattern joins
    eigenvalues adjacent in the ordering.  Returns None when it does,
    else the first violating pair (i, j) in row-major order.
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
                return i, j
    return None


def natural_ordering(k: int) -> list[int]:
    return list(range(k))


def even_odd_ordering(k: int) -> list[int]:
    """E_0 < E_2 < ... < E_2D < E_1 < E_3 < ... (even indices first)."""
    return list(range(0, k, 2)) + list(range(1, k, 2))


def odd_even_ordering(k: int) -> list[int]:
    """E_1 < E_3 < ... < E_2D-1 < E_0 < E_2 < ... (odd indices first)."""
    return list(range(1, k, 2)) + list(range(0, k, 2))
