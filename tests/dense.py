"""The dense twin: n x n exact matrices and the dense forms of the
structures that the package keeps sparse.

The certified routes never form an n x n matrix.  The tests hold them
against this module: ``Dense`` adds sums, products, transposes and
matrix-vector products to ``ExactMatrix``, the input type of the one
elimination, and the functions build the split's L, F and R, the dual
idempotents, walk matrices, the diagonal of A*, a module's tridiagonal
action, the characteristic polynomial of a rational matrix and the
parameter matrix U of a uniform structure.

``dense_x_scalars`` is the x-scalar twin: it solves U(r,d) x = f on a
block copied out of the dense U by the general elimination, where the
package sweeps the tridiagonal pivots.

``full_decomposition`` is the module twin: it builds the bases of the
diameter-0 modules that ``decompose_modules`` only counts.
``shifted_decomposition`` is the reference for the generators: one
shifted elimination of L R on ker L per eigenvalue, at every endpoint,
with no pivot images and no filters.  ``w_chain``
normalises a module's raised chain to the chain w_r, ..., w_{r+d} of
primitive integer vectors with L w_{r+i} = w_{r+i-1}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from uniformq.linalg import (
    ExactMatrix,
    charpoly_int,
    nullspace,
    solve_linear,
)
from uniformq.poly import Poly
from uniformq.uniform import (
    Decomposition,
    TModule,
    _build_chain,
    _kernel_of_lowering,
    _lowering_raising,
    decompose_modules,
    solve_x_scalars,
)


class Dense(ExactMatrix):
    __slots__ = ()

    @classmethod
    def identity(cls, n: int) -> "Dense":
        return cls.diagonal([1] * n)

    @classmethod
    def diagonal(cls, values) -> "Dense":
        n = len(values)
        m = cls.zeros(n, n)
        for i, v in enumerate(values):
            m.entries[i * n + i] = v
        return m

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j: int) -> list:
        return self.entries[j::self.cols]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __add__(self, other: ExactMatrix) -> "Dense":
        self._check_same_shape(other)
        return Dense(self.rows, self.cols,
                     [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: ExactMatrix) -> "Dense":
        self._check_same_shape(other)
        return Dense(self.rows, self.cols,
                     [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, s) -> "Dense":
        return Dense(self.rows, self.cols, [s * a for a in self.entries])

    def transpose(self) -> "Dense":
        r, c, e = self.rows, self.cols, self.entries
        return Dense(c, r, [e[i * c + j] for j in range(c) for i in range(r)])

    def apply(self, vec) -> list:
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch in matrix-vector product")
        return [sum((a * v for a, v in zip(self.row(i), vec)
                     if a != 0 and v != 0), 0)
                for i in range(self.rows)]

    def _check_same_shape(self, other: ExactMatrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other: ExactMatrix) -> "Dense":
        """The matrix product: one plain loop that skips zero entries."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        n, k, m = self.rows, self.cols, other.cols
        brows = [[(j, bv) for j, bv in enumerate(other.row(t)) if bv != 0]
                 for t in range(k)]
        out = [0] * (n * m)
        for i in range(n):
            base = i * m
            for av, brow in zip(self.row(i), brows):
                if av != 0:
                    for j, bv in brow:
                        out[base + j] = out[base + j] + av * bv
        return Dense(n, m, out)


def adjacency(g) -> Dense:
    a = g.adjacency_matrix()
    return Dense(a.rows, a.cols, a.entries)


def commutators(g, astar) -> list[Dense]:
    """The four commutators of the cubic relation, A^3 A* - A* A^3,
    A A* A^2 - A^2 A* A, A^2 A* - A* A^2 and A A* - A* A, for the
    adjacency matrix A of g and A* = diag(astar)."""
    a, astar = adjacency(g), Dense.diagonal(astar)
    a2 = a * a
    a3 = a2 * a
    return [a3 * astar - astar * a3,
            a * (astar * a2) - (a2 * astar) * a,
            a2 * astar - astar * a2,
            a * astar - astar * a]


def charpoly(a: ExactMatrix) -> Poly:
    """Monic det(t I - a) of a rational matrix: d a is an integer matrix
    for the lcm d of the denominators, and charpoly(d a)(d t) = d^n
    charpoly(a)(t).  Irrational entries are a ValueError."""
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial needs a square matrix")
    if not all(isinstance(e, (int, Fraction)) for e in a.entries):
        raise ValueError("characteristic polynomial needs rational entries")
    n = a.rows
    d = lcm(*(Fraction(e).denominator for e in a.entries))
    scaled = charpoly_int([int(e * d) for e in a.entries], n)
    if d == 1:
        return scaled
    return Poly([Fraction(c, d ** (n - k))
                 for k, c in enumerate(scaled.coeffs)])


def step_matrices(split) -> tuple[Dense, Dense, Dense]:
    """L, F and R of the split: the (z, y) entry is 1 when the edge from
    y to z steps one level down, stays on its level or steps up."""
    n = split.graph.n
    mats = []
    for nbrs in (split.down, split.same, split.up):
        m = Dense.zeros(n, n)
        for y in range(n):
            for z in nbrs[y]:
                m.entries[z * n + y] = 1
        mats.append(m)
    return tuple(mats)


def walk_matrix(split, shape: str) -> Dense:
    """The (z, y) entry counts the yz-walks of the shape.  The walk
    takes its first step first, so shape "llr" gives R L L."""
    mats = dict(zip("lfr", step_matrices(split)))
    result = None
    for ch in shape:
        result = mats[ch] if result is None else mats[ch] * result
    return result


def dual_idempotent(ctx, i: int) -> Dense:
    """The diagonal 0/1 projector onto level i."""
    return Dense.diagonal([int(d == i) for d in ctx.dist])


def dual_diagonal(ctx, theta_star) -> list:
    """The diagonal of A*, one value per vertex: theta*_{dist(x,y)} at y."""
    eps = ctx.eccentricity
    if len(theta_star) != eps + 1:
        raise ValueError(f"need {eps + 1} level values, got {len(theta_star)}")
    if len(set(theta_star)) != eps + 1:
        raise ValueError("level values must be mutually distinct")
    return [theta_star[d] for d in ctx.dist]


def module_rep_matrix(module) -> Dense:
    """The action of A on a module's chain basis: ones above the
    diagonal, the x-scalars below it."""
    d = module.diameter
    m = Dense.zeros(d + 1, d + 1)
    for i in range(d):
        m.entries[i * (d + 1) + i + 1] = 1
        m.entries[(i + 1) * (d + 1) + i] = module.x_scalars[i]
    return m


def parameter_matrix(params) -> Dense:
    """The eps x eps tridiagonal matrix U (unit diagonal)."""
    eps = params.eps
    m = Dense.identity(eps)
    for i in range(1, eps):
        m.entries[i * eps + i - 1] = params.em(i + 1)
        m.entries[(i - 1) * eps + i] = params.ep(i)
    return m


def dense_x_scalars(params, r: int, d: int) -> list[Fraction]:
    """U(r,d) x = (f_{r+1}, ..., f_{r+d}) solved on the block of the
    dense U with rows and columns r+1..r+d; an ArithmeticError when that
    block is singular."""
    u = parameter_matrix(params)
    block = ExactMatrix.from_rows(
        [[u[(i, j)] for j in range(r, r + d)] for i in range(r, r + d)])
    sol = solve_linear(block, [params.fi(r + i) for i in range(1, d + 1)])
    if sol is None or sol[1]:
        raise ArithmeticError(f"U({r},{d}) is singular")
    return [Fraction(x) for x in sol[0]]


def full_decomposition(split, params) -> Decomposition:
    """``decompose_modules`` with the modules it counts built as well:
    the generators of type (r, 0) are ker L itself on the top level eps
    and, for r < eps, the 0-eigenspace of L R on ker L, combined from
    the kernel basis.  Each one is checked to lie in ker L and ker R,
    and their numbers must equal the fast route's counts.  Returns every
    module, ordered by endpoint, then by diameter, and nothing counted."""
    dec = decompose_modules(split, params)
    eps = split.ctx.eccentricity
    built = []
    for r in range(eps + 1):
        gens = _kernel_of_lowering(split, r)
        if gens and r < eps:
            gens = [g for g, _ in eigenspace(split, r, gens, 0)]
        for g in gens:
            assert not any(split.lower(r, g)) and not any(split.raise_(r, g))
            content = gcd(*g)
            built.append(TModule(r, 0, [[v // content for v in g]], []))
    assert Counter(m.endpoint for m in built) == dec.counted, \
        "counted modules disagree with their bases"
    modules = sorted(built + dec.modules,
                     key=lambda m: (m.endpoint, m.diameter))
    return Decomposition(modules, {})


def eigenspace(split, r: int, kernel: list[list], value) -> list[tuple]:
    """The value-eigenspace of M_r, L R on ker L at level r, by one
    shifted elimination in kernel coordinates: (M_r - value I) c = 0 with
    row i scaled by q s_i for value = p/q, where M_r has the entries
    (L R v_j)[f_i] / s_i, s_i = v_i[f_i], at the free column f_i of the
    kernel vector v_i.  Returns each basis vector with its raised
    vector, both combined from the kernel basis and its raised vectors."""
    free, images = _lowering_raising(split, r, kernel)
    value = Fraction(value)
    shifted = [[value.denominator * u[f] for u in images] for f in free]
    for i, (v, f) in enumerate(zip(kernel, free)):
        shifted[i][i] -= value.numerator * v[f]
    raised = [split.raise_(r, v) for v in kernel]
    return [(combine(c, kernel), combine(c, raised))
            for c in nullspace(ExactMatrix.from_rows(shifted))]


def combine(coords: list, vectors: list[list]) -> list:
    """The combination sum_j coords[j] vectors[j]."""
    out = [0] * len(vectors[0])
    for c, v in zip(coords, vectors):
        if c:
            out = [o + c * s for o, s in zip(out, v)]
    return out


def shifted_decomposition(split, params) -> Decomposition:
    """The thin modules by the shifted route, the reference for the
    generators of ``decompose_modules``: at each endpoint r < eps with
    ker L != 0, the eigenspace of M_r for 0 is counted, and the one for
    each distinct nonzero x_{r+1}(r, d) gives the generators, each
    raised and checked as a chain.  The eigenspaces must span ker L,
    and the top level eps counts ker L there.  Nothing is skipped, and
    it assumes the structure is verified."""
    eps = split.ctx.eccentricity
    x_scalars = cache(lambda r, d: solve_x_scalars(params, r, d))
    chains, counted = [], {eps: len(_kernel_of_lowering(split, eps))}
    for r in range(eps):
        kernel = _kernel_of_lowering(split, r)
        if not kernel:
            continue
        counted[r] = len(eigenspace(split, r, kernel, 0))
        values = dict.fromkeys(x_scalars(r, d)[0]
                               for d in range(1, eps - r + 1))
        for value in filter(None, values):
            for gen, up in eigenspace(split, r, kernel, value):
                chains.append(_build_chain(split, r, gen, up,
                                           split.lower(r + 1, up), value,
                                           x_scalars))
        assert counted[r] + sum(m.endpoint == r for m in chains) == \
            len(kernel), f"eigenspaces at level {r} do not span ker L"
    chains.sort(key=lambda m: (m.endpoint, m.diameter))
    return Decomposition(chains, {r: c for r, c in counted.items() if c})


def w_chain(module) -> list[list]:
    """The chain w_{r+i} = R^i w_r / (x_{r+1} ... x_{r+i}) of a module
    given by its raised chain R^i w_r, scaled by one integer to integer
    vectors of content 1 (the relations are linear, so a common factor
    keeps them)."""
    scales = [Fraction(1)]
    for x in module.x_scalars:
        scales.append(scales[-1] / x)
    common = lcm(*(s.denominator for s in scales))
    chain = [[int(s * common) * v for v in b]
             for s, b in zip(scales, module.basis)]
    content = gcd(*(v for w in chain for v in w))
    return [[v // content for v in w] for w in chain]
