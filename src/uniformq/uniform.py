"""Uniform structures on bipartite graphs and thin module decomposition.

A uniform structure relative to a base vertex is a triple of per-level
scalars (e-_i, e+_i, f_i) such that the operator identity

    e-_i R L^2 + L R L + e+_i L^2 R = f_i L

holds on the i-th subconstituent for every level 1 <= i <= eps, with the
conventions e-_1 = 0 and e+_eps = 0.  The scalars assemble into the
tridiagonal parameter matrix U (unit diagonal, subdiagonal e-, super-
diagonal e+) whose contiguous principal blocks must all be nonsingular.

When the identity holds, the standard module splits into thin
irreducible modules; each module is a chain w_r, ..., w_{r+d} with
L w_r = 0, L w_{r+i} = w_{r+i-1} and R w_{r+i-1} = x_{r+i} w_{r+i},
where the x-scalars solve the linear system U(r,d) x = (f_{r+1}, ...,
f_{r+d}) over the corresponding principal block.  So the generators
w_r are eigenvectors of L R on ker L, with eigenvalue x_{r+1}(r, d).

Each entry (z, y) of the identity, y on level i, is one linear equation
in (e-_i, e+_i, f_i) with small integer coefficients, so few of them
are distinct.  A split builds its table of distinct equations once, one
pass over the columns of each level, and the per-level fit, the
constant fit and the verification all read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .graphs import LFRSplit
from .linalg import (
    ExactMatrix,
    Inconsistent,
    UniqueSolution,
    nullspace,
    rank,  # noqa: F401  unused here; perfbench's tracer test rebinds it
    solve_linear,
)
from .scalars import rational_power, scalar_to_json


@dataclass(frozen=True)
class UniformParams:
    """Per-level scalars, stored 1-based: position k holds level k+1.

    e_minus covers levels 1..eps with e_minus[0] = 0 by convention;
    e_plus covers levels 1..eps with e_plus[eps-1] = 0 by convention;
    f covers levels 1..eps.
    """

    e_minus: tuple
    e_plus: tuple
    f: tuple

    def __post_init__(self):
        for name in ("e_minus", "e_plus", "f"):  # tuples keep it hashable
            object.__setattr__(self, name, tuple(getattr(self, name)))
        eps = len(self.f)
        if eps < 1:
            raise ValueError("need eps >= 1")
        if len(self.e_minus) != eps or len(self.e_plus) != eps:
            raise ValueError("parameter arrays must all have length eps")
        if self.e_minus[0] != 0:
            raise ValueError("convention e-_1 = 0 violated")
        if self.e_plus[eps - 1] != 0:
            raise ValueError("convention e+_eps = 0 violated")

    @property
    def eps(self) -> int:
        return len(self.f)

    def em(self, i: int) -> Fraction:
        return Fraction(self.e_minus[i - 1])

    def ep(self, i: int) -> Fraction:
        return Fraction(self.e_plus[i - 1])

    def fi(self, i: int) -> Fraction:
        return Fraction(self.f[i - 1])

    @staticmethod
    def constant(eps: int, em, ep, f) -> "UniformParams":
        """Level-independent parameters (conventions fill the edge slots)."""
        em, ep, f = Fraction(em), Fraction(ep), Fraction(f)
        return UniformParams(
            (Fraction(0),) + (em,) * (eps - 1),
            (ep,) * (eps - 1) + (Fraction(0),),
            (f,) * eps,
        )

    def to_json(self) -> dict:
        return {
            "e_minus": [scalar_to_json(x) for x in self.e_minus],
            "e_plus": [scalar_to_json(x) for x in self.e_plus],
            "f": [scalar_to_json(x) for x in self.f],
        }

    @staticmethod
    def from_json(data: dict) -> "UniformParams":
        return UniformParams(
            tuple(Fraction(x) for x in data["e_minus"]),
            tuple(Fraction(x) for x in data["e_plus"]),
            tuple(Fraction(x) for x in data["f"]),
        )


def parameter_matrix(params: UniformParams) -> ExactMatrix:
    """The eps x eps tridiagonal matrix U (unit diagonal)."""
    eps = params.eps
    m = ExactMatrix.zeros(eps, eps)
    for i in range(1, eps + 1):
        m.entries[(i - 1) * eps + (i - 1)] = Fraction(1)
        if i >= 2:
            m.entries[(i - 1) * eps + (i - 2)] = params.em(i)
        if i <= eps - 1:
            m.entries[(i - 1) * eps + i] = params.ep(i)
    return m


@dataclass
class ParamValidation:
    ok: bool
    reason: Optional[str] = None
    consequence_holds: Optional[bool] = None  # e-_{i+1} e+_i != 1 throughout


def validate_parameter_matrix(params: UniformParams) -> ParamValidation:
    """Check the parameter matrix conditions exactly.

    (i) unit diagonal is structural; (ii) for each 2 <= i <= eps at
    least one of e-_i, e+_{i-1} is nonzero; (iii) every contiguous
    principal block is nonsingular (checked via the tridiagonal
    determinant recurrence).  Also reports whether the derived
    consequence e-_{i+1} e+_i != 1 holds.
    """
    eps = params.eps
    for i in range(2, eps + 1):
        if params.em(i) == 0 and params.ep(i - 1) == 0:
            return ParamValidation(
                False, f"e-_{i} and e+_{i - 1} both vanish", None
            )
    for s in range(1, eps + 1):
        prev2, prev1 = Fraction(1), Fraction(1)  # det of empty and 1x1 block
        for t in range(s + 1, eps + 1):
            d = prev1 - params.ep(t - 1) * params.em(t) * prev2
            if d == 0:
                return ParamValidation(
                    False, f"principal block ({s}..{t}) is singular", None
                )
            prev2, prev1 = prev1, d
    consequence = all(
        params.em(i + 1) * params.ep(i) != 1 for i in range(1, eps)
    )
    return ParamValidation(True, None, consequence)


# -- the operator identity -----------------------------------------------------


def _require_bipartite(split: LFRSplit) -> None:
    if not split.is_bipartite():
        raise ValueError("uniform structures require a bipartite graph (F = 0)")


def _equation_table(split: LFRSplit) -> dict[int, dict]:
    """The identity's distinct equations per level, built on first use
    and kept on the split; see ``_level_equations``."""
    if split._equations is None:
        eps, shift = split.ctx.eccentricity, _field_bits(split)
        split._equations = {i: _level_equations(split, i, shift)
                            for i in range(1, eps + 1)}
    return split._equations


def _level_equations(split: LFRSplit, i: int, shift: int) -> dict:
    """Each distinct equation (RL^2, L^2R, -L | -LRL) of the identity at
    the entries (z, y), y on level i and z in the support of its
    columns, mapped to the first column y where it occurs, in level
    order.  The entries are small integers, so few equations are
    distinct; dropping repeats keeps the row space, hence the RREF and
    every solution."""
    first: dict = {}
    for y in split.ctx.levels[i]:
        for key in set(_column(split, y, shift).values()).difference(first):
            first[key] = y
    return {_unpack(key, shift): y for key, y in first.items()}


def _field_bits(split: LFRSplit) -> int:
    """Bits for the number of 3-step walks from y to z.  A walk is fixed
    by its second vertex, a neighbour of y, and its third, a neighbour
    of z, so there are at most (max degree)^2."""
    return (max(map(len, split.graph.adj)) ** 2).bit_length()


def _column(split: LFRSplit, y: int, shift: int) -> dict:
    """The columns RL^2 e_y, LRL e_y, L^2R e_y and L e_y for e_y on level
    i, packed per vertex z on level i-1 into one integer of four
    shift-bit fields (``_field_bits``), which never carry into each
    other since every entry is a walk count.  Two sparse sums build it:
    L^2 e_y raised, plus the lowering of the level-i vector
    R L e_y + L R e_y, each term weighted by its field."""
    down, up = split.down, split.up
    wa, wb, wc = 1 << 3 * shift, 1 << 2 * shift, 1 << shift
    l2: dict = {}  # L^2 e_y, weighted for RL^2
    mid: dict = {}  # R L e_y and L R e_y, weighted for LRL and L^2R
    for u in down[y]:
        for w in down[u]:
            l2[w] = l2.get(w, 0) + wa
        for z in up[u]:
            mid[z] = mid.get(z, 0) + wb
    for u in up[y]:
        for z in down[u]:
            mid[z] = mid.get(z, 0) + wc
    out = dict.fromkeys(down[y], 1)
    for w, c in l2.items():
        for z in up[w]:
            out[z] = out.get(z, 0) + c
    for z, c in mid.items():
        for w in down[z]:
            out[w] = out.get(w, 0) + c
    return out


def _unpack(key: int, shift: int) -> tuple:
    """A packed entry of ``_column`` as the equation (a, c, d | b), that
    is e- a + e+ c + f d = b, with a = RL^2, c = L^2R, d = -L and
    b = -LRL."""
    mask = (1 << shift) - 1
    return (key >> 3 * shift, key >> shift & mask, -(key & mask),
            -(key >> 2 * shift & mask))


@dataclass
class UniformCheck:
    passed: bool
    level: Optional[int] = None
    witness: Optional[int] = None  # basis vertex whose column fails
    residual: Optional[list] = None


def verify_uniform(split: LFRSplit, params: UniformParams) -> UniformCheck:
    """Check the identity on every standard basis vector of every level.

    Linearity makes the standard basis sufficient, and each column's
    entries are equations of the split's table, so checking each
    distinct equation e-_i a + e+_i c + f_i d = b of level i decides the
    level.  The first failing equation in the table's order first occurs
    at the first failing column y: that column holds a failing equation,
    whose first column fails too, so comes no earlier than y.  The
    witness is y, and the residual is its column of the identity's left
    side minus its right side, as a full-length list of Fractions.
    """
    _require_bipartite(split)
    ctx = split.ctx
    if params.eps != ctx.eccentricity:
        raise ValueError(
            f"parameter length {params.eps} != eccentricity {ctx.eccentricity}"
        )
    for i, table in _equation_table(split).items():
        em, ep, f = params.em(i), params.ep(i), params.fi(i)
        for (a, c, d, b), y in table.items():
            if em * a + ep * c + f * d != b:
                return UniformCheck(False, i, y, _residual(split, y, em, ep, f))
    return UniformCheck(True)


def _residual(split: LFRSplit, y: int, em, ep, f) -> list:
    shift = _field_bits(split)
    residual = [Fraction(0)] * split.graph.n
    for z, key in _column(split, y, shift).items():
        a, c, d, b = _unpack(key, shift)
        residual[z] = em * a + ep * c + f * d - b
    return residual


@dataclass
class LevelFit:
    level: int
    solution: object  # UniqueSolution | AffineSolution | Inconsistent
    canonical: Optional[tuple]  # (e-, e+, f) with free coordinates zeroed

    def is_consistent(self) -> bool:
        return not isinstance(self.solution, Inconsistent)


@dataclass
class UniformFit:
    levels: list[LevelFit]
    feasible: bool
    canonical: Optional[UniformParams]


def _solve(equations):
    """Solve the equations (a, c, d | b) for (e-, e+, f)."""
    rows = [list(q[:3]) for q in equations]
    rhs = [Fraction(q[3]) for q in equations]
    eqs = ExactMatrix.from_rows(rows) if rows else ExactMatrix.zeros(0, 3)
    return solve_linear(eqs, rhs)


def fit_uniform(split: LFRSplit) -> UniformFit:
    """Exact affine solution set of (e-_i, e+_i, f_i) per level.

    The conventions pin the e-_1 and e+_eps coordinates to zero.  An
    empty set at any level means no uniform structure exists.  The
    canonical representative zeroes the free coordinates of the reduced
    system.
    """
    _require_bipartite(split)
    eps = split.ctx.eccentricity
    fits: list[LevelFit] = []
    for i, table in _equation_table(split).items():
        pins = [(1, 0, 0, 0)] * (i == 1) + [(0, 1, 0, 0)] * (i == eps)
        sol = _solve([*table, *pins])
        if isinstance(sol, Inconsistent):
            canonical = None
        elif isinstance(sol, UniqueSolution):
            canonical = tuple(sol.x)
        else:
            canonical = tuple(sol.particular)
        fits.append(LevelFit(i, sol, canonical))
    feasible = all(fit.canonical is not None for fit in fits)
    params = None
    if feasible:
        params = UniformParams(*zip(*(fit.canonical for fit in fits)))
    return UniformFit(fits, feasible, params)


def fit_uniform_constant(split: LFRSplit) -> Optional[UniformParams]:
    """Fit a level-independent triple (e-, e+, f) across all levels.

    The conventions e-_1 = 0 and e+_eps = 0 enforce themselves: the
    coefficient of e- vanishes identically on level 1 (L^2 annihilates
    it) and that of e+ on level eps.  Returns None when no constant
    uniform structure exists; with free coordinates remaining, they are
    zeroed as in the per-level fit.
    """
    _require_bipartite(split)
    tables = _equation_table(split).values()
    sol = _solve(dict.fromkeys(q for table in tables for q in table))
    if isinstance(sol, Inconsistent):
        return None
    triple = sol.x if isinstance(sol, UniqueSolution) else sol.particular
    return UniformParams.constant(split.ctx.eccentricity, *triple)


# -- x-scalars ------------------------------------------------------------------


def solve_x_scalars(params: UniformParams, r: int, d: int) -> list[Fraction]:
    """Solve U(r,d) x = (f_{r+1}, ..., f_{r+d}) over the principal block
    with rows and columns r+1..r+d."""
    if not (r >= 0 and d >= 1 and r + d <= params.eps):
        raise ValueError(f"invalid (r, d) = ({r}, {d}) for eps = {params.eps}")
    u = parameter_matrix(params)
    block = ExactMatrix.from_rows(
        [[u[(i, j)] for j in range(r, r + d)] for i in range(r, r + d)]
    )
    rhs = [params.fi(r + i) for i in range(1, d + 1)]
    sol = solve_linear(block, rhs)
    if not isinstance(sol, UniqueSolution):
        raise ArithmeticError(
            f"U({r},{d}) is singular; parameter matrix is invalid"
        )
    return [Fraction(x) for x in sol.x]


def closed_form_x(b, e, D: int, d: int, i: int) -> Fraction:
    """x_{r+i} = -b^(D+e) (b^(i-d-1) - 1)(b^i - 1)/(b - 1)^2.

    Independent of the endpoint r.  Requires b^(D+e) rational.
    """
    if not (1 <= i <= d):
        raise ValueError(f"need 1 <= i <= d, got i={i}, d={d}")
    b = Fraction(b)
    power = rational_power(b, Fraction(e) + D)
    if not isinstance(power, (int, Fraction)):
        raise ValueError(f"b^(D+e) = {b}^({D}+{e}) is irrational")
    return Fraction(
        -power * (b ** (i - d - 1) - 1) * (b ** i - 1) / (b - 1) ** 2
    )


# -- thin module decomposition ---------------------------------------------------


@dataclass
class TModule:
    """A thin module's chain w_r, ..., w_{r+d}: ``basis[i]`` is w_{r+i}, a
    primitive integer vector over the coordinates of level r+i, listed
    in ``ctx.levels[r + i]`` order."""

    endpoint: int
    diameter: int
    basis: list[list]  # w_r .. w_{r+d}, level-local
    x_scalars: list[Fraction]  # x_{r+1} .. x_{r+d}


@dataclass
class Decomposition:
    modules: list[TModule]
    vertex_count: int

    def types(self) -> dict[tuple[int, int], tuple[list[Fraction], int]]:
        """(r, d) -> (x-scalars, multiplicity) per module type, sorted;
        the x-scalars are solved once per (r, d) at each endpoint, for
        the eigenvalues of L R there, so modules of a type share them."""
        table: dict[tuple[int, int], tuple[list[Fraction], int]] = {}
        for m in self.modules:
            key = (m.endpoint, m.diameter)
            x, count = table.get(key, (m.x_scalars, 0))
            table[key] = (x, count + 1)
        return dict(sorted(table.items()))

    def multiplicities(self) -> dict[tuple[int, int], int]:
        return {key: count for key, (_, count) in self.types().items()}

    def to_json(self) -> list:
        return [{"r": r, "d": d, "x": [str(v) for v in x],
                 "multiplicity": count}
                for (r, d), (x, count) in self.types().items()]


def module_rep_matrix(module: TModule) -> ExactMatrix:
    """Tridiagonal action of A on the module chain basis: superdiagonal
    ones, subdiagonal x-scalars."""
    d = module.diameter
    m = ExactMatrix.zeros(d + 1, d + 1)
    for i in range(d):
        m.entries[i * (d + 1) + i + 1] = 1
        m.entries[(i + 1) * (d + 1) + i] = module.x_scalars[i]
    return m


def _kernel_of_lowering(split: LFRSplit, r: int) -> list[list]:
    """Basis of ker L restricted to level r, as primitive integer
    vectors over level r."""
    if r == 0:
        return [[1]]
    level, pos = split.ctx.levels[r], split.ctx.position
    rows = [[0] * len(level) for _ in range(split.size(r - 1))]
    for col, y in enumerate(level):
        for z in split.down[y]:
            rows[pos[z]][col] = 1
    return nullspace(ExactMatrix.from_rows(rows))


def decompose_modules(split: LFRSplit, params: UniformParams) -> Decomposition:
    """Split the standard module into thin irreducible module chains.

    For each endpoint r, the generators are the eigenvectors of L R on
    ker L at level r (checked to map it into itself) for the eigenvalues
    0 and x_{r+1}(r, d), 1 <= d <= eps - r.  A generator's diameter is
    the exact length of its raising chain and must agree with its
    eigenvalue.  Chains are normalised with the solved x-scalars and
    every chain relation is re-verified exactly.  Every vector is kept
    over the coordinates of its own level.

    This certifies the direct sum.  Eigenvectors for distinct eigenvalues
    are independent, and so is each eigenspace basis; together they must
    span ker L.  Given a dependency among the chain vectors on level j
    with least endpoint r0, L^(j-r0) kills the chains of larger endpoint
    (L w_r = 0) and maps those of endpoint r0 to their generators
    (L w_{r+i} = w_{r+i-1}), which are independent; with the dimensions
    summing to n, the chains form a basis.  The verification of the
    parameters reads the split's equation table.  Modules come ordered
    by endpoint, then by increasing diameter.

    The same argument skips the elimination for ker L where the chains
    already fill a level.  When the chains of endpoints r0 < r with
    r0 + d >= r have as many vectors on level r as it has vertices, those
    vectors are independent, as above, so they are a basis of level r.
    L maps each of them, w_{r0+i} with i >= 1, to the chain vector
    w_{r0+i-1} on level r-1 (checked by _assert_chain), and those images
    are independent again.  So L is injective on level r, ker L is 0
    there, and level r has no generators.
    """
    check = verify_uniform(split, params)
    if not check.passed:
        raise ValueError(
            f"uniform verification failed at level {check.level}; "
            "decomposition requires a uniform structure"
        )
    eps = split.ctx.eccentricity
    n = split.graph.n
    chains: list[TModule] = []
    for r in range(eps + 1):
        if _chains_fill_level(split, chains, r):
            continue
        kernel = _kernel_of_lowering(split, r)
        if not kernel:
            continue
        xs = {d: solve_x_scalars(params, r, d) for d in range(1, eps - r + 1)}
        lr, scales = _lowering_raising(split, r, kernel)
        before = len(chains)
        for value in dict.fromkeys([0] + [x[0] for x in xs.values()]):
            # (M_r - value I) c = 0 with row i scaled by q s_i, value = p/q
            shifted = [[value.denominator * u for u in row] for row in lr]
            for i, s in enumerate(scales):
                shifted[i][i] -= value.numerator * s
            for coords in nullspace(ExactMatrix.from_rows(shifted)):
                gen = [0] * len(kernel[0])
                for c, v in zip(coords, kernel):
                    if c:
                        gen = [g + c * s for g, s in zip(gen, v)]
                chains.append(_build_chain(split, r, gen, xs, value))
        if len(chains) - before != len(kernel):
            raise ArithmeticError(
                f"L R on ker L at level {r} has eigenspaces spanning "
                f"{len(chains) - before} of {len(kernel)} dimensions"
            )
    total = sum(m.diameter + 1 for m in chains)
    if total != n:
        raise ArithmeticError(
            f"module dimensions sum to {total}, expected {n}"
        )
    chains.sort(key=lambda m: (m.endpoint, m.diameter))
    return Decomposition(chains, n)


def _chains_fill_level(split: LFRSplit, chains: list[TModule],
                       r: int) -> bool:
    """Whether the chains of endpoints below r have as many vectors on
    level r as it has vertices, which makes ker L 0 there."""
    return sum(m.endpoint + m.diameter >= r for m in chains) == split.size(r)


def _lowering_raising(split: LFRSplit, r: int, kernel: list[list]) -> tuple:
    """M_r, L R on ker L at level r in kernel coordinates, as integers:
    each kernel vector v_i is alone nonzero at some column f_i (nullspace
    gives it its free column), so once L (L R v_j) = 0 is checked, M_r
    has entries U[i][j] / s_i with U[i][j] = (L R v_j)[f_i] and
    s_i = v_i[f_i].  Returns U and the s_i."""
    owners = Counter(j for v in kernel for j, s in enumerate(v) if s)
    free = [next(j for j, s in enumerate(v) if s and owners[j] == 1)
            for v in kernel]
    images = [split.lower(r + 1, split.raise_(r, v)) for v in kernel]
    if any(any(split.lower(r, u)) for u in images):
        raise ArithmeticError(
            f"L R does not map ker L on level {r} into itself")
    return ([[u[f] for u in images] for f in free],
            [v[f] for v, f in zip(kernel, free)])


def _build_chain(split: LFRSplit, r: int, gen: list, xs: dict,
                 value: Fraction) -> TModule:
    """The chain w_{r+i} = R^i gen / (x_{r+1} ... x_{r+i}), d the raising
    length of gen and x = xs[d], whose x_{r+1} (0 for d = 0) must be the
    eigenvalue; scaled by one integer to integer vectors of content 1
    (the relations are linear, so a common factor keeps them)."""
    raised = [gen]
    while any(top := split.raise_(r + len(raised) - 1, raised[-1])):
        raised.append(top)
    d = len(raised) - 1
    x = xs[d] if d else []
    if (x[0] if x else 0) != value:
        raise ArithmeticError(
            f"generator of diameter {d} at r = {r} has L R eigenvalue "
            f"{value}, not x_{r + 1}({r}, {d})")
    if any(v == 0 for v in x):
        raise ArithmeticError(
            f"x-scalar vanishes mid-chain for (r, d) = ({r}, {d})"
        )
    scales = [Fraction(1)]
    for xi in x:
        scales.append(scales[-1] / xi)
    common = lcm(*(s.denominator for s in scales))
    factors = [int(s * common) for s in scales]
    chain = [[c * v for v in u] for c, u in zip(factors, raised)]
    content = gcd(*(v for w in chain for v in w))
    chain = [[v // content for v in w] for w in chain]
    _assert_chain(split, r, chain, x)
    return TModule(r, d, chain, x)


def _assert_chain(split: LFRSplit, r: int, basis: list, x: list) -> None:
    """Re-verify every chain relation; failures signal internal bugs."""
    d = len(basis) - 1
    for i, w in enumerate(basis):
        if len(w) != split.size(r + i):
            raise ArithmeticError("chain vector leaves its level")
    if any(split.lower(r, basis[0])):
        raise ArithmeticError("chain generator is not in ker L")
    for i in range(1, d + 1):
        if split.lower(r + i, basis[i]) != basis[i - 1]:
            raise ArithmeticError("lowering does not step down the chain")
    if any(split.raise_(r + d, basis[d])):
        raise ArithmeticError("raising does not vanish at the chain top")
    # chain-derived x-scalars: L R w_{r+i-1} = x_{r+i} w_{r+i-1}
    for i in range(1, d + 1):
        w = basis[i - 1]
        u = split.lower(r + i, split.raise_(r + i - 1, w))
        lead = next(idx for idx, v in enumerate(w) if v != 0)
        ratio = Fraction(u[lead], w[lead])
        if ratio != x[i - 1]:
            raise ArithmeticError(
                "chain-derived x-scalar disagrees with the linear system"
            )
        p, q = ratio.numerator, ratio.denominator
        if any(uv * q != p * wv for uv, wv in zip(u, w)):
            raise ArithmeticError("L R is not scalar on the chain vector")
