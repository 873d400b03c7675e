"""Uniform structures on bipartite graphs and thin module decomposition.

A uniform structure relative to a base vertex is a triple of per-level
scalars (e-_i, e+_i, f_i) such that the operator identity

    e-_i R L^2 + L R L + e+_i L^2 R = f_i L

holds on the i-th subconstituent for every level 1 <= i <= eps, with the
conventions e-_1 = 0 and e+_eps = 0.  The scalars assemble into the
tridiagonal parameter matrix U (unit diagonal, subdiagonal e-, super-
diagonal e+) whose contiguous principal blocks must all be nonsingular;
the verification checks these conditions once the identity holds.

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
constant fit and the verification all read it; so does the check of a
dual adjacency candidate (``uniformq.candidate.verify_relation``),
whose relation combines the same four walk counts.

A module chain is raised from its generator g once and kept as its
raised vectors b_i = R^i g, so w_{r+i} = b_i / (x_{r+1} ... x_{r+i});
the chain check reads the relations off those vectors, L b_0 = 0,
L b_i = x_{r+i} b_{i-1} and R b_d = 0, with nothing rescaled.  The
generators at an endpoint r are pivot images: the images under L R of
the kernel vectors at the pivot columns of L R on ker L, and where one
of those mixes eigenvalues, their images under one polynomial filter in
L R per candidate eigenvalue, again at pivot columns.  Only the chains
of diameter >= 1 are built; no stage reads a basis, so the modules of
diameter 0 are counted, not built (``decompose_modules``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Optional

from .graphs import LFRSplit
from .linalg import (
    ExactMatrix,
    nullspace,
    pivot_columns,
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
    def from_json(data) -> "UniformParams":
        """A JSON object whose keys e_minus, e_plus and f each hold a list
        of strings such as "-9/4" and integers; anything else, another
        JSON value, a missing key, a float or boolean in a list, or a zero
        denominator ("1/0"), is a ValueError, since a float need not be
        the rational it reads as (-0.1 is not -1/10)."""
        keys = ("e_minus", "e_plus", "f")
        if not isinstance(data, dict):
            raise ValueError(f"parameters {data!r} are not a JSON object "
                             f"with the keys {', '.join(keys)}")
        missing = [key for key in keys if key not in data]
        if missing:
            raise ValueError(f"parameters lack the key(s) {', '.join(missing)}")
        return UniformParams(*(_exact_list(data[key]) for key in keys))


def _exact_list(values) -> tuple:
    if not isinstance(values, list):
        raise ValueError(f"parameters {values!r} are not a list")
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (str, int)):
            raise ValueError(f"parameter {x!r} is not a string or an integer")
    return tuple(map(_exact, values))


def _exact(x) -> Fraction:
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"parameter {x!r} has a zero denominator") from None


def validate_parameter_matrix(params: UniformParams) -> Optional[str]:
    """Check the parameter matrix conditions exactly: the reason the
    first one fails, or None when the matrix is valid.

    (i) unit diagonal is structural; (ii) for each 2 <= i <= eps at
    least one of e-_i, e+_{i-1} is nonzero; (iii) every contiguous
    principal block is nonsingular: for each s, the leading pivots of
    U(s..eps) (``_pivots``) are nonzero, the first zero one at t being
    the first singular block (s..t).  The 2 x 2 blocks (i..i+1) give the
    paper's derived consequence e+_i e-_{i+1} != 1; candidate synthesis
    rejects its failure at step 1, for parameters never validated here.
    """
    eps = params.eps
    for i in range(2, eps + 1):
        if params.em(i) == 0 and params.ep(i - 1) == 0:
            return f"e-_{i} and e+_{i - 1} both vanish"
    for s in range(1, eps + 1):
        for t, pivot in enumerate(_pivots(params, s, eps), s):
            if not pivot:
                return f"principal block ({s}..{t}) is singular"
    return None


def _pivots(params: UniformParams, s: int, t: int):
    """The leading pivots m_s, m_{s+1}, ... of the block U(s..t) of the
    parameter matrix, m_k = det U(s..k) / det U(s..k-1): m_s = 1 and
    m_k = 1 - e-_k e+_{k-1} / m_{k-1}.  Stops at the first zero pivot,
    which it yields: there U(s..k) is singular."""
    pivot = Fraction(1)
    yield pivot
    for k in range(s + 1, t + 1):
        pivot = 1 - params.em(k) * params.ep(k - 1) / pivot
        yield pivot
        if not pivot:
            return


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
    reason: Optional[str] = None  # why the parameter matrix is invalid


def verify_uniform(split: LFRSplit, params: UniformParams) -> UniformCheck:
    """Check the identity on every standard basis vector of every level.

    Linearity makes the standard basis sufficient, and each column's
    entries are equations of the split's table, so checking each
    distinct equation e-_i a + e+_i c + f_i d = b of level i decides the
    level.  The first failing equation in the table's order first occurs
    at the first failing column y: that column holds a failing equation,
    whose first column fails too, so comes no earlier than y.  The
    witness is y.

    Where the identity holds, the parameter matrix must also meet the
    conditions of ``validate_parameter_matrix``; otherwise the check
    fails with no level and the validator's reason.
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
                return UniformCheck(False, i, y)
    reason = validate_parameter_matrix(params)
    return UniformCheck(reason is None, reason=reason)


@dataclass
class UniformFit:
    # level i at index i - 1: solve_linear's (particular, basis) for
    # (e-_i, e+_i, f_i), or None when the level has no solution
    levels: list[Optional[tuple]]
    canonical: Optional[UniformParams]  # None when some level has no fit


def _solve(equations):
    """Solve the equations (a, c, d | b) for (e-, e+, f)."""
    rows = [list(q[:3]) for q in equations]
    rhs = [Fraction(q[3]) for q in equations]
    eqs = ExactMatrix.from_rows(rows) if rows else ExactMatrix.zeros(0, 3)
    return solve_linear(eqs, rhs)


def fit_uniform(split: LFRSplit) -> UniformFit:
    """Exact affine solution set of (e-_i, e+_i, f_i) per level, as
    ``solve_linear`` returns it.

    The conventions pin the e-_1 and e+_eps coordinates to zero.  An
    empty set (None) at any level means no uniform structure exists.
    The canonical representative is each level's particular solution,
    which zeroes the free coordinates of the reduced system.
    """
    _require_bipartite(split)
    eps = split.ctx.eccentricity
    fits = []
    for i, table in _equation_table(split).items():
        pins = [(1, 0, 0, 0)] * (i == 1) + [(0, 1, 0, 0)] * (i == eps)
        fits.append(_solve([*table, *pins]))
    params = None
    if None not in fits:
        params = UniformParams(*zip(*(sol[0] for sol in fits)))
    return UniformFit(fits, params)


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
    if sol is None:
        return None
    return UniformParams.constant(split.ctx.eccentricity, *sol[0])


# -- x-scalars ------------------------------------------------------------------


def solve_x_scalars(params: UniformParams, r: int, d: int) -> list[Fraction]:
    """Solve U(r,d) x = (f_{r+1}, ..., f_{r+d}) over the principal block
    with rows and columns r+1..r+d: a forward sweep over its leading
    pivots (``_pivots``), then back substitution.  A zero pivot, a
    singular leading block, is an ArithmeticError even where U(r,d)
    itself is nonsingular, since the parameter matrix is then invalid."""
    if not (r >= 0 and d >= 1 and r + d <= params.eps):
        raise ValueError(f"invalid (r, d) = ({r}, {d}) for eps = {params.eps}")
    levels = range(r + 1, r + d + 1)
    pivots = list(_pivots(params, r + 1, r + d))
    if not pivots[-1]:
        raise ArithmeticError(
            f"principal block ({r + 1}..{r + len(pivots)}) of U({r},{d}) "
            "is singular; parameter matrix is invalid")
    y = [params.fi(r + 1)]  # the right side with U's subdiagonal swept out
    for k, pivot in zip(levels[1:], pivots):
        y.append(params.fi(k) - params.em(k) * y[-1] / pivot)
    x = [Fraction(0)]  # x_{r+d+1}, past the block
    for k, pivot, yk in zip(reversed(levels), reversed(pivots), reversed(y)):
        x.append((yk - params.ep(k) * x[-1]) / pivot)
    return x[:0:-1]


def closed_form_x(b, e, D: int, d: int, i: int) -> Fraction:
    """x_{r+i} = -b^(D+e) (b^(i-d-1) - 1)(b^i - 1)/(b - 1)^2.

    Independent of the endpoint r.  Requires b^(D+e) rational.
    """
    if b < 2:
        raise ValueError("need b >= 2")
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
    """A thin module as its raised chain: ``basis[i]`` is R^i w_r, a
    vector over the coordinates of level r+i, listed in
    ``ctx.levels[r + i]`` order, for an integer generator w_r.  It is
    the chain w_r, ..., w_{r+d} with w_{r+i} scaled by
    x_{r+1} ... x_{r+i}, so L basis[i] = x_{r+i} basis[i-1]."""

    endpoint: int
    diameter: int
    basis: list[list]  # w_r, R w_r, .., R^d w_r, level-local
    x_scalars: list[Fraction]  # x_{r+1} .. x_{r+d}


@dataclass
class Decomposition:
    """The built chains, ordered by endpoint, then by diameter, and the
    modules that are counted rather than built: ``counted[r]`` modules of
    type (r, 0).  ``decompose_modules`` builds the chains of diameter
    >= 1 only; no stage reads a basis, only the types."""

    modules: list[TModule]
    counted: dict[int, int]

    def types(self) -> dict[tuple[int, int], tuple[list[Fraction], int]]:
        """(r, d) -> (x-scalars, multiplicity) per module type, sorted.
        The x-scalars are solved once per (r, d) that a chain reaches,
        and the chains of a type share them; a counted type (r, 0) has
        none."""
        table = {(r, 0): ([], count) for r, count in self.counted.items()}
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


def _kernel_of_lowering(split: LFRSplit, r: int) -> list[list]:
    """Basis of ker L restricted to level r, as primitive integer
    vectors over level r; on level 0, L is 0 x 1 and the basis [[1]]."""
    level, pos = split.ctx.levels[r], split.ctx.position
    rows, cols = split.size(r - 1), len(level)
    entries = [0] * (rows * cols)
    for col, y in enumerate(level):
        for z in split.down[y]:
            entries[pos[z] * cols + col] = 1
    return nullspace(ExactMatrix(rows, cols, entries))


def decompose_modules(split: LFRSplit, params: UniformParams) -> Decomposition:
    """Split the standard module into thin irreducible module chains.

    For each endpoint r < eps, the generators are eigenvectors of M_r,
    L R on ker L at level r (checked to map it into itself), for the
    eigenvalues 0 and x_{r+1}(r, d), 1 <= d <= eps - r.  A generator of
    eigenvalue 0 has R gen = 0, since |R gen|^2 = gen . L R gen with L
    the transpose of R, so it spans a module of diameter 0; those are
    counted and not built.

    One elimination of M_r, in kernel coordinates, gives its rank and
    its pivot columns j.  M_r is self-adjoint on ker L, since
    <L R u, v> = <R u, R v> = <u, L R v>, so ker L is the direct sum of
    ker M_r and im M_r, and im M_r is the sum of the nonzero
    eigenspaces.  So type (r, 0) is counted as dim ker L - rank M_r, and
    the images g_j = L R v_j of the kernel vectors at the pivot columns
    are a basis of im M_r.  When each g_j is, on the graph, an
    eigenvector of L R with a nonzero eigenvalue, the g_j are the other
    generators, and x(r, d) is solved only for the diameters d that
    they reach.  Otherwise (some g_j mixes eigenvalues) every x(r, d) is
    solved, and each distinct nonzero t = x_{r+1}(r, d) gets the filter
    F_t, the product of (q L R - p) over the other nonzero candidates
    p/q.  If every nonzero eigenvalue of M_r is a candidate, F_t is 0 on
    the other eigenspaces and a nonzero scalar on the t-eigenspace, so
    the F_t g_j (in ker L, which L R preserves) span it, and those at
    the pivot columns of their coordinates are a basis of it.  Each must
    be an eigenvector for t on the graph, or M_r has a nonzero
    eigenvalue outside the candidates; generators of distinct
    eigenvalues are independent, and there must be rank M_r of them.

    Every generator g's diameter d is the exact length of its raising
    chain b_i = R^i g; its eigenvalue must be x_{r+1}(r, d), no x-scalar
    may vanish, and the chain is checked on the raised vectors
    themselves, with nothing rescaled: L b_0 = 0, L b_i = x_{r+i} b_{i-1}
    and R b_d = 0 (``_assert_chain``).  Those are the relations of the
    chain w_{r+i} = b_i / (x_{r+1} ... x_{r+i}).  Every vector is kept
    over the coordinates of its own level.

    This certifies the direct sum.  At each endpoint the generators,
    built or counted, are a basis of ker L, as above.  Given a
    dependency among the chain vectors on level j with least endpoint
    r0, L^(j-r0) kills the chains of larger endpoint (L b_0 = 0) and
    maps those of endpoint r0 to nonzero multiples of their generators
    (L b_i = x_{r+i} b_{i-1}, with every x-scalar nonzero), which are
    independent; so no level holds more chain vectors than it has
    vertices, and a level r that the reach(r) built chains of lower
    endpoints r0 < r <= r0 + d overfill is an error.

    One rule counts the levels that need no elimination of ker L.  The
    check that the dimensions sum to n forces every level to hold as
    many independent chain vectors, built or counted, as it has
    vertices: they span it.  L is the transpose of R, so ker L on level
    r is the orthogonal complement of R applied to level r-1, and R
    sends each chain vector there either to 0 (a chain top or a
    generator of diameter 0) or to the next vector of its chain on level
    r, and those are independent.  So dim ker L on level r is size(r) -
    reach(r).  The elimination is needed only for the generators of
    diameter >= 1, and there are none on the top level eps, where
    nothing is raised, nor where reach(r) = size(r), where ker L is 0.
    On those levels the multiplicity of type (r, 0) is size(r) -
    reach(r), with no elimination.

    The structure is verified here even where the caller has verified
    it already (the CLI has): this is a public entry point, and it must
    not certify modules from an unverified structure.  The check reads
    the split's equation table: on Q_9 it takes under 1 % of the
    decomposition (0.19 ms against about 30 ms).
    """
    check = verify_uniform(split, params)
    if not check.passed:
        where = (f"at level {check.level}" if check.reason is None
                 else f"on the parameter matrix: {check.reason}")
        raise ValueError(f"uniform verification failed {where}; "
                         "decomposition requires a uniform structure")
    eps = split.ctx.eccentricity
    x_scalars = cache(lambda r, d: solve_x_scalars(params, r, d))
    chains: list[TModule] = []
    counted: dict[int, int] = {}
    for r in range(eps + 1):
        reach = sum(m.endpoint + m.diameter >= r for m in chains)
        if reach > split.size(r):
            raise ArithmeticError(
                f"{reach} chains reach level {r} of {split.size(r)} vertices")
        if r == eps or reach == split.size(r):
            counted[r] = split.size(r) - reach
            continue
        kernel = _kernel_of_lowering(split, r)
        free, images = _lowering_raising(split, r, kernel)
        gens = _independent(free, images)
        counted[r] = len(kernel) - len(gens)
        starts = [_start(split, r, gen) for gen in gens]
        if not all(value for *_, value in starts):
            values = dict.fromkeys(x_scalars(r, d)[0]
                                   for d in range(1, eps - r + 1))
            starts = _filtered_starts(split, r, free, starts,
                                      list(filter(None, values)))
            if len(starts) != len(gens):
                raise ArithmeticError(
                    f"L R on ker L at level {r} has eigenspaces spanning "
                    f"{counted[r] + len(starts)} of {len(kernel)} dimensions")
        chains.extend(_build_chain(split, r, *start, x_scalars)
                      for start in starts)
    counted = {r: count for r, count in counted.items() if count}
    total = sum(m.diameter + 1 for m in chains) + sum(counted.values())
    if total != split.graph.n:
        raise ArithmeticError(
            f"module dimensions sum to {total}, expected {split.graph.n}"
        )
    chains.sort(key=lambda m: (m.endpoint, m.diameter))
    return Decomposition(chains, counted)


def _lowering_raising(split: LFRSplit, r: int, kernel: list[list]) -> tuple:
    """The coordinate columns of ker L at level r and the images
    L R v_j of its basis, checked to lie in ker L.  Each kernel vector v_i
    is alone nonzero at some column f_i (nullspace gives it its free
    column), so a vector u of ker L is sum_i (u[f_i] / v_i[f_i]) v_i; read
    at the f_i, the images are the columns of M_r, L R on ker L in kernel
    coordinates, with row i scaled by v_i[f_i]."""
    owners = Counter(j for v in kernel for j, s in enumerate(v) if s)
    free = [next(j for j, s in enumerate(v) if s and owners[j] == 1)
            for v in kernel]
    images = [split.lower(r + 1, split.raise_(r, v)) for v in kernel]
    if any(any(split.lower(r, u)) for u in images):
        raise ArithmeticError(
            f"L R does not map ker L on level {r} into itself")
    return free, images


def _independent(free: list, vectors: list[list]) -> list[list]:
    """The vectors of ker L at the pivot columns of their coordinates,
    read at the free columns of the kernel basis: a basis of their span,
    since reading a vector of ker L at those columns is injective."""
    rows = [[u[f] for u in vectors] for f in free]
    return [vectors[j] for j in pivot_columns(ExactMatrix.from_rows(rows))]


def _start(split: LFRSplit, r: int, gen: list) -> tuple:
    """gen, R gen and L R gen for a nonzero gen, computed on the graph,
    and the value t with L R gen = t gen, or None when there is none."""
    up = split.raise_(r, gen)
    low = split.lower(r + 1, up)
    lead = next(j for j, v in enumerate(gen) if v)
    value = Fraction(low[lead], gen[lead])
    p, q = value.numerator, value.denominator
    if any(q * a != p * b for a, b in zip(low, gen)):
        value = None
    return gen, up, low, value


def _filtered_starts(split: LFRSplit, r: int, free: list, starts: list,
                     values: list) -> list[tuple]:
    """The starts of the filtered generators F_t g_j for each candidate
    value t (``decompose_modules``), with F_t evaluated on the Krylov
    vectors (L R)^i g_j; the eigenvector test computed the first two."""
    krylov = [[gen, low] for gen, _, low, _ in starts]
    for _ in range(len(values) - 2):
        for vectors in krylov:
            vectors.append(split.lower(r + 1, split.raise_(r, vectors[-1])))
    out = []
    for value in values:
        coeffs = [1]  # F_value, lowest degree first
        for other in values:
            if other != value:
                p, q = other.numerator, other.denominator
                coeffs = [q * a - p * b
                          for a, b in zip([0] + coeffs, coeffs + [0])]
        filtered = [[sum(map(mul, coeffs, column)) for column in zip(*vectors)]
                    for vectors in krylov]
        for gen in _independent(free, filtered):
            start = _start(split, r, gen)
            if start[-1] != value:
                raise ArithmeticError(
                    f"L R on ker L at level {r} has an eigenvalue other "
                    f"than x_{r + 1}({r}, d): a generator filtered for "
                    f"{value} is no eigenvector of it")
            out.append(start)
    return out


def _build_chain(split: LFRSplit, r: int, gen: list, up: list, low: list,
                 value: Fraction, x_scalars) -> TModule:
    """The raised chain b_i = R^i gen, d the raising length of gen and x
    = x_scalars(r, d), whose x_{r+1} must be value, the nonzero
    eigenvalue of gen, so d >= 1.  up is R gen and low is L up, each
    computed once on the graph; the raising stops at the first zero
    vector, R b_d, which the chain check receives too."""
    raised = [gen, up]
    while any(raised[-1]):
        raised.append(split.raise_(r + len(raised) - 1, raised[-1]))
    d = len(raised) - 2
    x = x_scalars(r, d) if d else None
    if not x or x[0] != value:
        raise ArithmeticError(
            f"generator of diameter {d} at r = {r} has L R eigenvalue "
            f"{value}, not x_{r + 1}({r}, {d})")
    if any(v == 0 for v in x):
        raise ArithmeticError(
            f"x-scalar vanishes mid-chain for (r, d) = ({r}, {d})"
        )
    _assert_chain(split, r, raised, low, x)
    return TModule(r, d, raised[:-1], x)


def _assert_chain(split: LFRSplit, r: int, raised: list, low: list,
                  x: list) -> None:
    """Re-verify every chain relation on the raised vectors; failures
    signal internal bugs.

    raised[i] = R^i gen for 0 <= i <= d + 1, d >= 1, as the raising
    computed them on the graph; low is L raised[1], computed on the
    graph with gen's eigenvalue, and x = (x_{r+1}, ..., x_{r+d}).  Each
    vector has its level's length, L raised[0] = 0, raised[1] = R
    raised[0] on the graph, so that low is L R gen, L raised[i] =
    x_{r+i} raised[i-1] for 1 <= i <= d (on the graph for i >= 2), and
    the raising ends, raised[d+1] = 0.  With w_{r+i} = raised[i] / (x_{r+1}
    ... x_{r+i}) these are L w_r = 0, L w_{r+i} = w_{r+i-1},
    R w_{r+i-1} = x_{r+i} w_{r+i} and R w_{r+d} = 0; so
    L R w_r = x_{r+1} w_r.
    """
    d = len(raised) - 2
    for i, b in enumerate(raised):
        if len(b) != split.size(r + i):
            raise ArithmeticError("chain vector leaves its level")
    if any(split.lower(r, raised[0])):
        raise ArithmeticError("chain generator is not in ker L")
    if split.raise_(r, raised[0]) != raised[1]:
        raise ArithmeticError("chain does not start with the raising of "
                              "its generator")
    for i in range(1, d + 1):
        p, q = x[i - 1].numerator, x[i - 1].denominator
        lowered = low if i == 1 else split.lower(r + i, raised[i])
        if any(q * a != p * b for a, b in zip(lowered, raised[i - 1])):
            raise ArithmeticError("lowering does not step down the chain "
                                  "by the x-scalar")
    if any(raised[d + 1]):
        raise ArithmeticError("raising does not step up the chain to 0 "
                              "past its top")
