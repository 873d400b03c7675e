"""Graph family generators: dual polar graphs, hypercubes, Hamming graphs.

Dual polar graphs are built from scratch over prime fields: vertices
are the maximal totally isotropic subspaces of a form space over F_p,
adjacent when they intersect in codimension 1.  Two families are
generated here:

* C_D(p): dimension 2D, symplectic form with Gram pairs <e_i, f_i> = 1;
* B_D(p): dimension 2D+1 (odd p), quadratic form x_0^2 + sum x_i x_{D+i}.

Each family is distance-regular with intersection numbers

    b_i = p^(i+e) (p^(D-i) - 1)/(p - 1),
    c_i = (p^i - 1)/(p - 1),
    a_i = (p^e - 1)(p^i - 1)/(p - 1),

with e = 1 for both generated families.  ``intersection_numbers``
re-derives the arrays observationally from the graph, the reference the
generators are tested against; ``expected_intersection_numbers`` accepts
rational e so the formulas of the Hermitean families remain evaluable
even though no generator produces those graphs.

The graph is built from each vertex's neighbours, at a cost of
O(n * degree) subspace steps rather than a rank test of every pair.  Two
maximal isotropic subspaces are adjacent exactly when they meet in a
hyperplane, so the neighbours of M through a hyperplane H of M are the
subspaces H + <v>, one for each isotropic point <v> of H^perp/H other
than M/H (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, §9.4).
H^perp/H is 2-dimensional for C, and all p + 1 of its points are
isotropic; for B it is 3-dimensional, and p + 1 of its points lie on a
conic.  A breadth-first search from one subspace reaches every vertex;
each construction is rechecked (vertex count, total isotropy, degree,
and every edge found from both ends) and a failure is an
ArithmeticError.

Subspaces are canonicalised by reduced row echelon form, so the search
order cannot affect the vertex set, and vertices are emitted in sorted
canonical order for reproducibility.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import prod
from typing import Optional, Sequence

from .graphs import Graph, bfs_context
from .linalg import _is_prime
from .scalars import Scalar, rational_power

SIZE_CAP = 5000


class SizeCapError(ValueError):
    """Requested instance exceeds the desk-scale vertex cap."""


def _check_size(name: str, factors) -> int:
    """The vertex count, a product of integer factors >= 1.  It stops
    multiplying once the count passes SIZE_CAP, so an instance far over
    the cap is rejected at once, without its exact count."""
    count = 1
    for k in factors:
        count *= k
        if count > SIZE_CAP:
            raise SizeCapError(
                f"{name} has more than {SIZE_CAP} vertices, the generators' "
                f"cap (SIZE_CAP)")
    return count


@dataclass(frozen=True)
class FormSpec:
    family: str  # "C" (symplectic) or "B" (odd-dimensional quadratic)
    D: int
    p: int

    def __post_init__(self):
        if self.family not in ("C", "B"):
            raise ValueError(f"unsupported family {self.family!r}")
        if self.D < 2:
            raise ValueError("need diameter D >= 2")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime (prime fields only)")
        if self.family == "B" and self.p == 2:
            raise ValueError("family B requires an odd prime")

    @property
    def dim(self) -> int:
        return 2 * self.D if self.family == "C" else 2 * self.D + 1

    def vertex_count(self) -> int:
        return prod(self.count_factors())

    def count_factors(self):
        """The factors p^i + 1, 1 <= i <= D, of the vertex count."""
        return (self.p ** i + 1 for i in range(1, self.D + 1))

    def degree(self) -> int:
        return self.p * (self.p ** self.D - 1) // (self.p - 1)

    def bilinear(self, u, v) -> int:
        p, D = self.p, self.D
        if self.family == "C":
            acc = 0
            for i in range(D):
                acc += u[i] * v[D + i] - u[D + i] * v[i]
            return acc % p
        # polarisation of Q(x) = x_0^2 + sum x_i x_{D+i}
        acc = 2 * u[0] * v[0]
        for i in range(1, D + 1):
            acc += u[i] * v[D + i] + u[D + i] * v[i]
        return acc % p

    def quadratic(self, v) -> Optional[int]:
        if self.family == "C":
            return None
        acc = v[0] * v[0]
        for i in range(1, self.D + 1):
            acc += v[i] * v[self.D + i]
        return acc % self.p

    def is_isotropic_vector(self, v) -> bool:
        q = self.quadratic(v)
        return q is None or q == 0

    def start(self) -> tuple[tuple[int, ...], ...]:
        """A maximal isotropic subspace in RREF: span(e_0..e_{D-1}) for C,
        span(e_1..e_D) for B."""
        shift = 0 if self.family == "C" else 1
        return tuple(
            tuple(1 if c == i + shift else 0 for c in range(self.dim))
            for i in range(self.D)
        )


# -- F_p subspace helpers -----------------------------------------------------


def _rref_mod(rows: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon form over F_p (zero rows dropped)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col] % p:
                f = mat[i][col] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r])


def _dual_vectors(spec: FormSpec, rows, pivots):
    """Vectors u_j with B(rows[i], u_j) = [i == j], plus (family B) a
    vector z spanning M^perp modulo M, all zero on the pivot columns.

    The coordinate subspace off the pivots is a complement of M = span(rows),
    so the pairing of M with it has rank D; for B it also meets M^perp in
    the line spanned by z.
    """
    p, D = spec.p, spec.D
    free = [c for c in range(spec.dim) if c not in pivots]
    unit = [0] * spec.dim
    gram = []
    for i, r in enumerate(rows):
        row = []
        for c in free:
            unit[c] = 1
            row.append(spec.bilinear(r, unit))
            unit[c] = 0
        gram.append(row + [int(i == j) for j in range(D)])
    rref = _rref_mod(gram, p)
    lead = [next(c for c, x in enumerate(row) if x) for row in rref]
    if lead[-1] >= len(free):
        raise ArithmeticError("subspace does not pair nondegenerately")
    us = []
    for j in range(D):
        u = [0] * spec.dim
        for row, c in zip(rref, lead):
            u[free[c]] = row[len(free) + j]
        us.append(u)
    z = None
    if len(free) > D:
        (f,) = [c for c in range(len(free)) if c not in lead]
        z = [0] * spec.dim
        z[free[f]] = 1
        for row, c in zip(rref, lead):
            z[free[c]] = -row[f] % p
    return us, z


def _insert_row(rows, lead_cols, v, p):
    """RREF of rows + [v], for rows in RREF with pivots lead_cols and v
    nonzero and zero on those pivots."""
    lead = next(c for c, x in enumerate(v) if x)
    inv = pow(v[lead], p - 2, p)
    v = tuple(x * inv % p for x in v)
    out = [
        tuple((a - r[lead] * b) % p for a, b in zip(r, v)) if r[lead] else r
        for r in rows
    ]
    out.insert(bisect_left(lead_cols, lead), v)
    return tuple(out)


def _neighbours(spec: FormSpec, rows) -> list[tuple[tuple[int, ...], ...]]:
    """The maximal isotropic subspaces meeting M = span(rows) in a
    hyperplane, each in RREF.

    A hyperplane H of M is the kernel of a functional a on the RREF
    coordinates, scaled so its last nonzero entry a_k is 1; then
    H = span(r_i - a_i r_k (i < k), r_i (i > k)) is already in RREF and
    H^perp = M^perp + <w> with w = sum a_j u_j.  The neighbours through H
    are H + <v> for the isotropic points <v> of H^perp/H other than M/H:
    v = w + t r_k for C, and v = alpha r_k + beta z + w with
    Q(v) = 0, i.e. alpha = -(beta^2 Q(z) + Q(w) + beta B(z, w)), for B.
    """
    p, D = spec.p, spec.D
    pivots = [next(c for c, x in enumerate(r) if x) for r in rows]
    us, z = _dual_vectors(spec, rows, pivots)
    u_cols = list(zip(*us))
    if z is not None:
        qz = spec.quadratic(z)
    out = []
    for k in range(D):
        rk = rows[k]
        h_pivots = pivots[:k] + pivots[k + 1:]
        for prefix in product(range(p), repeat=k):
            a = prefix + (1,)
            h = tuple(
                tuple((x - ai * y) % p for x, y in zip(rows[i], rk)) if ai else rows[i]
                for i, ai in enumerate(prefix)
            ) + rows[k + 1:]
            w = [sum(aj * uj for aj, uj in zip(a, col)) % p for col in u_cols]
            if z is None:
                vs = [[(x + t * y) % p for x, y in zip(w, rk)] for t in range(p)]
            else:
                qw, bzw = spec.quadratic(w), spec.bilinear(z, w)
                vs = []
                for beta in range(p):
                    alpha = -(beta * beta * qz + qw + beta * bzw)
                    vs.append([(alpha * x + beta * y + c) % p
                               for x, y, c in zip(rk, z, w)])
            out.extend(_insert_row(h, h_pivots, v, p) for v in vs)
    return out


def dual_polar(spec: FormSpec) -> tuple[Graph, list]:
    """Dual polar graph of the given form space, plus subspace labels.

    Vertices are maximal totally isotropic subspaces in sorted canonical
    order; adjacency is intersection in dimension D - 1.  The graph is
    grown breadth-first from one subspace by writing down each vertex's
    neighbours (see ``_neighbours``), then relabelled in sorted order.
    """
    expected = _check_size(f"{spec.family}_{spec.D}({spec.p})",
                           spec.count_factors())
    degree = spec.degree()
    subspaces = [spec.start()]
    index = {subspaces[0]: 0}
    adj: list[set[int]] = []
    # the list grows while it is read, so this is a breadth-first search
    for i, rows in enumerate(subspaces):
        if len(subspaces) > expected:
            break
        nbrs = []
        for nb in _neighbours(spec, rows):
            j = index.get(nb)
            if j is None:
                j = index[nb] = len(subspaces)
                subspaces.append(nb)
            nbrs.append(j)
        distinct = set(nbrs) - {i}
        if len(nbrs) != degree or len(distinct) != degree:
            raise ArithmeticError(
                f"subspace {i} has {len(distinct)} distinct neighbours "
                f"in a list of {len(nbrs)}, expected {degree}"
            )
        adj.append(distinct)
    if len(subspaces) != expected:
        raise ArithmeticError(
            f"found {len(subspaces)} maximal isotropic subspaces, "
            f"expected {expected}"
        )
    # post-construction recheck: every subspace totally isotropic
    for rows in subspaces:
        for i, u in enumerate(rows):
            if not spec.is_isotropic_vector(u):
                raise ArithmeticError("non-isotropic basis vector")
            for v in rows[i:]:
                if spec.bilinear(u, v) != 0:
                    raise ArithmeticError("subspace is not totally isotropic")
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if u not in adj[v]:
                raise ArithmeticError(
                    f"edge ({u},{v}) was found from subspace {u} only"
                )
    order = sorted(range(expected), key=subspaces.__getitem__)
    rank = [0] * expected
    for new, old in enumerate(order):
        rank[old] = new
    g = Graph(expected, [[rank[v] for v in adj[old]] for old in order])
    labels = [[list(row) for row in subspaces[old]] for old in order]
    return g, labels


def hamming(D: int, n: int) -> tuple[Graph, list]:
    """Hamming graph H(D, n): length-D words over n symbols, adjacency at
    Hamming distance 1."""
    if D < 2 or n < 2:
        raise ValueError("need D >= 2 and n >= 2")
    _check_size(f"H({D},{n})", repeat(n, D))
    words = list(product(range(n), repeat=D))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for i, w in enumerate(words):
        for pos in range(D):
            for s in range(w[pos] + 1, n):
                w2 = w[:pos] + (s,) + w[pos + 1:]
                edges.append((i, index[w2]))
    g = Graph.from_edges(len(words), sorted(edges))
    return g, [list(w) for w in words]


def hypercube(D: int) -> tuple[Graph, list]:
    if D < 2:
        raise ValueError("need D >= 2")
    return hamming(D, 2)


# -- distance-regularity and intersection numbers -----------------------------


def expected_intersection_numbers(b, e, D: int) -> tuple[tuple, tuple, tuple]:
    """(c, a, b) arrays indexed 0..D from the dual polar closed forms.

    Accepts rational e; values may land in a quadratic extension when
    b**e is irrational (in which case they cannot match an actual
    graph's integer counts, and comparisons report that faithfully).
    """
    if b < 2:
        raise ValueError("need b >= 2")
    b = Fraction(b)
    e = Fraction(e)
    be: Scalar = rational_power(b, e)
    cs: list[Scalar] = [Fraction(0)]
    as_: list[Scalar] = [Fraction(0)]
    bs: list[Scalar] = []
    for i in range(1, D + 1):
        cs.append((b ** i - 1) / (b - 1))
        as_.append((be - 1) * (b ** i - 1) / (b - 1))
    for i in range(0, D):
        bs.append(be * b ** i * (b ** (D - i) - 1) / (b - 1))
    bs.append(Fraction(0))
    return tuple(cs), tuple(as_), tuple(bs)


def intersection_numbers(g: Graph) -> tuple[tuple, tuple, tuple]:
    """The observed intersection arrays (c, a, b), indexed 0..diameter,
    of a distance-regular graph; ValueError with the first inconsistency
    when g is not distance-regular.  Compare the result with
    ``expected_intersection_numbers``.
    """
    diam = None
    c_obs: dict[int, int] = {}
    a_obs: dict[int, int] = {}
    b_obs: dict[int, int] = {}

    for v in range(g.n):
        ctx = bfs_context(g, v)
        if diam is None:
            diam = ctx.eccentricity
        elif ctx.eccentricity != diam:
            raise ValueError(
                f"eccentricity differs between vertices 0 and {v}")
        dist = ctx.dist
        for y in range(g.n):
            i = dist[y]
            nc = na = nb = 0
            for w in g.adj[y]:
                dw = dist[w]
                if dw == i - 1:
                    nc += 1
                elif dw == i:
                    na += 1
                else:
                    nb += 1
            for store, val in ((c_obs, nc), (a_obs, na), (b_obs, nb)):
                if store.setdefault(i, val) != val:
                    raise ValueError(
                        f"parameter at distance {i} is not constant "
                        f"(base {v}, vertex {y})")

    return tuple(tuple(store[i] for i in range(diam + 1))
                 for store in (c_obs, a_obs, b_obs))
