"""Dual adjacency matrix candidates: synthesis and exact verification.

Relative to a base vertex, a diagonal matrix A* with mutually distinct
level values theta*_0..theta*_eps is a dual adjacency matrix candidate
when

    A^3 A* - A* A^3 + (beta+1)(A A* A^2 - A^2 A* A)
        = gamma (A^2 A* - A* A^2) + rho (A A* - A* A)

for some scalars beta, gamma, rho; on bipartite graphs gamma is forced
to 0.  One function, ``candidate_search``, synthesises a candidate from
a uniform structure by the six-step procedure, in one pass over the
levels that collects the F-ratios: a level-independent beta from the
parameter ratios, a theta* ladder from the F-ratios, distinctness, a
beta/F compatibility identity, constancy of f with rho = f (beta + 2),
and emission.  ``closed_form_theta`` stays an independent cross-check
of the ladder.

A candidate is certified on the level blocks of the bipartite split
(``verify_relation``): each block of the relation's residual is a
scalar multiple of L^3 or L^2, or a combination of the walk counts
that the split's uniform equation table already holds, so the table
decides the relation exactly without walking the graph again.

Two slower routes stay as twins.  The sparse column route
(``verify_tridiagonal``) evaluates the relation for any graph and any
diagonal A*, column by column from applications of A to basis vectors,
and an independent entrywise oracle recomputes each commutator entry
from brute-force walk enumeration, never from matrix products.  A is
symmetric and A* diagonal, so the residual of the relation is
antisymmetric and the column route computes its entries above the
diagonal only; it takes the mixed term as A A* A^2 - A^2 A* A =
A (A* A - A A*) A, one more application of A after A^2.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .graphs import BaseContext, Graph, LFRSplit
from .scalars import QuadExt, exact_sqrt, is_rational, scalar_to_json
from .uniform import UniformParams, _equation_table, _require_bipartite


class DualCandidate(NamedTuple):
    theta_star: tuple
    beta: Fraction
    gamma: Fraction
    rho: Fraction

    def to_json(self) -> dict:
        return {
            "theta_star": [scalar_to_json(t) for t in self.theta_star],
            "beta": scalar_to_json(self.beta),
            "gamma": scalar_to_json(self.gamma),
            "rho": scalar_to_json(self.rho),
            "verified": None,
            "rejected_step": None,
        }


def verify_tridiagonal(g: Graph, astar: Sequence, beta, gamma, rho
                       ) -> list[tuple]:
    """Exactly evaluate the cubic commutator relation for the adjacency
    matrix A of g and the diagonal A* = diag(astar).

    The residual matrix is

        A^3 A* - A* A^3 + (beta+1)(A A* A^2 - A^2 A* A)
            - gamma (A^2 A* - A* A^2) - rho (A A* - A* A);

    the relation holds iff it vanishes.  A is symmetric and A* diagonal,
    so every term is some X - X^T and the residual is antisymmetric: its
    entries (z, y) with z < y decide it, and entry (y, z) is their
    negative.  With D = A* = diag(d) and A D A^2 - A^2 D A = A (D A^2 -
    A D A), those entries of column y are

        (d_y - d_z)(A^3 e_y - gamma A^2 e_y - rho A e_y)_z
            + (beta+1) (A (D A^2 e_y - A D A e_y))_z,

    from two passes over the adjacency lists: one over the neighbours u
    of y gives A^2 e_y and A D A e_y, one over the support w of A^2 e_y
    gives A^3 e_y and the mixed term, reading only the neighbours z < y
    of w (the lists are sorted, see Graph).  So entry (z, y) vanishes
    unless z is within three steps of y.  A* must be rational: A*,
    beta+1, gamma and rho are scaled to integers by one common
    denominator.  Returns every nonzero entry (z, y, value) in row-major
    order, so the relation holds exactly when the list is empty.
    """
    n = g.n
    if len(astar) != n:
        raise ValueError(f"A* needs {n} diagonal values, got {len(astar)}")
    if not all(is_rational(d) for d in astar):
        raise ValueError("A* must be rational")
    coeffs = [Fraction(1), Fraction(beta) + 1, Fraction(gamma), Fraction(rho)]
    scale = lcm(*(Fraction(v).denominator for v in [*astar, *coeffs]))
    diag = [int(Fraction(v) * scale) for v in astar]
    one, bp1, gamma, rho = (int(c * scale) for c in coeffs)
    adj = g.adj

    found = []
    for y in range(n):
        a2: dict = {}  # A^2 e_y
        t2: dict = {}  # A D A e_y, on the same support
        for u in adj[y]:
            du = diag[u]
            for w in adj[u]:
                a2[w] = a2.get(w, 0) + 1
                t2[w] = t2.get(w, 0) + du
        # rows z < y only: poly = A^3 e_y - gamma A^2 e_y - rho A e_y and
        # mix = (beta+1) A (D A^2 e_y - A D A e_y)
        poly: dict = {}
        mix: dict = {}
        for w, c in a2.items():
            oc, m = one * c, bp1 * (diag[w] * c - t2[w])
            nbrs = adj[w]
            for z in nbrs[:bisect_left(nbrs, y)]:
                poly[z] = poly.get(z, 0) + oc
                mix[z] = mix.get(z, 0) + m
        if gamma:
            for w, c in a2.items():
                if w < y:
                    poly[w] = poly.get(w, 0) - gamma * c
        if rho:
            nbrs = adj[y]
            for z in nbrs[:bisect_left(nbrs, y)]:
                poly[z] = poly.get(z, 0) - rho
        dy = diag[y]
        for z, p in poly.items():
            r = (dy - diag[z]) * p + mix.get(z, 0)
            if r != 0:
                found.append((z, y, r))
                found.append((y, z, -r))
    found.sort()  # each (z, y) occurs once, so this is row-major
    unscale = scale * scale
    if unscale == 1:
        return found
    return [(z, y, Fraction(r, unscale)) for z, y, r in found]


def entrywise_oracle(g: Graph, ctx: BaseContext, theta_star: Sequence,
                     y: int, z: int) -> tuple:
    """(z,y)-entries of the four commutators, from walk enumeration only.

    Returns the entries of A^3 A* - A* A^3, A A* A^2 - A^2 A* A,
    A^2 A* - A* A^2 and A A* - A* A, each computed by brute-force walk
    counting (never via matrix products).
    """
    if not (0 <= y < g.n and 0 <= z < g.n):
        raise ValueError("vertex out of range")
    th = [Fraction(t) for t in theta_star]
    dist = ctx.dist
    ty, tz = th[dist[y]], th[dist[z]]

    gamma3 = 0
    mix = Fraction(0)
    for v in g.adj[y]:
        tv = th[dist[v]]
        for w in g.adj[v]:
            if z in g.adj[w]:
                gamma3 += 1
                mix += th[dist[w]] - tv
    gamma2 = sum(1 for v in g.adj[y] if z in g.adj[v])
    first = gamma3 * (ty - tz)
    third = gamma2 * (ty - tz)
    fourth = (ty - tz) if z in g.adj[y] else Fraction(0)
    return (first, mix, third, fourth)


def verify_relation(split: LFRSplit, cand: DualCandidate
                    ) -> Optional[tuple[int, int]]:
    """Decide the cubic relation for A = L + R and A* = diag(theta*) on
    the level blocks of a bipartite split, from its equation table.

    With t = theta* and y on level i, each 3-step walk y, v1, v2, z adds
    (t_y - t_z) + (beta+1)(t_v2 - t_v1) to the residual entry (z, y),
    each 2-step walk -gamma (t_y - t_z) and each edge -rho (t_y - t_z).
    The residual is antisymmetric and vanishes on each level, so the
    blocks with z below y decide it; with D_i = t_i - t_{i-1}:

    - z on level i-3: [(t_i - t_{i-3}) + (beta+1)(t_{i-2} - t_{i-1})]
      times (L^3)_{zy}, and L^3 e_y != 0 for i >= 3;
    - z on level i-2: -gamma (t_i - t_{i-2}) (L^2)_{zy}, L^2 e_y != 0;
    - z on level i-1: c_a RL^2 + c_b LRL + c_c L^2R - rho D_i L with
      c_a = D_i + (beta+1)(t_{i-2} - t_{i-1}), c_b = (beta+2) D_i and
      c_c = D_i + (beta+1)(t_i - t_{i+1}); RL^2 vanishes on level 1 and
      L^2R on level eps.  These are the counts of the table's equations
      (a, c, d | b) = (RL^2, L^2R, -L | -LRL), so the block vanishes iff
      c_a a + c_c c + rho D_i d - c_b b = 0 for each equation of level i.

    Returns None when the relation holds, else the first failing level
    with its first failing column y in level order, (level, y): the
    first column of the level when a scalar block fails, else the first
    column of the first failing equation.
    """
    _require_bipartite(split)
    eps = split.ctx.eccentricity
    t = cand.theta_star
    if len(t) != eps + 1:
        raise ValueError(f"need {eps + 1} level values, got {len(t)}")
    bp1, gamma, rho = cand.beta + 1, cand.gamma, cand.rho
    for i, table in _equation_table(split).items():
        delta = t[i] - t[i - 1]
        scalar_fails = (
            i >= 3 and (t[i] - t[i - 3]) + bp1 * (t[i - 2] - t[i - 1]) != 0
            or i >= 2 and gamma * (t[i] - t[i - 2]) != 0)
        if scalar_fails:
            return i, split.ctx.levels[i][0]
        c_a = delta + bp1 * (t[i - 2] - t[i - 1]) if i >= 2 else 0
        c_b = (bp1 + 1) * delta
        c_c = delta + bp1 * (t[i] - t[i + 1]) if i < eps else 0
        c_d = rho * delta
        for (a, c, d, b), y in table.items():
            if c_a * a + c_c * c + c_d * d - c_b * b != 0:
                return i, y
    return None


# -- synthesis from a uniform structure ---------------------------------------


class SearchResult(NamedTuple):
    candidate: Optional[DualCandidate]
    rejected_step: Optional[int] = None
    reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.candidate is not None

    def to_json(self) -> dict:
        if self.candidate is not None:
            return self.candidate.to_json()
        return {
            "theta_star": None,
            "beta": None,
            "gamma": None,
            "rho": None,
            "verified": None,
            "rejected_step": self.rejected_step,
            "reason": self.reason,
        }


def candidate_search(params: UniformParams) -> SearchResult:
    """Six-step candidate synthesis from a uniform structure, in terms of
    the ratios F(i) = -(e+_i - 1)/(e-_{i+1} - 1), 1 <= i <= eps-1:

    1. beta + 1 = (e-_{i+1}-1)(e+_i-1)/(1 - e+_i e-_{i+1}) is the same
       at every level i, and beta is outside {-2, -1};
    2. build the theta* ladder theta*_{i+1} = sum_{j=1}^{i} (-1)^j
       F(1) ... F(j) under the normalisation theta*_0 = -1, theta*_1 = 0
       of ``closed_form_theta``;
    3. the theta* values are mutually distinct;
    4. the compatibility identity 1 + F(i-1)F(i) = -beta F(i-1) holds;
    5. the f_i are constant, setting rho = f (beta + 2);
    6. emit the candidate (gamma = 0 in the bipartite setting).

    One pass over the levels reads each (e-_{i+1}, e+_i) once, makes
    the checks of step 1 and collects the F(i); steps 2 to 5 work on
    that list.  Rejections carry the failing step; they are results,
    not errors.
    """
    eps = params.eps
    if eps < 3:
        raise ValueError("candidate synthesis requires eccentricity >= 3")

    beta, ratios = None, []
    for i in range(1, eps):
        em, ep = params.em(i + 1), params.ep(i)
        if em == 1:
            return SearchResult(None, 1, f"e-_{i + 1} = 1")
        if ep == 1:
            return SearchResult(None, 1, f"e+_{i} = 1")
        if ep * em == 1:
            return SearchResult(None, 1, f"e+_{i} e-_{i + 1} = 1")
        val = (em - 1) * (ep - 1) / (1 - ep * em) - 1
        if beta is None:
            beta = val
        elif val != beta:
            return SearchResult(
                None, 1, f"beta differs between levels: {beta} vs {val}")
        ratios.append(-(ep - 1) / (em - 1))
    if beta in (-2, -1):
        return SearchResult(None, 1, f"beta = {beta} is excluded")

    theta = [Fraction(-1), Fraction(0)]
    prod = Fraction(1)
    for ratio in ratios:
        prod *= -ratio
        theta.append(theta[-1] + prod)
    if len(set(theta)) != len(theta):
        return SearchResult(None, 3, "theta* values are not distinct")

    for i, (prev, cur) in enumerate(zip(ratios, ratios[1:]), 2):
        if 1 + prev * cur != -beta * prev:
            return SearchResult(
                None, 4, f"compatibility identity fails at level {i}")

    fs = {params.fi(i) for i in range(1, eps + 1)}
    if len(fs) != 1:
        return SearchResult(None, 5, "f_i is not constant across levels")
    rho = fs.pop() * (beta + 2)
    return SearchResult(DualCandidate(tuple(theta), beta, Fraction(0), rho))


def closed_form_theta(beta, f1, i: int) -> Fraction:
    """theta*_i under the normalisation theta*_0 = -1, theta*_1 = 0.

    Uses the arithmetic-progression form at beta = 2 and the geometric
    two-root form otherwise (roots (beta +- sqrt(beta^2-4))/2, evaluated
    in the quadratic extension and collapsing to a rational).  When the
    roots are not real quadratic (beta^2 < 4, or the double root at
    beta = -2) the equivalent constant-recursive evaluation
    P(i) = beta P(i-1) - P(i-2), P(0) = 1, P(1) = -F(1),
    theta*_i = sum_{j<i} P(j) is used directly.
    """
    if i < 0:
        raise ValueError("need i >= 0")
    beta, f1 = Fraction(beta), Fraction(f1)
    if i == 0:
        return Fraction(-1)
    if i == 1:
        return Fraction(0)
    if beta == 2:
        return Fraction(i - 1) * (2 - (1 + f1) * i) / 2
    disc = beta * beta - 4
    if disc <= 0:
        return _theta_by_recurrence(beta, f1, i)
    s = exact_sqrt(disc)
    rp = (beta + s) / 2
    rm = (beta - s) / 2
    out = (1 + rp * f1) / ((beta - 2) * (1 + rp)) * (1 - rp ** (i - 1)) \
        + (1 + rm * f1) / ((beta - 2) * (1 + rm)) * (1 - rm ** (i - 1))
    if isinstance(out, QuadExt):
        raise ArithmeticError("theta* closed form failed to collapse to Q")
    return Fraction(out)


def _theta_by_recurrence(beta: Fraction, f1: Fraction, i: int) -> Fraction:
    """theta*_i = P(1) + ... + P(i-1) with P(0) = 1, P(1) = -F(1) and
    P(j) = beta P(j-1) - P(j-2)."""
    p_prev, p_cur = Fraction(1), -f1
    total = Fraction(0)
    for _ in range(1, i):
        total += p_cur
        p_prev, p_cur = p_cur, beta * p_cur - p_prev
    return total
