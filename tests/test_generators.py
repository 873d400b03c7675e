from itertools import product

import pytest

from uniformq import generators
from uniformq.generators import (
    FormSpec,
    SizeCapError,
    _rref_mod,
    dual_polar,
    expected_intersection_numbers,
    hamming,
    hypercube,
    intersection_numbers,
)
from uniformq.graphs import Graph, bfs_context, format_edge_list


# -- slow twin: enumerate every maximal isotropic subspace, then test every
# pair by rank (the construction dual_polar replaced) -------------------------


def _rank_mod_small(rows, p):
    return len(_rref_mod(rows, p))


def _reduce_against(v, basis, p):
    """Reduce v against RREF basis rows (pivot = first nonzero, coeff 1)."""
    v = [x % p for x in v]
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x)
        f = v[lead]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return v


def _span_mod(basis, p, dim):
    """Iterate all vectors in the span of the given rows."""
    if not basis:
        yield tuple([0] * dim)
        return
    for coeffs in product(range(p), repeat=len(basis)):
        v = [0] * dim
        for c, row in zip(coeffs, basis):
            if c:
                for i, x in enumerate(row):
                    v[i] = (v[i] + c * x) % p
        yield tuple(v)


def _perp_basis(space, basis):
    """Basis of {v : B(row, v) = 0 for all rows}."""
    dim, p = space.dim, space.p
    units = [[int(i == c) for i in range(dim)] for c in range(dim)]
    if not basis:
        return units
    forms = [[space.bilinear(u, e) for e in units] for u in basis]
    rref = _rref_mod(forms, p)
    pivots = [next(i for i, x in enumerate(row) if x) for row in rref]
    out = []
    for free in range(dim):
        if free in pivots:
            continue
        v = [0] * dim
        v[free] = 1
        for row, piv in zip(rref, pivots):
            v[piv] = (-row[free]) % p
        out.append(v)
    return out


def _enumerate_maximal_isotropic(space):
    """All maximal totally isotropic subspaces, as canonical RREF tuples,
    by extending isotropic flags one dimension at a time."""
    p, D, dim = space.p, space.D, space.dim
    seen = [set() for _ in range(D + 1)]
    results = []

    def extend(basis):
        k = len(basis)
        if k == D:
            results.append(basis)
            return
        for v in _span_mod(_perp_basis(space, basis), p, dim):
            if not any(v) or not space.is_isotropic_vector(v):
                continue
            if not any(_reduce_against(list(v), basis, p)):
                continue  # already inside the subspace
            new = _rref_mod(list(basis) + [list(v)], p)
            if new not in seen[k + 1]:
                seen[k + 1].add(new)
                extend(new)

    extend(())
    return sorted(results)


def dual_polar_pairwise(spec):
    subspaces = _enumerate_maximal_isotropic(spec)
    n = len(subspaces)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        # dim(U /\ W) = 2D - rank(U u W); adjacency means D - 1
        if _rank_mod_small(subspaces[i] + subspaces[j], spec.p) == spec.D + 1
    ]
    labels = [[list(row) for row in rows] for rows in subspaces]
    return Graph.from_edges(n, edges), labels


@pytest.mark.parametrize("family, D, p", [
    ("C", 2, 2), ("C", 2, 3), ("C", 3, 2), ("B", 2, 3),
])
def test_neighbour_construction_matches_pairwise_twin(family, D, p):
    spec = FormSpec(family, D, p)
    g, labels = dual_polar(spec)
    slow_g, slow_labels = dual_polar_pairwise(spec)
    assert len(slow_labels) == spec.vertex_count()
    assert format_edge_list(g) == format_edge_list(slow_g)
    assert labels == slow_labels


def test_dropped_neighbour_is_rejected(monkeypatch):
    real = generators._neighbours
    monkeypatch.setattr(generators, "_neighbours",
                        lambda space, rows: real(space, rows)[:-1])
    with pytest.raises(ArithmeticError, match="neighbours"):
        dual_polar(FormSpec("C", 2, 3))


def test_one_way_edge_is_rejected(monkeypatch):
    # the start's last neighbour is swapped for a subspace at distance 2:
    # every degree stays right, but that edge is seen from one end only
    real = generators._neighbours

    def swap_at_start(space, rows):
        out = real(space, rows)
        if rows == space.start():
            out[-1] = next(r for r in real(space, out[0])
                           if r != rows and r not in out)
        return out

    monkeypatch.setattr(generators, "_neighbours", swap_at_start)
    with pytest.raises(ArithmeticError, match="found from"):
        dual_polar(FormSpec("C", 2, 3))


def test_form_spec_validation():
    with pytest.raises(ValueError):
        FormSpec("C", 1, 2)  # D too small
    with pytest.raises(ValueError):
        FormSpec("C", 2, 4)  # not prime
    with pytest.raises(ValueError):
        FormSpec("B", 2, 2)  # B needs odd p
    with pytest.raises(ValueError):
        FormSpec("A", 2, 2)  # unsupported family


def test_c22():
    g, labels = dual_polar(FormSpec("C", 2, 2))
    assert g.n == 15
    assert g.is_regular() == 6
    assert len(labels) == 15
    assert all(len(rows) == 2 for rows in labels)


def test_c23():
    g, _ = dual_polar(FormSpec("C", 2, 3))
    assert g.n == 40
    assert g.is_regular() == 12


def test_c32(c32):
    assert c32.n == 135
    assert c32.is_regular() == 14


def test_b23():
    g, labels = dual_polar(FormSpec("B", 2, 3))
    assert g.n == 40
    assert g.is_regular() == 12
    assert intersection_numbers(g) == expected_intersection_numbers(3, 1, 2)


def test_size_cap():
    with pytest.raises(SizeCapError):
        dual_polar(FormSpec("C", 5, 7))
    # far over the cap: rejected from the first factors, naming the cap
    for build in (lambda: dual_polar(FormSpec("C", 30000, 2)),
                  lambda: hamming(2000000, 2)):
        with pytest.raises(SizeCapError, match="more than 5000 vertices"):
            build()
    assert FormSpec("C", 5, 7).vertex_count() == 8 * 50 * 344 * 2402 * 16808


def test_intersection_numbers_c32(c32):
    c, a, b = intersection_numbers(c32)
    assert (c, a, b) == expected_intersection_numbers(2, 1, 3)
    assert c[1:] == (1, 3, 7)
    assert a[1:] == (1, 3, 7)
    assert b[:3] == (14, 12, 8)
    # c_i + a_i + b_i = degree at every distance
    assert len(c) == 4
    assert all(ci + ai + bi == 14 for ci, ai, bi in zip(c, a, b))


def test_intersection_numbers_cycle(cycle6):
    c, a, b = intersection_numbers(cycle6)
    assert c[1:] == (1, 1, 2)
    assert a[1:] == (0, 0, 0)
    assert b[:3] == (2, 1, 1)


def test_full_bipartite_not_distance_regular(c32_fb):
    with pytest.raises(ValueError, match="eccentricity differs"):
        intersection_numbers(c32_fb)
    # the triangular prism: every vertex has eccentricity 2, but a_1 is 1
    # along a triangle and 0 along a rung
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                 (3, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(ValueError, match=r"^parameter at distance 1 is not "
                       r"constant \(base 0, vertex 3\)$"):
        intersection_numbers(prism)


def test_full_bipartite_edge_count(c32, c32_fb):
    # drops exactly the within-level edges: sum of level sizes times a_i / 2
    ctx = bfs_context(c32, 0)
    within = sum(
        1 for u, v in c32.edges() if ctx.dist[u] == ctx.dist[v]
    )
    assert within == 7 + 84 + 224  # levels 1..3 of the 135-vertex instance
    assert c32_fb.num_edges == c32.num_edges - within == 630


def test_expected_intersection_closed_forms():
    c, a, b = expected_intersection_numbers(2, 1, 3)
    assert c[1:] == (1, 3, 7)
    assert a[1:] == (1, 3, 7)
    assert b[:3] == (14, 12, 8)
    # rational e stays evaluable (Hermitean parameters, no generator)
    from fractions import Fraction

    c2, a2, b2 = expected_intersection_numbers(4, Fraction(3, 2), 2)
    assert c2[1] == 1 and c2[2] == 5
    assert b2[0] == 8 * (4 ** 2 - 1) // 3  # b^e = 8 at b = 4, e = 3/2


def test_subspace_conditions(c32):
    # every generated label is a basis of a totally isotropic subspace,
    # rechecked via the symplectic form directly
    spec = FormSpec("C", 3, 2)
    _, labels = dual_polar(spec)
    for rows in labels[:20]:
        for u in rows:
            for v in rows:
                assert spec.bilinear(u, v) == 0


def test_adjacent_subspaces_meet_in_codim_one():
    spec = FormSpec("C", 2, 3)
    g, labels = dual_polar(spec)
    for u, v in list(g.edges())[:30]:
        stacked = [list(r) for r in labels[u]] + [list(r) for r in labels[v]]
        assert _rank_mod_small(stacked, 3) == spec.D + 1


def test_hypercube_and_hamming():
    q3, labels = hypercube(3)
    assert q3.n == 8
    assert q3.is_regular() == 3
    assert lfr_is_bipartite(q3)
    h23, _ = hamming(2, 3)
    assert h23.n == 9 and h23.is_regular() == 4
    h33, _ = hamming(3, 3)
    assert h33.n == 27 and h33.is_regular() == 6
    assert hypercube(4)[0] == hamming(4, 2)[0]
    with pytest.raises(SizeCapError):
        hamming(13, 2)
    with pytest.raises(ValueError):
        hamming(1, 3)


def lfr_is_bipartite(g):
    from uniformq.graphs import lfr_split

    ctx = bfs_context(g, 0)
    return lfr_split(g, ctx).is_bipartite()


def test_hamming_distance_regular():
    g, _ = hamming(2, 3)
    assert intersection_numbers(g) == ((0, 1, 2), (0, 1, 2), (4, 2, 0))


def test_dual_polar_determinism():
    a1, l1 = dual_polar(FormSpec("C", 2, 2))
    a2, l2 = dual_polar(FormSpec("C", 2, 2))
    assert a1 == a2 and l1 == l2


@pytest.mark.parametrize("family, D, p", [
    ("C", 2, 2), ("C", 2, 3), ("C", 2, 5), ("C", 2, 7),
    ("B", 2, 3), ("B", 2, 5),
])
def test_small_families_are_distance_regular(family, D, p):
    # every generated spec with at most ~500 vertices matches the
    # closed-form intersection numbers
    spec = FormSpec(family, D, p)
    assert spec.vertex_count() <= 500
    g, _ = dual_polar(spec)
    assert intersection_numbers(g) == expected_intersection_numbers(p, 1, D)
    assert g.is_regular() == spec.degree()
