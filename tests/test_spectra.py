import json
import random
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache, reduce
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph, split_at
from dense import (
    adjacency,
    charpoly,
    dual_diagonal,
    full_decomposition,
    module_rep_matrix,
)
from test_uniform import certify_direct_sum, per_level
from uniformq.generators import (
    FormSpec,
    dual_polar,
    expected_intersection_numbers,
    hamming,
    hypercube,
)
from uniformq.graphs import Graph, bfs_context, full_bipartite, lfr_split
from uniformq import spectra
from uniformq.linalg import charpoly_int, int_matmul_flat
from uniformq.poly import Poly, poly_gcd
from uniformq.scalars import QuadExt, exact_sqrt, quad
from uniformq.spectra import (
    Spectrum,
    _classes,
    _gram,
    _spectral_projectors,
    check_q_ordering,
    closed_form_spectrum,
    eigenspace_bases,
    even_odd_ordering,
    idempotent_pattern,
    krawtchouk_charpoly,
    module_eigenvalues,
    module_pattern,
    natural_ordering,
    odd_even_ordering,
    spectrum_exact,
    verify_krat_scaling,
)
from uniformq.uniform import (
    Decomposition,
    TModule,
    UniformParams,
    closed_form_x,
    decompose_modules,
    fit_uniform,
    fit_uniform_constant,
)


@pytest.fixture(scope="module")
def c32_projectors(c32_split):
    return _spectral_projectors(c32_split)


@pytest.fixture(scope="module")
def c32_spectral(c32_fb, c32_projectors):
    return adjacency(c32_fb), c32_projectors.spectrum


@pytest.fixture(scope="module")
def c32_eigenspaces(c32_projectors):
    return eigenspace_bases(c32_projectors)


@pytest.fixture(scope="module")
def c32_astar(c32_ctx):
    return dual_diagonal(c32_ctx, (-1, 0, Fraction(1, 2), Fraction(3, 4)))


@pytest.fixture(scope="module")
def c32_pattern(c32_projectors, c32_astar):
    return idempotent_pattern(c32_projectors, c32_astar)


# -- closed forms -----------------------------------------------------------------


def test_closed_form_spectrum_213():
    r2 = quad(0, 1, 2)
    spec = closed_form_spectrum(2, 1, 3)
    assert spec == [7 * r2, 6, 2 * r2, 0, -2 * r2, -6, -7 * r2]


def test_closed_form_spectrum_212():
    r2 = quad(0, 1, 2)
    assert closed_form_spectrum(2, 1, 2) == [3 * r2, 2, 0, -2, -3 * r2]


def test_closed_form_spectrum_312():
    r3 = quad(0, 1, 3)
    assert closed_form_spectrum(3, 1, 2) == [4 * r3, 3, 0, -3, -4 * r3]


def test_closed_form_spectrum_at_e0():
    # D_D(2) is bipartite: D + 1 values [D - j] - [j], [m] = 2^m - 1
    assert closed_form_spectrum(2, 0, 3) == [7, 2, -2, -7]
    assert closed_form_spectrum(2, 0, 4) == [15, 6, 0, -6, -15]


def test_closed_form_spectrum_antisymmetry():
    for b, e, D in [(2, 1, 3), (3, 1, 2), (2, 2, 4), (4, Fraction(3, 2), 2)]:
        spec = closed_form_spectrum(b, e, D)
        assert spec[D] == 0
        assert all(spec[i] == -spec[2 * D - i] for i in range(2 * D + 1))
        assert all(spec[i] > spec[i + 1] for i in range(2 * D))


def test_closed_form_spectrum_out_of_field():
    with pytest.raises(ValueError):
        closed_form_spectrum(2, Fraction(3, 2), 3)


@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("form", [
    lambda b: closed_form_spectrum(b, 1, 3),
    lambda b: module_eigenvalues(b, 1, 3, 2),
    lambda b: verify_krat_scaling(b, 1, 3, 2, [1, 1]),
    lambda b: closed_form_x(b, 1, 3, 2, 1),
    lambda b: expected_intersection_numbers(b, 1, 3),
], ids=["spectrum", "module_eigenvalues", "krat_scaling", "x",
        "intersection_numbers"])
def test_closed_forms_reject_b_below_2(form, b):
    # the closed forms divide by b - 1 and take powers of b
    with pytest.raises(ValueError, match=r"^need b >= 2$"):
        form(b)


def test_module_eigenvalues_subset():
    for d in (0, 1, 2, 3):
        spec = closed_form_spectrum(2, 1, 3)
        vals = module_eigenvalues(2, 1, 3, d)
        assert vals == [spec[3 - d + 2 * j] for j in range(d + 1)]
    assert module_eigenvalues(2, 1, 3, 0) == [0]
    assert module_eigenvalues(2, 1, 3, 2) == [6, 0, -6]


# -- Krawtchouk charpolys ----------------------------------------------------------


def test_krawtchouk_examples():
    assert krawtchouk_charpoly([14, 36, 56])[4] == Poly([784, 0, -106, 0, 1])
    assert krawtchouk_charpoly([8])[2] == Poly([-8, 0, 1])
    assert krawtchouk_charpoly([12, 24])[3] == Poly([0, -36, 0, 1])


def test_krawtchouk_equals_rep_matrix_charpoly(c32_split, dp_params):
    dec = full_decomposition(c32_split, dp_params)
    seen = set()
    for m in dec.modules:
        key = (m.endpoint, m.diameter)
        if key in seen:
            continue
        seen.add(key)
        hs = krawtchouk_charpoly(m.x_scalars)
        assert hs[m.diameter + 1] == charpoly(module_rep_matrix(m))


def test_krawtchouk_roots_are_module_eigenvalues(c32_split, dp_params):
    dec = full_decomposition(c32_split, dp_params)
    for m in dec.modules:
        h = krawtchouk_charpoly(m.x_scalars)[m.diameter + 1]
        for root in module_eigenvalues(2, 1, 3, m.diameter):
            assert h(root) == 0
        # multiplicity-free: gcd(h, h') constant
        assert poly_gcd(h, h.derivative()).degree == 0


def test_verify_krat_scaling():
    assert verify_krat_scaling(2, 1, 3, 3, [14, 36, 56]) is None
    assert verify_krat_scaling(2, 1, 3, 3, [14, 36, 57]) == 4
    assert verify_krat_scaling(2, 1, 3, 1, [8]) is None
    assert verify_krat_scaling(2, 1, 3, 2, [12, 24]) is None
    assert verify_krat_scaling(3, 1, 2, 2, [12, 36]) is None


def test_verify_krat_wrong_count():
    with pytest.raises(ValueError):
        verify_krat_scaling(2, 1, 3, 3, [14, 36])


# -- exact spectra -----------------------------------------------------------------


def test_spectrum_cycle(cycle6):
    spec = spectrum_exact(split_at(cycle6))
    assert spec.eigenvalues == [(2, 1), (1, 2), (-1, 2), (-2, 1)]
    assert spec.radicand == 1


def test_spectrum_hypercube():
    q3, _ = hypercube(3)
    spec = spectrum_exact(split_at(q3))
    assert spec.eigenvalues == [(3, 1), (1, 3), (-1, 3), (-3, 1)]


def test_spectrum_c32(c32_spectral):
    _, spec = c32_spectral
    r2 = quad(0, 1, 2)
    assert spec.values() == closed_form_spectrum(2, 1, 3)
    assert spec.multiplicity(7 * r2) == 1
    assert spec.multiplicity(-7 * r2) == 1
    assert spec.vertex_count == 135
    assert spec.radicand == 2
    # A^2 distinct eigenvalues are exactly {98, 36, 8, 0}
    assert sorted({int(Fraction(v * v)) for v in spec.values()},
                  reverse=True) == [98, 36, 8, 0]


def test_spectrum_multiplicities_match_modules(c32_spectral, c32_split,
                                               dp_params):
    _, spec = c32_spectral
    dec = decompose_modules(c32_split, dp_params)
    table = dec.multiplicities()
    cf = closed_form_spectrum(2, 1, 3)
    for i, theta in enumerate(cf):
        predicted = sum(
            count for (r, d), count in table.items()
            if (i - (3 - d)) % 2 == 0 and 3 - d <= i <= 3 + d
        )
        assert spec.multiplicity(theta) == predicted


def test_spectrum_rejects_loop():
    # a graph with a loop cannot be built, so spectrum_exact never sees one
    with pytest.raises(ValueError, match="loop"):
        Graph(1, [[0]])


def test_spectrum_irrational_squared_rejected():
    # path P4: A^2 eigenvalues (3 +- sqrt 5)/2 are irrational
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError):
        spectrum_exact(split_at(p4))


def test_spectrum_random_non_bipartite_rejected():
    # 120 vertices and an odd cycle: an edge within a level rejects it
    # before any characteristic polynomial is taken
    rng = random.Random(1)
    while True:
        split = split_at(random_connected_graph(rng, 120))
        if not split.is_bipartite():
            break
    with pytest.raises(ValueError):
        spectrum_exact(split)


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), id="cycle6"),
    pytest.param(lambda: hypercube(3)[0], id="Q_3"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 id="C_2(3)-fb"),
])
def test_spectrum_at_bases_of_both_parities(graph):
    # the classes are the even and the odd levels, smaller first; a base
    # at odd distance swaps them, so on a tie the Gram block moves to the
    # other class
    g = graph()
    even_split, odd_split = split_at(g, 0), split_at(g, g.adj[0][0])
    even, odd = spectrum_exact(even_split), spectrum_exact(odd_split)
    assert odd == even and odd.to_json() == even.to_json()
    even_classes, odd_classes = _classes(even_split), _classes(odd_split)
    for rows, cols in (even_classes, odd_classes):
        assert len(rows) <= len(cols)
        assert sorted(rows + cols) == list(range(g.n))
    if len(even_classes[0]) == len(even_classes[1]):
        assert set(odd_classes[0]) == set(even_classes[1])


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), id="cycle6"),
    pytest.param(lambda: hypercube(3)[0], id="Q_3"),
    pytest.param(lambda: _star(4), id="K_1,4"),
    pytest.param(lambda: full_bipartite(hamming(4, 3)[0], 0), id="H(4,3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 id="C_2(3)-fb"),
])
def test_gram_matches_block_product(graph):
    # the Gram block from the adjacency lists equals B B^T with B the
    # 0/1 block of A from one colour class to the other
    g = graph()
    split = split_at(g)
    classes = _classes(split)
    for rows, cols in (classes, classes[::-1]):
        size, width = len(rows), len(cols)
        b = [int(z in g.adj[y]) for y in rows for z in cols]
        bt = [b[k * width + j] for j in range(width) for k in range(size)]
        assert _gram(split, rows) == int_matmul_flat(b, bt, size, width, size)


def test_spectrum_is_a_plain_value(cycle6):
    assert [f.name for f in fields(Spectrum)] == ["eigenvalues", "radicand"]
    spec = spectrum_exact(split_at(cycle6))
    assert Spectrum(spec.eigenvalues, spec.radicand) == spec


def test_spectrum_forms_no_product_over_the_larger_class(monkeypatch):
    # the certificate needs only the Gram block of the smaller class and
    # its powers, so no product runs over the larger class
    split = split_at(full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0))
    rows, cols = _classes(split)
    assert len(rows) < len(cols)
    real = spectra.int_matmul_flat
    inner = []

    def recording(a, b, n, k, m):
        inner.append(k)
        return real(a, b, n, k, m)

    monkeypatch.setattr(spectra, "int_matmul_flat", recording)
    assert spectrum_exact(split).vertex_count == split.graph.n
    assert inner and set(inner) == {len(rows)}


def test_spectrum_path3():
    # P3 has spectrum {sqrt 2, 0, -sqrt 2}
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    spec = spectrum_exact(split_at(p3))
    r2 = quad(0, 1, 2)
    assert spec.eigenvalues == [(r2, 1), (0, 1), (-r2, 1)]


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


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


def _deflation_spectrum(g):
    """The slow twin of spectrum_exact: the (value, multiplicity) pairs,
    descending, and the radicand.  The exact characteristic polynomial
    of B B^T over Z (CRT), on the even distances from vertex 0; its
    integer roots mu by exact synthetic division over [0, Delta^2]; then
    mult(+-sqrt mu) = mult(mu) for mu != 0, and 0 takes the rest."""
    n = g.n
    a = g.adjacency_matrix().int_entries()
    sq = int_matmul_flat(a, a, n, n, n)
    rows = [y for y, d in enumerate(bfs_context(g, 0).dist) if d % 2 == 0]
    coeffs = list(charpoly_int([sq[y * n + z] for y in rows for z in rows],
                               len(rows)).coeffs)
    mults = {}
    for mu in range(max(sq[::n + 1]) ** 2 + 1):  # A^2 has the degrees
        while len(coeffs) > 1:
            quotient, remainder = _deflate(coeffs, mu)
            if remainder:
                break
            coeffs = quotient
            mults[mu] = mults.get(mu, 0) + 1
    assert len(coeffs) == 1
    pairs = [(0, n - 2 * sum(m for mu, m in mults.items() if mu))]
    for mu, m in mults.items():
        if mu:
            pairs += [(exact_sqrt(mu), m), (-exact_sqrt(mu), m)]
    radicands = {v.m for v, _ in pairs if isinstance(v, QuadExt)}
    pairs.sort(key=lambda t: t[0], reverse=True)
    return [(v, m) for v, m in pairs if m], radicands.pop() if radicands else 1


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), id="cycle6"),
    pytest.param(lambda: hypercube(3)[0], id="Q_3"),
    pytest.param(lambda: Graph.from_edges(3, [(0, 1), (1, 2)]), id="P_3"),
    pytest.param(lambda: Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)]), id="P_5"),
    pytest.param(lambda: Graph.from_edges(2, [(0, 1)]), id="K_2"),
    pytest.param(lambda: Graph.from_edges(1, []), id="one-vertex"),
    pytest.param(lambda: _star(4), id="K_1,4"),
    pytest.param(lambda: full_bipartite(hamming(4, 3)[0], 0), id="H(4,3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 id="C_2(3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], 0),
                 id="C_3(2)-fb"),
])
def test_block_spectrum_matches_sign_split(graph):
    # the slow twin: the CRT charpoly of B B^T and the exact deflation
    # scan of its integer roots
    g = graph()
    fast = spectrum_exact(split_at(g))
    assert (fast.eigenvalues, fast.radicand) == _deflation_spectrum(g)


def _complete_bipartite(k: int) -> Graph:
    return Graph.from_edges(2 * k, [(i, k + j) for i in range(k)
                                    for j in range(k)])


@pytest.mark.parametrize("graph, bed", [
    pytest.param(lambda: _complete_bipartite(3), (2, 0, 2), id="K_3,3"),
    pytest.param(lambda: _complete_bipartite(4), (3, 0, 2), id="K_4,4"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 (3, 1, 2), id="C_2(3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], 0),
                 (2, 1, 3), id="C_3(2)-fb"),
])
def test_spectrum_matches_closed_form(graph, bed):
    assert spectrum_exact(split_at(graph())).values() == \
        closed_form_spectrum(*bed)


@pytest.mark.parametrize("graph, prime", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), 2, id="cycle6"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 3, id="C_2(3)-fb"),
])
def test_false_candidates_of_a_small_prime_are_dropped(graph, prime,
                                                       monkeypatch):
    # modulo 2 every mu in [0, 4] is a root of t (t - 1)^2, the charpoly
    # of B B^T on cycle6; modulo 3 every multiple of 3 in [0, 144] is a
    # root of the one of C_2(3)-fb, whose eigenvalues are 48, 9 and 0
    g = graph()
    ctx = bfs_context(g, 0)
    astar = dual_diagonal(ctx, [Fraction((-1) ** i, i + 2)
                                for i in range(ctx.eccentricity + 1)])
    split = lfr_split(g, ctx)
    twin = _spectral_projectors(split)
    real = spectra._powers
    formed = []

    def counting(d, size, k):
        powers = real(d, size, k)
        formed.append(len(powers))
        return powers

    monkeypatch.setattr(spectra, "_powers", counting)
    spec = spectrum_exact(split)
    monkeypatch.setattr(spectra, "_PRIME", prime)
    small = spectrum_exact(split)
    # one power of B B^T per candidate, past the identity
    assert formed[1] > formed[0]
    assert small == spec and small.to_json() == spec.to_json()
    assert idempotent_pattern(_spectral_projectors(split), astar) == \
        idempotent_pattern(twin, astar)


def test_spectrum_json(c32_spectral):
    _, spec = c32_spectral
    data = spec.to_json()
    assert data["radicand"] == 2
    assert data["eigenvalues"][0] == {
        "value": {"a": "0", "c": "7", "m": 2}, "multiplicity": 1,
    }
    assert sum(e["multiplicity"] for e in data["eigenvalues"]) == 135


# -- eigenspaces --------------------------------------------------------------------


def test_eigenspace_bases_cycle(cycle6):
    bases = eigenspace_bases(_spectral_projectors(split_at(cycle6)))
    assert [len(basis) for basis in bases] == [1, 2, 2, 1]
    assert bases[0] == [[1, 1, 1, 1, 1, 1]]


def test_eigenspace_dims_c32(c32_eigenspaces):
    bases = c32_eigenspaces
    assert [len(basis) for basis in bases] == [1, 7, 35, 49, 35, 7, 1]
    assert all(len(v) == 135 for basis in bases for v in basis)


def test_eigenspace_bipartite_sign_flip(c32_spectral, c32_eigenspaces,
                                        c32_ctx):
    # flipping signs on odd levels maps the theta-eigenspace onto the
    # (-theta)-eigenspace
    a, spec = c32_spectral
    signs = [(-1) ** d for d in c32_ctx.dist]
    for idx, (value, mult) in enumerate(spec.eigenvalues):
        neg_idx = len(spec.eigenvalues) - 1 - idx
        assert spec.eigenvalues[neg_idx][0] == -value
        for v in c32_eigenspaces[idx][:2]:
            flipped = [s * x for s, x in zip(signs, v)]
            av = a.apply(flipped)
            assert av == [-value * x for x in flipped]


# -- idempotent pattern and orderings ------------------------------------------------


def _pattern_from_bases(bases, astar):
    """The slow twin of idempotent_pattern: E_i A* E_j != 0 exactly
    when U_i^T A* U_j != 0 for eigenspace bases U_i, U_j."""
    weighted = [[[(y, x * astar[y]) for y, x in enumerate(u) if x]
                 for u in basis] for basis in bases]
    return [[any(sum(x * v[y] for y, x in u) != 0 for u in wi for v in bj)
             for bj in bases] for wi in weighted]


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), id="cycle6"),
    pytest.param(lambda: hamming(5, 2)[0], id="H(5,2)"),
    pytest.param(lambda: full_bipartite(hamming(4, 3)[0], 0), id="H(4,3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 2))[0], 0),
                 id="C_2(2)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 id="C_2(3)-fb"),
])
def test_idempotent_pattern_matches_eigenspace_bases(graph):
    g = graph()
    ctx = bfs_context(g, 0)
    twin = _spectral_projectors(split_at(g))
    k = len(twin.spectrum.eigenvalues)
    by_levels = dual_diagonal(ctx, [Fraction((-1) ** i, i + 2)
                                    for i in range(ctx.eccentricity + 1)])
    assert idempotent_pattern(twin, by_levels) == _pattern_from_bases(
        eigenspace_bases(twin), by_levels)
    assert idempotent_pattern(twin, [1] * g.n) == [
        [i == j for j in range(k)] for i in range(k)]


def _dense_projectors(a, spec):
    """The slow twin of _spectral_projectors: P_mu = prod_{nu != mu}
    (A^2 - nu I) and M_theta = (A + theta I) P_mu (P_0 for theta = 0)
    from n x n products."""
    n = a.rows
    ints = a.int_entries()

    def matmul(x, y):
        return int_matmul_flat(x, y, n, n, n)

    identity = [int(k % (n + 1) == 0) for k in range(n * n)]
    sq = matmul(ints, ints)
    mus = list(dict.fromkeys(int(Fraction(v * v)) for v in spec.values()))
    projectors = {
        mu: reduce(matmul, [[x - nu * e for x, e in zip(sq, identity)]
                            for nu in mus if nu != mu], identity)
        for mu in mus}
    idempotents = []
    for value in spec.values():
        p = projectors[int(Fraction(value * value))]
        idempotents.append(p if value == 0 else list(map(
            lambda x, y: x + value * y, matmul(ints, p), p)))
    return projectors, idempotents


def _assemble(m, classes, n):
    out = [0] * (n * n)
    for (i, j), block in m.items():
        for (y, z), v in zip(product(classes[i], classes[j]), block):
            out[y * n + z] = v
    return out


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), id="cycle6"),
    pytest.param(lambda: Graph.from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4)]), id="P_5"),
    pytest.param(lambda: _star(4), id="K_1,4"),
    pytest.param(lambda: hamming(5, 2)[0], id="H(5,2)"),
    pytest.param(lambda: full_bipartite(hamming(4, 3)[0], 0), id="H(4,3)-fb"),
    pytest.param(lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
                 id="C_2(3)-fb"),
])
def test_block_projectors_match_dense_products(graph):
    g = graph()
    a = g.adjacency_matrix()
    n = a.rows
    spec, keys, classes, pairs = _spectral_projectors(split_at(g))
    assert sorted(y for c in classes for y in c) == list(range(n))
    projectors, idempotents = _dense_projectors(a, spec)
    for value, mu, m_theta in zip(spec.values(), keys, idempotents):
        x, y = (None if m is None else _assemble(m, classes, n)
                for m in pairs[mu])
        assert (x if mu == 0 else y) == projectors[mu]
        assert (x if mu == 0 else list(map(
            lambda u, v: u + value * v, x, y))) == m_theta


def test_idempotent_pattern_wrong_spectrum_rejected(cycle6):
    twin = _spectral_projectors(split_at(cycle6))
    assert twin.spectrum.eigenvalues == [(2, 1), (1, 2), (-1, 2), (-2, 1)]
    # the projectors of a graph on 6 vertices and A* on 4
    with pytest.raises(ValueError):
        idempotent_pattern(twin, [1] * 4)
    with pytest.raises(ValueError):  # an irrational A*
        idempotent_pattern(twin, [quad(0, 1, 2)] + [1] * 5)


def test_idempotent_pattern_band(c32_pattern):
    pattern = c32_pattern
    for i in range(7):
        for j in range(7):
            if abs(i - j) not in (0, 2):
                assert not pattern[i][j]
    # the adjacent-even cells are genuinely nonzero
    assert pattern[0][2] and pattern[2][4] and pattern[1][3]


def test_idempotent_pattern_identity(c32_projectors):
    pattern = idempotent_pattern(c32_projectors, [1] * 135)
    for i in range(7):
        for j in range(7):
            assert pattern[i][j] == (i == j)


def test_quadratic_factor_on_pattern(c32_spectral, c32_pattern):
    # nonzero off-diagonal cells must kill the quadratic factor
    # theta_i^2 + theta_j^2 - beta theta_i theta_j - rho exactly
    _, spec = c32_spectral
    beta, rho = Fraction(5, 2), Fraction(36)
    pattern = c32_pattern
    vals = spec.values()
    found_off_diagonal = 0
    for i in range(7):
        for j in range(7):
            if pattern[i][j] and i != j:
                found_off_diagonal += 1
                ti, tj = vals[i], vals[j]
                assert ti * ti + tj * tj - beta * ti * tj - rho == 0
    assert found_off_diagonal > 0


# -- the idempotent pattern on the thin modules against its dense twin --------------


MODULE_INSTANCES = {
    "cycle6": lambda: Graph.from_edges(  # the per-level fit
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    "C_2(3)-fb": lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
    "Q_4": lambda: hypercube(4)[0],
    "Q_6": lambda: hypercube(6)[0],
    "H(3,3)-fb": lambda: full_bipartite(hamming(3, 3)[0], 0),
    "C_3(2)-fb": lambda: full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], 0),
}


def _module_params(split):
    """The constant fit when there is one, else the per-level fit."""
    params = fit_uniform_constant(split)
    return params if params is not None else fit_uniform(split).canonical


@cache
def _module_instance(name):
    """(ctx, dense twin, thin modules) at base 0, with the constant fit
    when there is one, else the per-level fit; the twin carries the
    spectrum."""
    g = MODULE_INSTANCES[name]()
    ctx = bfs_context(g, 0)
    split = lfr_split(g, ctx)
    return (ctx, _spectral_projectors(split),
            decompose_modules(split, _module_params(split)))


def _full_modules(name):
    """The module twin of ``_module_instance``: every module built."""
    split = split_at(MODULE_INSTANCES[name]())
    return full_decomposition(split, _module_params(split))


@pytest.mark.parametrize("name", list(MODULE_INSTANCES))
def test_module_twin_multiplicities_match(name):
    # the twin builds the diameter-0 modules that the decomposition
    # counts, and checks their number against the counts
    assert _full_modules(name).multiplicities() == \
        _module_instance(name)[2].multiplicities()


def _assert_twins_agree(name, theta_star):
    # the modules' argument holds for any A* constant on the levels, so
    # the level values need not be distinct here
    ctx, twin, dec = _module_instance(name)
    astar = [theta_star[i] for i in ctx.dist]
    assert module_pattern(twin.spectrum, dec, theta_star) == \
        idempotent_pattern(twin, astar)


@pytest.mark.parametrize("name", list(MODULE_INSTANCES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_module_pattern_matches_dense_twin(name, data):
    # random distinct rational level values, then values from a small
    # set, whose repeats make E_i A* E_j vanish for more pairs
    size = _module_instance(name)[0].eccentricity + 1
    _assert_twins_agree(name, data.draw(st.lists(
        st.fractions(-9, 9, max_denominator=9),
        min_size=size, max_size=size, unique=True)))
    _assert_twins_agree(name, data.draw(st.lists(
        st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2)]),
        min_size=size, max_size=size)))


@pytest.mark.parametrize("name", ["Q_4", "Q_6", "H(3,3)-fb", "C_3(2)-fb"])
def test_module_pattern_matches_dense_twin_at_the_candidate(name):
    # the accepted candidate's A* is the one whose pattern is a band,
    # with every cancellation the pipeline's verdict rests on
    from uniformq.candidate import candidate_search

    ctx = _module_instance(name)[0]
    res = candidate_search(fit_uniform_constant(lfr_split(ctx.graph, ctx)))
    assert res.accepted
    _assert_twins_agree(name, res.candidate.theta_star)
    _assert_twins_agree(name, [1] * (ctx.eccentricity + 1))  # A* = I


def _c32_fb_at(base):
    return full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], base)


# graph builder, base vertex and uniform structure (None: fitted): the
# module instances, P_5 (in Q(sqrt 3)) and C_3(2) fb built at a base of
# each parity.  The parameter matrix conditions reject both fits of
# P_5 (e- = e+ = 0, and a singular block), so it takes a valid structure
# of the same identity, f_i = 1 + e-_i + e+_i where those exist: here a
# lower triangular U, with x = (1, 1, 1, 1)
SPECTRUM_TWINS = {
    **{name: (build, 0, None) for name, build in MODULE_INSTANCES.items()},
    "P_5": (lambda: Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            0, UniformParams((0, 1, 1, 1), (0, 0, 0, 0), (1, 2, 2, 2))),
    "C_3(2)-fb@34": (lambda: _c32_fb_at(34), 34, None),
    "C_3(2)-fb@5": (lambda: _c32_fb_at(5), 5, None),
}


@pytest.mark.parametrize("name", list(SPECTRUM_TWINS))
def test_module_eigenvalue_counts_match_spectrum(name):
    # each type contributes the d + 1 roots of its charpoly h_{d+1},
    # once per module: the module spectrum equals the dense route's, the
    # Gram block's charpoly and traces, as a value and as JSON
    build, base, params = SPECTRUM_TWINS[name]
    split = split_at(build(), base)
    fast = spectrum_exact(split, decompose_modules(
        split, params or _module_params(split)))
    dense = spectrum_exact(split)
    assert fast == dense
    assert json.dumps(fast.to_json()) == json.dumps(dense.to_json())


def _hand_built(split, types):
    """A decomposition with one module per (r, d, x) in types; the
    module spectrum reads only the types."""
    return Decomposition([TModule(r, d, [[1]] * (d + 1), list(x))
                          for r, d, x in types], {})


def test_module_spectrum_rejects_an_irrational_square():
    # the P_4 chain, x = (1, 1, 1): h_4 = t^4 - 3 t^2 + 1 has the roots
    # mu = (3 +- sqrt 5)/2, no integer; the dense route says the same
    split = split_at(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    dec = _hand_built(split, [(0, 3, [1, 1, 1])])
    message = "squared spectrum is not rational"
    with pytest.raises(ValueError, match=message):
        spectrum_exact(split, dec)
    with pytest.raises(ValueError, match=message):
        spectrum_exact(split)


def test_module_spectrum_rejects_two_radicands():
    # x = 2 and x = 3 on two types of diameter 1 give +-sqrt 2 and
    # +-sqrt 3, outside one extension Q(sqrt m)
    split = split_at(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
    dec = _hand_built(split, [(0, 1, [2]), (1, 1, [3])])
    with pytest.raises(ValueError, match=r"two radicands \(3, 2\)"):
        spectrum_exact(split, dec)


def test_module_spectrum_rejects_modules_that_miss_a_dimension():
    _, twin, dec = _module_instance("C_2(3)-fb")
    split = split_at(MODULE_INSTANCES["C_2(3)-fb"]())
    assert spectrum_exact(split, dec) == twin.spectrum
    fewer = Decomposition(_full_modules("C_2(3)-fb").modules[:-1], {})
    with pytest.raises(ArithmeticError,
                       match="module dimensions sum to 39, expected 40"):
        spectrum_exact(split, fewer)


def test_module_pattern_rejects_a_mismatched_spectrum():
    _, twin, dec = _module_instance("C_2(3)-fb")
    spec = twin.spectrum
    theta_star = [-1, 0, Fraction(1, 3)]
    assert [m for _, m in spec.eigenvalues] == [1, 8, 22, 8, 1]
    # the same values with two multiplicities swapped
    (v0, m0), (v1, m1), *rest = spec.eigenvalues
    swapped = replace(spec, eigenvalues=[(v0, m1), (v1, m0), *rest])
    with pytest.raises(ArithmeticError, match="disagree"):
        module_pattern(swapped, dec, theta_star)
    # a value missing: the (0, 2) type finds two of its three roots
    missing = replace(spec, eigenvalues=spec.eigenvalues[1:])
    with pytest.raises(ArithmeticError, match=r"\(0, 2\) has 2 of its 3"):
        module_pattern(missing, dec, theta_star)
    # one module dropped: the multiplicities no longer add up
    fewer = Decomposition(_full_modules("C_2(3)-fb").modules[:-1], {})
    with pytest.raises(ArithmeticError, match="disagree"):
        module_pattern(spec, fewer, theta_star)
    with pytest.raises(ValueError, match="level 2"):
        module_pattern(spec, dec, theta_star[:2])


def test_q_orderings(c32_pattern):
    pattern = c32_pattern
    assert even_odd_ordering(7) == [0, 2, 4, 6, 1, 3, 5]
    assert odd_even_ordering(7) == [1, 3, 5, 0, 2, 4, 6]
    assert check_q_ordering(pattern, even_odd_ordering(7)) is None
    assert check_q_ordering(pattern, odd_even_ordering(7)) is None
    assert check_q_ordering(pattern, natural_ordering(7)) == (0, 2)


def test_q_ordering_validation(c32_pattern):
    with pytest.raises(ValueError):
        check_q_ordering(c32_pattern, [0, 1, 2])


def test_ordering_report_json(c32_fb):
    # the qcheck report builds each ordering's section from the
    # violation that check_q_ordering returns
    from uniformq.cli import _Instance

    reports, ok = _Instance(c32_fb, 0).orderings("natural")
    assert reports == [{"name": "natural", "negative_control": False,
                        "ordering": natural_ordering(7),
                        "tridiagonal": False, "violation": [0, 2]}]
    assert not ok


def test_hypercube_natural_order_is_q_polynomial():
    # with beta = 2 the quadratic factor vanishes at |theta_i - theta_j|
    # = sqrt(rho) = 2, i.e. between ADJACENT hypercube eigenvalues: the
    # pattern is the |i-j| <= 1 band and the natural ordering certifies,
    # unlike the dual polar instances
    from uniformq.candidate import candidate_search
    from uniformq.uniform import fit_uniform_constant

    g, _ = hamming(5, 2)
    ctx = bfs_context(g, 0)
    split = lfr_split(g, ctx)
    res = candidate_search(fit_uniform_constant(split))
    assert res.accepted and res.candidate.beta == 2 and res.candidate.rho == 4
    astar = dual_diagonal(ctx, res.candidate.theta_star)
    twin = _spectral_projectors(split)
    assert [m for _, m in twin.spectrum.eigenvalues] == [1, 5, 10, 10, 5, 1]
    pattern = idempotent_pattern(twin, astar)
    for i in range(6):
        for j in range(6):
            assert pattern[i][j] == (abs(i - j) <= 1)
    assert check_q_ordering(pattern, natural_ordering(6)) is None
    assert check_q_ordering(pattern, even_odd_ordering(6)) is not None


def test_full_stack_hamming_instance():
    # end-to-end on the full bipartite graph of H(4,3): eps = 4 chains
    from uniformq.candidate import candidate_search, verify_tridiagonal
    from uniformq.uniform import (
        decompose_modules,
        fit_uniform_constant,
    )

    g, _ = hamming(4, 3)
    fb = full_bipartite(g, 0)
    ctx = bfs_context(fb, 0)
    split = lfr_split(fb, ctx)
    params = fit_uniform_constant(split)
    full = full_decomposition(split, params)
    certify_direct_sum(*per_level(full.modules, ctx))
    assert sum(m.diameter + 1 for m in full.modules) == 81
    res = candidate_search(params)
    assert res.accepted
    astar = dual_diagonal(ctx, res.candidate.theta_star)
    assert verify_tridiagonal(
        fb, astar, res.candidate.beta, 0, res.candidate.rho,
    ) == []
    pattern = idempotent_pattern(_spectral_projectors(split), astar)
    k = len(pattern)
    assert check_q_ordering(pattern, even_odd_ordering(k)) is None
    assert check_q_ordering(pattern, odd_even_ordering(k)) is None
