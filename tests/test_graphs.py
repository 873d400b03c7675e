import random

import pytest

from uniformq.generators import FormSpec, dual_polar, hypercube
from uniformq.graphs import (
    Graph,
    bfs_context,
    format_edge_list,
    full_bipartite,
    lfr_split,
    parse_edge_list,
    walk_counts_from,
    walk_matrix,
    walk_shape_count,
)

from conftest import random_connected_graph


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# -- construction and validation ------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1)])  # disconnected
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1), (0, 1)])  # duplicate
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])  # out of range


@pytest.mark.parametrize("n, adj, reason", [
    (2, [[1], []], "not symmetric"),  # one-way list
    (1, [[0]], "loop"),
    (2, [[1, 1], [0, 0]], "duplicate"),
    (2, [[1, 2], [0]], "out of range"),
    (2, [[-1], [0]], "out of range"),
    (3, [[1], [0]], "adjacency lists"),  # fewer lists than vertices
])
def test_graph_constructor_rejects_malformed_lists(n, adj, reason):
    # spectrum_exact and verify_tridiagonal read adjacency lists
    # differently, so only simple undirected graphs may be built
    with pytest.raises(ValueError, match=reason):
        Graph(n, adj)


def test_adjacency_lists_are_sorted():
    # verify_tridiagonal bisects them; every builder is fed its
    # neighbours or edges out of order where it takes them as input
    rng = random.Random(3)
    graphs = [
        Graph(4, [[3, 1], [2, 0], [3, 1], [2, 0]]),
        Graph.from_edges(4, [(3, 2), (2, 1), (3, 0), (1, 0)]),
        parse_edge_list("4 4\n2 3\n1 2\n0 3\n0 1\n"),
        full_bipartite(random_connected_graph(rng, 12), 5),
        hypercube(4)[0],
        dual_polar(FormSpec("C", 2, 3))[0],
    ]
    for g in graphs:
        assert all(isinstance(nbrs, tuple) and list(nbrs) == sorted(nbrs)
                   for nbrs in g.adj)


def test_bfs_context_examples(cycle6):
    ctx = bfs_context(cycle6, 0)
    assert [len(l) for l in ctx.levels] == [1, 2, 2, 1]
    assert ctx.eccentricity == 3
    k4 = complete_graph(4)
    ctx4 = bfs_context(k4, 0)
    assert [len(l) for l in ctx4.levels] == [1, 3]
    assert ctx4.eccentricity == 1


def test_bfs_hypercube_levels():
    from uniformq.generators import hypercube

    q3, _ = hypercube(3)
    ctx = bfs_context(q3, 0)
    assert [len(l) for l in ctx.levels] == [1, 3, 3, 1]


def test_bfs_invalid_vertex(cycle6):
    with pytest.raises(ValueError):
        bfs_context(cycle6, 17)


def test_context_invariants(cycle6):
    ctx = bfs_context(cycle6, 0)
    assert ctx.dist[0] == 0
    assert sorted(v for lv in ctx.levels for v in lv) == list(range(6))
    for u, v in cycle6.edges():
        assert abs(ctx.dist[u] - ctx.dist[v]) <= 1


# -- L/F/R split -------------------------------------------------------------------


def test_lfr_cycle(cycle6):
    ctx = bfs_context(cycle6, 0)
    sp = lfr_split(cycle6, ctx)
    assert sp.F.is_zero()
    assert sum(sp.L.entries) == 6
    assert sp.L + sp.F + sp.R == cycle6.adjacency_matrix()
    assert sp.R == sp.L.transpose()


def test_lfr_triangle(triangle):
    ctx = bfs_context(triangle, 0)
    sp = lfr_split(triangle, ctx)
    assert not sp.F.is_zero()
    assert sp.L + sp.F + sp.R == triangle.adjacency_matrix()


def test_lfr_context_mismatch(cycle6, triangle):
    ctx = bfs_context(triangle, 0)
    with pytest.raises(ValueError):
        lfr_split(cycle6, ctx)


def test_lfr_random_partition():
    rng = random.Random(1)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 16))
        ctx = bfs_context(g, rng.randrange(g.n))
        sp = lfr_split(g, ctx)
        assert sp.L + sp.F + sp.R == g.adjacency_matrix()
        assert sp.R == sp.L.transpose()
        assert sp.F == sp.F.transpose()


def test_lowering_annihilates_below_zero(cycle6):
    ctx = bfs_context(cycle6, 0)
    sp = lfr_split(cycle6, ctx)
    power = sp.L
    for _ in range(ctx.eccentricity):
        power = sp.L * power
    assert power.is_zero()  # L^(eps+1) = 0


def test_dual_idempotent_band(cycle6):
    # E*_i A E*_j = 0 whenever |i - j| > 1
    ctx = bfs_context(cycle6, 0)
    a = cycle6.adjacency_matrix()
    for i in range(ctx.eccentricity + 1):
        for j in range(ctx.eccentricity + 1):
            if abs(i - j) > 1:
                prod = ctx.dual_idempotent(i) * a * ctx.dual_idempotent(j)
                assert prod.is_zero()


# -- walk shapes ----------------------------------------------------------------------


def test_walk_shape_examples(cycle6):
    ctx = bfs_context(cycle6, 0)
    assert walk_shape_count(cycle6, ctx, "lrl", 2, 1) == 1
    assert walk_shape_count(cycle6, ctx, "rl", 1, 1) == 1
    # too short: distance exceeds shape length
    assert walk_shape_count(cycle6, ctx, "l", 3, 0) == 0


def test_walk_shape_invalid(cycle6):
    ctx = bfs_context(cycle6, 0)
    with pytest.raises(ValueError):
        walk_shape_count(cycle6, ctx, "", 0, 0)
    with pytest.raises(ValueError):
        walk_shape_count(cycle6, ctx, "lxr", 0, 0)


def test_walk_matrix_shape_l(cycle6):
    ctx = bfs_context(cycle6, 0)
    sp = lfr_split(cycle6, ctx)
    assert walk_matrix(sp, "l") == sp.L
    assert walk_matrix(sp, "llr") == sp.R * sp.L * sp.L


def test_walk_matrix_oracle_cycle(cycle6):
    ctx = bfs_context(cycle6, 0)
    sp = lfr_split(cycle6, ctx)
    w = walk_matrix(sp, "llr")
    for y in range(6):
        counts = walk_counts_from(cycle6, ctx, "llr", y)
        for z in range(6):
            assert w[(z, y)] == counts[z]


def test_walk_matrix_oracle_random():
    # oracle equivalence holds for all shapes up to length 4
    rng = random.Random(2)
    shapes = ["l", "r", "f", "lr", "rl", "lrl", "rlr", "ffr", "llr",
              "llrr", "lrlr", "rllr", "frfl"]
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(4, 12))
        ctx = bfs_context(g, rng.randrange(g.n))
        sp = lfr_split(g, ctx)
        for shape in shapes:
            w = walk_matrix(sp, shape)
            for y in range(g.n):
                counts = walk_counts_from(g, ctx, shape, y)
                for z in range(g.n):
                    assert w[(z, y)] == counts[z]


# -- full bipartite -------------------------------------------------------------------


def test_full_bipartite_triangle(triangle):
    fb = full_bipartite(triangle, 0)
    assert fb.edges() == [(0, 1), (0, 2)]


def test_full_bipartite_keeps_bipartite(cycle6):
    assert full_bipartite(cycle6, 0) == cycle6


def test_full_bipartite_idempotent_and_distances():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 14))
        x = rng.randrange(g.n)
        fb = full_bipartite(g, x)
        assert full_bipartite(fb, x) == fb
        assert bfs_context(fb, x).dist == bfs_context(g, x).dist
        assert lfr_split(fb, bfs_context(fb, x)).is_bipartite()


# -- edge list format ------------------------------------------------------------------


def test_edge_list_round_trip(cycle6):
    text = format_edge_list(cycle6)
    assert parse_edge_list(text) == cycle6


def test_edge_list_comments():
    g = parse_edge_list("# a comment\n3 2\n0 1\n# another\n1 2\n")
    assert g.n == 3 and g.num_edges == 2


def test_edge_list_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # missing an edge line
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n1 0\n")  # violates u < v
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n0 9\n")  # out of range
    with pytest.raises(ValueError):
        parse_edge_list("3 3\n0 1\n1 2\n0 1\n")  # duplicate


def test_edge_list_too_few_edges_fails_before_allocating(monkeypatch):
    # n vertices need n - 1 edges to be connected; the header alone
    # decides it, so no adjacency list is built for a header like
    # "1000000000 1"
    def refuse(n, edges):
        raise AssertionError(f"allocated {n} adjacency lists")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(refuse))
    for text in ("5 1\n0 1\n", "1000000000 1\n0 1\n", "3 0\n"):
        with pytest.raises(ValueError, match="not connected"):
            parse_edge_list(text)
