import random
from fractions import Fraction
from functools import lru_cache

import pytest

from uniformq.candidate import (
    DualCandidate,
    candidate_search,
    closed_form_theta,
    entrywise_oracle,
    verify_relation,
    verify_tridiagonal,
)
from uniformq.generators import FormSpec, dual_polar, hamming
from uniformq.graphs import Graph, bfs_context, full_bipartite, lfr_split
from uniformq.scalars import quad
from uniformq.uniform import UniformParams, fit_uniform, fit_uniform_constant

from conftest import random_connected_graph
from dense import commutators, dual_diagonal


# -- dual_diagonal ---------------------------------------------------------------


def test_dual_diagonal_cycle(cycle6):
    ctx = bfs_context(cycle6, 0)
    assert dual_diagonal(ctx, (0, 1, 2, 3)) == [0, 1, 2, 3, 2, 1]


def test_dual_diagonal_shift(cycle6):
    ctx = bfs_context(cycle6, 0)
    base = dual_diagonal(ctx, (0, 1, 2, 3))
    shifted = dual_diagonal(ctx, (5, 6, 7, 8))
    assert shifted == [v + 5 for v in base]


def test_dual_diagonal_errors(cycle6):
    ctx = bfs_context(cycle6, 0)
    with pytest.raises(ValueError):
        dual_diagonal(ctx, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        dual_diagonal(ctx, (0, 1, 1, 3))  # repeat


# -- verify_tridiagonal ------------------------------------------------------------


def test_verify_tridiagonal_c32(c32_fb, c32_ctx):
    astar = dual_diagonal(c32_ctx, (-1, 0, Fraction(1, 2), Fraction(3, 4)))
    assert verify_tridiagonal(c32_fb, astar, Fraction(5, 2), 0, 36) == []


def test_verify_tridiagonal_negative_control(c32_fb, c32_ctx):
    astar = dual_diagonal(c32_ctx, (-1, 0, Fraction(1, 2), Fraction(3, 4)))
    residual = verify_tridiagonal(c32_fb, astar, Fraction(5, 2), 0, 37)
    assert len(residual) >= 1
    assert all(v != 0 for _, _, v in residual)


def test_gamma_vanishes_on_bipartite(c32_fb, c32_ctx):
    # if the relation holds with gamma = 0 it must fail for gamma != 0
    astar = dual_diagonal(c32_ctx, (-1, 0, Fraction(1, 2), Fraction(3, 4)))
    for gamma in (1, Fraction(-1, 3)):
        assert verify_tridiagonal(c32_fb, astar, Fraction(5, 2), gamma, 36)


def test_identity_astar_commutes(cycle6):
    # all commutators vanish
    assert verify_tridiagonal(cycle6, [1] * 6, 7, 0, 0) == []


def test_verify_tridiagonal_dimension_mismatch(cycle6):
    with pytest.raises(ValueError):
        verify_tridiagonal(cycle6, [1] * 5, 0, 0, 0)
    with pytest.raises(ValueError):  # an irrational A*
        verify_tridiagonal(cycle6, [quad(0, 1, 2)] + [1] * 5, 0, 0, 0)


def dense_residual(mats, beta, gamma, rho):
    """Row-major nonzero entries (z, y, value) of the dense residual
    matrix."""
    c3, cmix, c2, c1 = mats
    n = c3.rows
    bp1 = Fraction(beta) + 1
    found = []
    for idx in range(n * n):
        r = c3.entries[idx] + bp1 * cmix.entries[idx] \
            - gamma * c2.entries[idx] - rho * c1.entries[idx]
        if r != 0:
            found.append((idx // n, idx % n, r))
    return found


def assert_matches_dense(g, astar, mats, beta, gamma, rho):
    assert verify_tridiagonal(g, astar, beta, gamma, rho) == dense_residual(
        mats, beta, gamma, rho)


def test_verify_tridiagonal_matches_dense_twin_cycle6(cycle6):
    astar = [1] * 6
    assert_matches_dense(cycle6, astar, commutators(cycle6, astar),
                         7, 0, 0)


@pytest.mark.parametrize("bipartite", [True, False],
                         ids=["bipartite", "odd-cycle"])
@pytest.mark.parametrize("seed", range(3))
def test_verify_tridiagonal_matches_dense_twin_random(seed, bipartite):
    # A* is a random rational per vertex, not constant on levels
    rng = random.Random(seed)
    while True:
        g = random_connected_graph(rng, rng.randint(6, 14))
        if bipartite:
            g = full_bipartite(g, 0)
        if lfr_split(g, bfs_context(g, 0)).is_bipartite() == bipartite:
            break
    astar = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(g.n)]
    mats = commutators(g, astar)
    for beta, gamma, rho in [(Fraction(1, 3), 2, -5), (2, Fraction(-1, 3), 4)]:
        assert_matches_dense(g, astar, mats, beta, gamma, rho)


def test_verify_tridiagonal_matches_dense_twin_c32(c32_fb, c32_ctx):
    astar = dual_diagonal(c32_ctx, (-1, 0, Fraction(1, 2), Fraction(3, 4)))
    mats = commutators(c32_fb, astar)
    for gamma, rho in [(0, 36), (0, 37), (Fraction(-1, 3), 36)]:
        assert_matches_dense(c32_fb, astar, mats, Fraction(5, 2),
                             gamma, rho)


# -- entrywise oracle ---------------------------------------------------------------


def test_oracle_parity_zero(c32_fb, c32_ctx):
    # distance-2 pairs in a bipartite graph admit no length-3 walks
    theta = (-1, 0, Fraction(1, 2), Fraction(3, 4))
    y = c32_ctx.levels[1][0]
    z = c32_ctx.levels[1][1]
    first, _, _, _ = entrywise_oracle(c32_fb, c32_ctx, theta, y, z)
    assert first == 0


def test_oracle_cycle_example(cycle6):
    ctx = bfs_context(cycle6, 0)
    theta = (0, 1, 2, 3)
    first, mix, third, fourth = entrywise_oracle(cycle6, ctx, theta, 1, 0)
    assert first == 3 * (theta[1] - theta[0])
    assert fourth == theta[1] - theta[0]


def test_oracle_matches_matrix_products(cycle6):
    rng = random.Random(31)
    for g in [cycle6, random_connected_graph(rng, 8),
              random_connected_graph(rng, 12)]:
        ctx = bfs_context(g, 0)
        theta = tuple(
            k + Fraction(1, k + 2) for k in range(ctx.eccentricity + 1)
        )
        mats = commutators(g, dual_diagonal(ctx, theta))
        for _ in range(20):
            y, z = rng.randrange(g.n), rng.randrange(g.n)
            vals = entrywise_oracle(g, ctx, theta, y, z)
            for got, mat in zip(vals, mats):
                assert got == mat[(z, y)]


# -- the relation on the equation table ---------------------------------------------


@lru_cache(maxsize=None)
def relation_instance(name: str):
    """(graph, context, split) of the named bipartite instance."""
    if name.startswith("Q"):
        g, base = hamming(int(name[1:]), 2)[0], 0
    elif name.startswith("C32fb@"):
        base = int(name[6:])
        g = full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], base)
    elif name == "C23fb":
        g, base = full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0), 0
    elif name.startswith("H"):
        g, base = full_bipartite(hamming(int(name[1]), 3)[0], 0), 0
    else:  # "random<seed>": not uniform, so columns of a level differ
        rng = random.Random(int(name[6:]))
        g, base = full_bipartite(random_connected_graph(rng, 16), 0), 0
    ctx = bfs_context(g, base)
    return g, ctx, lfr_split(g, ctx)


def relation_cases(split, seed: int) -> list:
    """The synthesised candidate when there is one, each one-parameter
    perturbation of it, and random theta*, beta, gamma and rho."""
    rng = random.Random(seed)
    eps = split.ctx.eccentricity
    cases = []
    params = fit_uniform_constant(split)
    search = candidate_search(params) if eps >= 3 and params else None
    if search is not None and search.accepted:
        c = search.candidate
        cases.append(c)
        for k in range(eps + 1):
            theta = list(c.theta_star)
            theta[k] += Fraction(1, 7)
            cases.append(DualCandidate(tuple(theta), c.beta, c.gamma, c.rho))
        for db, dg, dr in [(1, 0, 0), (Fraction(-1, 3), 0, 0), (0, 1, 0),
                           (0, 0, 1)]:
            cases.append(DualCandidate(c.theta_star, c.beta + db,
                                       c.gamma + dg, c.rho + dr))
    for _ in range(8):
        theta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(eps + 1))
        cases.append(DualCandidate(
            theta, Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.choice([0, 0, 1])), Fraction(rng.randint(-50, 50))))
    return cases


def first_failing_column(ctx, residual):
    """(level, column) of the first column, in level order, with a
    nonzero residual entry on a lower level; None for none."""
    dist, pos = ctx.dist, ctx.position
    lower = [(dist[y], pos[y], y) for z, y, _ in residual if dist[z] < dist[y]]
    return min(lower)[::2] if lower else None


def oracle_residual(g, ctx, c, y, z):
    """Entry (z, y) of the relation's residual from walk enumeration."""
    first, mix, third, fourth = entrywise_oracle(g, ctx, c.theta_star, y, z)
    return first + (c.beta + 1) * mix - c.gamma * third - c.rho * fourth


RELATION_GRAPHS = ["Q3", "Q4", "Q5", "Q6", "C32fb@0", "C32fb@34", "C23fb",
                   "H33fb", "H43fb", "random1", "random2", "random3"]


@pytest.mark.parametrize("name", RELATION_GRAPHS)
def test_verify_relation_matches_column_route(name):
    # holds and the first failing column agree with the general sparse
    # evaluation of the relation, on every case
    g, ctx, split = relation_instance(name)
    cases = relation_cases(split, seed=len(name))
    held = 0
    for c in cases:
        astar = [c.theta_star[d] for d in ctx.dist]
        full = verify_tridiagonal(g, astar, c.beta, c.gamma, c.rho)
        failure = verify_relation(split, c)
        assert (failure is None) == (full == [])
        assert failure == first_failing_column(ctx, full)
        held += failure is None
    # the synthesised candidate holds wherever the search accepts one
    assert held == (len(cases) > 8)


@pytest.mark.parametrize("name", ["Q3", "Q4", "C23fb", "H33fb", "random1"])
def test_verify_relation_matches_walk_oracle(name):
    # the witness column has a nonzero entry below its level, and every
    # earlier column of that level none, by brute-force walk counting;
    # a relation that holds vanishes on sampled entries
    g, ctx, split = relation_instance(name)
    rng = random.Random(7)
    dist = ctx.dist
    for c in relation_cases(split, seed=3)[:10]:
        failure = verify_relation(split, c)
        if failure is None:
            for _ in range(40):
                y, z = rng.randrange(g.n), rng.randrange(g.n)
                assert oracle_residual(g, ctx, c, y, z) == 0
            continue
        i, witness = failure
        level = ctx.levels[i]
        rows = [z for z in range(g.n) if i - 3 <= dist[z] < i]
        for y in level[:level.index(witness) + 1]:
            failing = any(oracle_residual(g, ctx, c, y, z) for z in rows)
            assert failing == (y == witness)


def test_verify_relation_fails_on_the_cubic_scalar():
    # on the path 0-1-2-3 every equation holds and only the L^3 block
    # fails: (t_3 - t_0) + (beta+1)(t_1 - t_2) = 3 - 1 = 2 at (0, 3)
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    split = lfr_split(g, bfs_context(g, 0))
    c = DualCandidate((-1, 0, 1, 2), Fraction(0), Fraction(0), Fraction(2))
    assert verify_relation(split, c) == (3, 3)
    full = verify_tridiagonal(g, [-1, 0, 1, 2], c.beta, c.gamma, c.rho)
    assert full == [(0, 3, 2), (3, 0, -2)]


def test_verify_relation_fails_on_gamma(c32_fb, c32_ctx, c32_split,
                                        dp_params):
    # gamma != 0 leaves level 1 alone and fails every column of level 2,
    # on the L^2 block only: -gamma (t_2 - t_0) c_2 = -(3/2) 3 at (0, y)
    c = candidate_search(dp_params).candidate
    c = DualCandidate(c.theta_star, c.beta, Fraction(1), c.rho)
    first = c32_ctx.levels[2][0]
    assert verify_relation(c32_split, c) == (2, first)
    astar = [c.theta_star[d] for d in c32_ctx.dist]
    full = verify_tridiagonal(c32_fb, astar, c.beta, c.gamma, c.rho)
    below = [(z, v) for z, y, v in full
             if y == first and c32_ctx.dist[z] < 2]
    assert below == [(0, Fraction(-9, 2))]


def test_verify_relation_fails_on_a_later_column():
    # level 1 is {1, 2}, with one and two children: rho = 5 solves the
    # equation of column 1, and column 2's equation fails by c_c = -1
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)])
    ctx = bfs_context(g, 0)
    split = lfr_split(g, ctx)
    c = DualCandidate((-1, 0, 1), Fraction(1), Fraction(0), Fraction(5))
    assert ctx.levels[1] == (1, 2)
    assert verify_relation(split, c) == (1, 2)
    full = verify_tridiagonal(g, [-1, 0, 0, 1, 1, 1], c.beta, c.gamma, c.rho)
    assert [(z, y) for z, y, _ in full
            if ctx.dist[z] < ctx.dist[y] == 1] == [(0, 2)]


def test_verify_relation_argument_checks(cycle6, c32_split):
    with pytest.raises(ValueError, match="need 4 level values"):
        verify_relation(c32_split, DualCandidate((0, 1), 0, 0, 0))
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="bipartite"):
        verify_relation(lfr_split(g, bfs_context(g, 0)),
                        DualCandidate((0, 1), 0, 0, 0))


# -- synthesis steps ---------------------------------------------------------------


C32_EM = (0, Fraction(-4, 3), Fraction(-4, 3))
C32_EP = (Fraction(-1, 6), Fraction(-1, 6), 0)


@pytest.mark.parametrize("em, ep, f, step, reason", [
    ((0, 1, Fraction(-4, 3)), C32_EP, 8, 1, "e-_2 = 1"),
    (C32_EM, (1, Fraction(-1, 6), 0), 8, 1, "e+_1 = 1"),
    ((0, 2, Fraction(-4, 3)), (Fraction(1, 2), Fraction(-1, 6), 0), 8, 1,
     "e+_1 e-_2 = 1"),
    (C32_EM, (Fraction(-1, 6), Fraction(-1, 3), 0), 8, 1,
     "beta differs between levels: 5/2 vs 23/5"),
    ((0, 2, 2), (0, 0, 0), 1, 1, "beta = -2 is excluded"),
    ((0, 3, -3), (-3, 3, 0), 1, 3, "theta* values are not distinct"),
    ((0, 0, -2), (-2, 0, 0), (0, 1, 0), 4,
     "compatibility identity fails at level 2"),
    (C32_EM, C32_EP, (8, 8, 9), 5, "f_i is not constant across levels"),
], ids=["em2", "ep1", "ep1-em2", "beta-differs", "beta-excluded",
        "step3", "step4", "step5"])
def test_candidate_search_rejections(em, ep, f, step, reason):
    params = UniformParams(em, ep, (f,) * 3 if isinstance(f, int) else f)
    res = candidate_search(params)
    assert res.candidate is None
    assert (res.rejected_step, res.reason) == (step, reason)


def test_candidate_search_dual_polar(dp_params):
    res = candidate_search(dp_params)
    assert res.accepted
    cand = res.candidate
    assert cand.theta_star == (-1, 0, Fraction(1, 2), Fraction(3, 4))
    assert cand.beta == Fraction(5, 2)
    assert cand.gamma == 0
    assert cand.rho == 36


def test_candidate_search_c6_rejected(cycle6):
    split = lfr_split(cycle6, bfs_context(cycle6, 0))
    fit = fit_uniform(split)
    res = candidate_search(fit.canonical)
    assert not res.accepted
    assert res.rejected_step in (1, 4)


def test_candidate_search_nonconstant_f(dp_params):
    params = UniformParams(
        dp_params.e_minus, dp_params.e_plus, (8, 8, 9)
    )
    res = candidate_search(params)
    assert res.rejected_step == 5


def test_candidate_search_soundness(c32_fb, c32_ctx, dp_params):
    # the emitted candidate must satisfy the relation on the graph
    res = candidate_search(dp_params)
    astar = dual_diagonal(c32_ctx, res.candidate.theta_star)
    assert verify_tridiagonal(
        c32_fb, astar,
        res.candidate.beta, res.candidate.gamma, res.candidate.rho,
    ) == []


def test_candidate_search_requires_eps3():
    params = UniformParams.constant(2, Fraction(-1, 2), Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        candidate_search(params)


@pytest.mark.parametrize("maker, base", [
    ("hamming33", 0),
    ("hypercube4", 0),
])
def test_candidate_soundness_other_families(maker, base):
    # uniform + successful search implies the exact relation holds,
    # whatever the family
    from uniformq.generators import hamming
    from uniformq.uniform import fit_uniform_constant, verify_uniform

    g, _ = hamming(3, 3) if maker == "hamming33" else hamming(4, 2)
    fb = full_bipartite(g, base)
    ctx = bfs_context(fb, base)
    split = lfr_split(fb, ctx)
    params = fit_uniform_constant(split)
    assert params is not None and verify_uniform(split, params).passed
    res = candidate_search(params)
    assert res.accepted
    assert res.candidate.beta == 2  # the arithmetic-ladder branch
    astar = dual_diagonal(ctx, res.candidate.theta_star)
    assert verify_tridiagonal(
        fb, astar,
        res.candidate.beta, res.candidate.gamma, res.candidate.rho,
    ) == []


# -- closed-form theta ------------------------------------------------------------


def test_closed_form_theta_dual_polar():
    vals = [closed_form_theta(Fraction(5, 2), Fraction(-1, 2), i)
            for i in range(4)]
    assert vals == [-1, 0, Fraction(1, 2), Fraction(3, 4)]


def test_closed_form_theta_beta2():
    assert [closed_form_theta(2, -1, i) for i in range(5)] == [-1, 0, 1, 2, 3]


def test_closed_form_theta_matches_recurrence():
    # P(i) = beta P(i-1) - P(i-2), P(0) = 1, P(1) = -F1
    for beta, f1 in [(Fraction(5, 2), Fraction(-1, 2)),
                     (3, Fraction(2, 3)), (Fraction(7, 2), -2),
                     (1, Fraction(1, 2)), (-2, 3), (Fraction(-5, 2), 1)]:
        p = [Fraction(1), -Fraction(f1)]
        for _ in range(10):
            p.append(beta * p[-1] - p[-2])
        assert closed_form_theta(beta, f1, 0) == -1  # the normalisation
        for i in range(1, 11):
            assert closed_form_theta(beta, f1, i) == sum(p[1:i], Fraction(0))


@pytest.mark.parametrize("which", ["C32fb", "Q4"])
def test_closed_form_theta_matches_candidate_search(which, dp_params):
    # the ladder of the search against the closed form in beta and F(1),
    # F(1) = -(e+_1 - 1)/(e-_2 - 1) read off the parameters; Q_4 takes
    # the arithmetic branch beta = 2
    params = (dp_params if which == "C32fb"
              else fit_uniform_constant(relation_instance("Q4")[2]))
    cand = candidate_search(params).candidate
    f1 = -(params.ep(1) - 1) / (params.em(2) - 1)
    assert cand.beta == (Fraction(5, 2) if which == "C32fb" else 2)
    assert len(cand.theta_star) == params.eps + 1
    for i, t in enumerate(cand.theta_star):
        assert closed_form_theta(cand.beta, f1, i) == t
