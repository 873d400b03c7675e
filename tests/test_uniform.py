import json
import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from conftest import random_connected_graph, split_at
from dense import (
    dense_x_scalars,
    full_decomposition,
    module_rep_matrix,
    parameter_matrix,
    shifted_decomposition,
    step_matrices,
    w_chain,
    walk_matrix,
)
from uniformq._kernels import pykernels
from uniformq.cli import main
from uniformq.generators import FormSpec, dual_polar, hamming, hypercube
from uniformq.graphs import (
    Graph,
    LFRSplit,
    bfs_context,
    format_edge_list,
    full_bipartite,
    lfr_split,
    walk_counts_from,
)
from uniformq.linalg import (
    ExactMatrix,
    extend_pivot_table,
    normalize_vector,
    nullspace,
    solve_linear,
)
from uniformq.uniform import (
    Decomposition,
    TModule,
    UniformParams,
    _assert_chain,
    _equation_table,
    _kernel_of_lowering,
    closed_form_x,
    decompose_modules,
    fit_uniform,
    fit_uniform_constant,
    solve_x_scalars,
    validate_parameter_matrix,
    verify_uniform,
)


@pytest.fixture
def c6_split(cycle6):
    return lfr_split(cycle6, bfs_context(cycle6, 0))


def oracle_uniform_check(g, ctx, params):
    """Level-by-level identity check built from brute-force walk counts
    alone: e-_i * (l^2 r walks) + (l r l walks) + e+_i * (r l^2 walks)
    must equal f_i * (l walks), entrywise.  Independent of the matrix
    machinery under test."""
    for i in range(1, ctx.eccentricity + 1):
        em, ep, f = params.em(i), params.ep(i), params.fi(i)
        for y in ctx.levels[i]:
            a = walk_counts_from(g, ctx, "llr", y) if i >= 2 else [0] * g.n
            b = walk_counts_from(g, ctx, "lrl", y)
            c = walk_counts_from(g, ctx, "rll", y) \
                if i <= ctx.eccentricity - 1 else [0] * g.n
            d = walk_counts_from(g, ctx, "l", y)
            for z in range(g.n):
                if em * a[z] + b[z] + ep * c[z] != f * d[z]:
                    return False
    return True


# -- verify / fit ---------------------------------------------------------------


def test_verify_uniform_dual_polar(c32_split, dp_params):
    assert verify_uniform(c32_split, dp_params).passed


def test_verify_uniform_matches_walk_oracle(c32_fb, c32_ctx, c32_split, dp_params):
    assert oracle_uniform_check(c32_fb, c32_ctx, dp_params)


def test_verify_uniform_c6_family(cycle6, c6_split):
    # one free parameter family: e+_2 = -e-_2, f = (2 + e+_1, 1, e-_3 + 2)
    rng = random.Random(9)
    ctx = c6_split.ctx
    for _ in range(5):
        em2, em3, ep1 = (
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)
        )
        params = UniformParams(
            (0, em2, em3), (ep1, -em2, 0), (2 + ep1, 1, em3 + 2)
        )
        assert verify_uniform(c6_split, params).passed
        assert oracle_uniform_check(cycle6, ctx, params)


def test_verify_uniform_all_zero_fails(c6_split):
    params = UniformParams.constant(3, 0, 0, 0)
    check = verify_uniform(c6_split, params)
    assert not check.passed
    assert check.level is not None and check.witness is not None


def dense_uniform_check(split, params):
    """Slow twin of verify_uniform: the identity's columns from the dense
    walk matrices RL^2, LRL, L^2R and L, level by level in vertex order.
    Returns (level, witness) of the first failing column."""
    mats = [walk_matrix(split, shape) for shape in ("llr", "lrl", "rll", "l")]
    for i in range(1, split.ctx.eccentricity + 1):
        em, ep, f = params.em(i), params.ep(i), params.fi(i)
        for y in split.ctx.levels[i]:
            cols = [m.column(y) for m in mats]
            residual = [em * a + b + ep * c - f * d
                        for a, b, c, d in zip(*cols)]
            if any(residual):
                return i, y
    return None


def assert_uniform_matches_dense(split, params):
    """verify_uniform and its dense twin agree: where the identity fails,
    the same (level, witness); where it holds, the verdict and reason of
    the parameter matrix conditions.  Returns the twin's."""
    check = verify_uniform(split, params)
    twin = dense_uniform_check(split, params)
    if twin is None:
        reason = validate_parameter_matrix(params)
        assert (check.passed, check.reason) == (reason is None, reason)
    else:
        assert not check.passed
        assert (check.level, check.witness) == twin
    return twin


def perturbed_params(split):
    """A base triple per level, the per-level fit where it has one and
    zeros elsewhere, then that base with e-, e+ or f moved by 1/3 at the
    first, a middle and the last level (the convention slots e-_1 and
    e+_eps stay 0)."""
    eps = split.ctx.eccentricity
    base = [list(sol[0]) if sol is not None else [0, 0, 0]
            for sol in fit_uniform(split).levels]
    yield UniformParams(*zip(*base))
    for level in sorted({1, (eps + 1) // 2, eps}):
        for k in range(3):
            if (k, level) in ((0, 1), (1, eps)):
                continue
            triples = [list(t) for t in base]
            triples[level - 1][k] += Fraction(1, 3)
            yield UniformParams(*zip(*triples))


@pytest.mark.parametrize("case", ["c6-zero", "c6-f", "c32-f3", "c32-f1",
                                  "c32-ep2", "random"])
def test_verify_uniform_matches_dense_twin(case, c6_split, c32_split,
                                           dp_params):
    if case == "random":
        # full bipartite graphs with and without a uniform structure
        # (two of the six, both with eps = 4, have one); a perturbation
        # fails at the level it moves unless an earlier level fails
        failures = []
        for split in random_fb_splits(6):
            for params in perturbed_params(split):
                twin = assert_uniform_matches_dense(split, params)
                failures.append(twin[0] if twin else None)
        assert failures.count(None) == 2
        assert set(failures) == {None, 1, 2, 4}
        return
    if case.startswith("c6"):
        split = c6_split
        good = UniformParams((0, 2, 3), (1, -2, 0), (3, 1, 5))
    else:
        split, good = c32_split, dp_params
    em, ep, f = (list(t) for t in (good.e_minus, good.e_plus, good.f))
    if case == "c6-zero":
        em, ep, f = [0] * 3, [0] * 3, [0] * 3
    elif case in ("c6-f", "c32-f3"):
        f[2] += 1
    elif case == "c32-f1":
        f[0] = Fraction(15, 2)
    else:
        ep[1] = Fraction(-1, 7)
    assert assert_uniform_matches_dense(split, UniformParams(em, ep, f))
    assert assert_uniform_matches_dense(split, good) is None


def random_fb_splits(count):
    rng = random.Random(1)
    for _ in range(count):
        g = full_bipartite(random_connected_graph(rng, 10), 0)
        yield lfr_split(g, bfs_context(g, 0))


@pytest.mark.parametrize("case", ["c6", "c32", "random"])
def test_fit_matches_full_equation_system(case, c6_split, c32_split):
    # slow twin of the deduplicated fit: one equation per entry (z, y) of
    # the identity's columns, read off the dense walk matrices; the
    # random full bipartite graphs have levels with no solution
    splits = {"c6": [c6_split], "c32": [c32_split],
              "random": list(random_fb_splits(6))}[case]
    for split in splits:
        check_fit_against_full_system(split)
    if case == "c32":  # 4384 equations, 7 of them distinct
        assert sum(map(len, _equation_table(c32_split).values())) == 7


def check_fit_against_full_system(split):
    mats = [walk_matrix(split, shape) for shape in ("llr", "rll", "l", "lrl")]
    fit = fit_uniform(split)
    eps = split.ctx.eccentricity
    tables = _equation_table(split)
    all_rows, all_rhs = [], []
    for i, fitted in enumerate(fit.levels, start=1):
        rows, rhs, first = [], [], {}
        for y in split.ctx.levels[i]:
            for z in range(split.graph.n):
                a, c, d, b = (m[(z, y)] for m in mats)
                if a or b or c or d:
                    rows.append([a, c, -d])
                    rhs.append(Fraction(-b))
                    first.setdefault((a, c, -d, -b), y)
        # the table holds each distinct equation with its first column
        assert tables[i] == first
        all_rows += rows
        all_rhs += rhs
        pins = [[1, 0, 0]] if i == 1 else []
        pins += [[0, 1, 0]] if i == eps else []
        sol = solve_linear(ExactMatrix.from_rows(rows + pins),
                           rhs + [Fraction(0)] * len(pins))
        assert sol == fitted
    sol = solve_linear(ExactMatrix.from_rows(all_rows), all_rhs)
    if sol is None:
        assert fit_uniform_constant(split) is None
    else:
        assert fit_uniform_constant(split) == UniformParams.constant(
            eps, *sol[0])


def test_verify_uniform_requires_bipartite():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    split = lfr_split(tri, bfs_context(tri, 0))
    with pytest.raises(ValueError):
        verify_uniform(split, UniformParams.constant(1, 0, 0, 0))


def test_fit_uniform_contains_dual_polar(c32_split, dp_params):
    fit = fit_uniform(c32_split)
    assert fit.canonical is not None
    assert verify_uniform(c32_split, dp_params).passed


def test_fit_uniform_constant_recovers_dual_polar(c32_split, dp_params):
    params = fit_uniform_constant(c32_split)
    assert params is not None
    assert params.em(2) == Fraction(-4, 3)
    assert params.ep(1) == Fraction(-1, 6)
    assert params.fi(1) == 8
    assert verify_uniform(c32_split, params).passed


def test_fit_uniform_c6_level2(c6_split):
    fit = fit_uniform(c6_split)
    assert fit.canonical is not None
    particular, basis = fit.levels[1]
    # solution set {(t, -t, 1)}: one free parameter
    assert len(basis) == 1
    canonical = fit.canonical
    assert particular == [canonical.em(2), canonical.ep(2), canonical.fi(2)]
    triples = [list(t) for t in zip(*(fit.canonical.e_minus,
                                      fit.canonical.e_plus, fit.canonical.f))]
    for triple, member in (((5, -5, 1), True), ((0, 0, 1), True),
                           ((5, 5, 1), False), ((0, 0, 2), False)):
        triples[1] = triple
        check = verify_uniform(c6_split, UniformParams(*zip(*triples)))
        assert check.passed == member
        assert check.level == (None if member else 2)
    # fit round trip: the canonical representative verifies
    assert verify_uniform(c6_split, fit.canonical).passed


def test_fit_star_degenerate():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    split = lfr_split(star, bfs_context(star, 0))
    fit = fit_uniform(split)  # eps = 1: tiny but well defined
    assert fit.canonical is not None


# -- parameter matrix -------------------------------------------------------------


def test_params_from_json_takes_strings_and_ints():
    # a decimal string is exact; a JSON float or boolean is refused
    params = UniformParams.from_json({"e_minus": [0, "-1/2", "-0.5"],
                                      "e_plus": [-1, "2", "0"],
                                      "f": ["1", 1, 3]})
    assert params.e_minus == (0, Fraction(-1, 2), Fraction(-1, 2))
    assert params.e_plus == (-1, 2, 0) and params.f == (1, 1, 3)
    for value in (-0.5, False, None):
        with pytest.raises(ValueError, match="not a string or an integer"):
            UniformParams.from_json({"e_minus": [value, "-1/2"],
                                     "e_plus": ["-1/2", "0"], "f": [1, 1]})
    # a string is not read as a list of one-digit parameters
    with pytest.raises(ValueError, match="'00' are not a list"):
        UniformParams.from_json({"e_minus": "00", "e_plus": "00", "f": "11"})
    # a zero denominator is a ValueError that names the value, not
    # Fraction's ZeroDivisionError
    with pytest.raises(ValueError,
                       match=r"parameter '1/0' has a zero denominator"):
        UniformParams.from_json({"e_minus": [0, "-1/2"],
                                 "e_plus": ["1/0", "0"], "f": [1, 1]})


def test_parameter_matrix_shape(dp_params):
    u = parameter_matrix(dp_params)
    assert u.rows == u.cols == 3
    assert u[(0, 0)] == u[(1, 1)] == u[(2, 2)] == 1
    assert u[(1, 0)] == Fraction(-4, 3)
    assert u[(0, 1)] == Fraction(-1, 6)
    assert u[(0, 2)] == 0


def test_validate_dual_polar(dp_params):
    assert validate_parameter_matrix(dp_params) is None
    # e-e+ product: (-4/3)(-1/6) = 2/9 != 1
    assert dp_params.em(2) * dp_params.ep(1) == Fraction(2, 9)


def test_validate_singular_block():
    params = UniformParams((0, 1, 1), (1, 1, 0), (1, 1, 1))
    assert "singular" in validate_parameter_matrix(params)


def test_validate_zero_pair():
    params = UniformParams((0, 0, 1), (0, 1, 0), (1, 1, 1))
    assert "vanish" in validate_parameter_matrix(params)


# -- x-scalars ---------------------------------------------------------------------


def test_solve_x_scalars_examples(dp_params):
    assert solve_x_scalars(dp_params, 0, 3) == [14, 36, 56]
    assert solve_x_scalars(dp_params, 1, 2) == [12, 24]
    assert solve_x_scalars(dp_params, 2, 1) == [8]


def test_solve_x_scalars_range_checks(dp_params):
    with pytest.raises(ValueError):
        solve_x_scalars(dp_params, 0, 4)
    with pytest.raises(ValueError):
        solve_x_scalars(dp_params, 3, 1)


def test_solve_x_scalars_rejects_a_singular_leading_block():
    # U(0,3) = [[1, 1, 0], [1, 1, 1], [0, 1, 1]] has determinant -1, but
    # its leading block (1..2) is singular, so the parameter matrix is
    # invalid: the pivot sweep stops there, the dense twin solves it
    params = UniformParams((0, 1, 1), (1, 1, 0), (1, 1, 1))
    assert validate_parameter_matrix(params) == \
        "principal block (1..2) is singular"
    assert dense_x_scalars(params, 0, 3) == [0, 1, 0]
    with pytest.raises(ArithmeticError,
                       match=r"block \(1..2\) of U\(0,3\) is singular"):
        solve_x_scalars(params, 0, 3)
    # U(1,2) is the singular block itself; both routes refuse it
    for solve in (solve_x_scalars, dense_x_scalars):
        with pytest.raises(ArithmeticError, match=r"U\(1,2\)"):
            solve(params, 1, 2)
    assert solve_x_scalars(params, 2, 1) == dense_x_scalars(params, 2, 1)


def _determinant(rows):
    """The Leibniz sum over the permutations of the columns."""
    def sign(p):
        return (-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
    return sum(sign(p) * prod(row[j] for row, j in zip(rows, p))
               for p in permutations(range(len(rows))))


def _brute_force_reason(params):
    """validate_parameter_matrix's reason from the pair condition and the
    determinant of every contiguous block U(s..t), in (s, t) order."""
    eps = params.eps
    for i in range(2, eps + 1):
        if params.em(i) == 0 and params.ep(i - 1) == 0:
            return f"e-_{i} and e+_{i - 1} both vanish"
    u = parameter_matrix(params).to_rows()
    for s in range(1, eps + 1):
        for t in range(s, eps + 1):
            if _determinant([row[s - 1:t] for row in u[s - 1:t]]) == 0:
                return f"principal block ({s}..{t}) is singular"
    return None


# small values whose products e-_{i+1} e+_i often hit 1, so that blocks
# of every size come out singular
_entries = st.sampled_from([Fraction(v) for v in (
    0, 1, -1, 2, -2, 3, "1/2", "-1/2", "1/3", "2/3", "3/2", "-3/2")])


@st.composite
def _parameter_sets(draw):
    eps = draw(st.integers(1, 5))
    em = [Fraction(0)] + draw(st.lists(_entries, min_size=eps - 1,
                                       max_size=eps - 1))
    ep = draw(st.lists(_entries, min_size=eps - 1, max_size=eps - 1)) \
        + [Fraction(0)]
    f = draw(st.lists(st.integers(-3, 3), min_size=eps, max_size=eps))
    return UniformParams(em, ep, f)


@settings(max_examples=300, deadline=None)
@given(_parameter_sets())
def test_pivot_recurrence_matches_the_dense_twin(params):
    # the verdict and reason against brute-force determinants; the
    # x-scalars against the dense solve wherever every leading block of
    # U(r,d) is nonsingular, and where U(r,d) is singular the sweep
    # raises too
    reason = validate_parameter_matrix(params)
    assert reason == _brute_force_reason(params)
    eps = params.eps
    for r in range(eps):
        for d in range(1, eps - r + 1):
            try:
                x = solve_x_scalars(params, r, d)
            except ArithmeticError:
                assert reason is not None
                continue
            assert x == dense_x_scalars(params, r, d)
            assert all(type(v) is Fraction for v in x)
    if reason is None:
        return
    for r in range(eps):
        for d in range(1, eps - r + 1):
            try:
                dense_x_scalars(params, r, d)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    solve_x_scalars(params, r, d)


def test_closed_form_x_examples():
    assert closed_form_x(2, 1, 3, 3, 1) == 14
    assert closed_form_x(2, 1, 3, 3, 2) == 36
    assert closed_form_x(2, 1, 3, 3, 3) == 56
    assert closed_form_x(2, 1, 3, 2, 2) == 24
    assert closed_form_x(2, 1, 3, 1, 1) == 8


def test_closed_form_x_at_top():
    # i = d simplifies to b^(D+e-1)(b^d - 1)/(b - 1)
    for b, e, D, d in [(2, 1, 3, 2), (3, 1, 2, 2), (2, 2, 4, 3)]:
        b_, val = Fraction(b), closed_form_x(b, e, D, d, d)
        assert val == b_ ** (D + e - 1) * (b_ ** d - 1) / (b_ - 1)


def test_closed_form_x_irrational_rejected():
    with pytest.raises(ValueError):
        closed_form_x(2, Fraction(3, 2), 3, 2, 1)


def test_closed_form_x_rational_b():
    # rational b is accepted by every formula-level operation:
    # -(9/4)^(5/2) (4/9 - 1)(9/4 - 1) / (5/4)^2 = 27/8
    v = closed_form_x(Fraction(9, 4), Fraction(1, 2), 2, 1, 1)
    assert v == Fraction(27, 8)


# -- module decomposition ------------------------------------------------------------


# The twins below take ranks modulo the prime 2^61 - 1, not through the
# pivot table the decomposition itself uses.  Their verdicts keep their
# meaning: a rank modulo p never exceeds the rank over Q, so full rank
# modulo p implies full rank over Q, and a rank over Q below n forces
# the rank modulo p below n.
P61 = 2 ** 61 - 1


def rank_mod_p61(rows) -> int:
    ncols = len(rows[0]) if rows else 0
    flat = [x for row in rows for x in row]
    return pykernels.rank_mod(flat, len(rows), ncols, P61)


def certify_direct_sum(sizes, by_level) -> None:
    """Slow twin of the chain-relation certificate: the chain vectors on
    each level, given per level, form a basis of it (as many as the
    level has vertices, of full rank).  The stacked bases are
    block-diagonal by level, so this holds exactly when they form a
    direct sum of the standard module."""
    for size, vectors in zip(sizes, by_level):
        if len(vectors) != size or rank_mod_p61(vectors) != size:
            raise ArithmeticError("module bases do not form a direct sum")


def full_length(ctx, i, vec):
    """The level-i vector as a full-length coordinate vector."""
    out = [0] * ctx.graph.n
    for y, v in zip(ctx.levels[i], vec):
        out[y] = v
    return out


def stacked_rank(modules, ctx):
    """Slow twin of the whole certificate: the n x n rank of every chain
    vector stacked at full length, normalised as rows."""
    rows = [normalize_vector(full_length(ctx, m.endpoint + i, v))
            for m in modules for i, v in enumerate(m.basis)]
    return len(rows), rank_mod_p61(rows)


def per_level(modules, ctx):
    by_level = [[] for _ in ctx.levels]
    for m in modules:
        for i, v in enumerate(m.basis):
            by_level[m.endpoint + i].append(v)
    return [len(level) for level in ctx.levels], by_level


def test_decompose_c32(c32_split, dp_params):
    dec = decompose_modules(c32_split, dp_params)
    assert isinstance(dec, Decomposition)
    full = full_decomposition(c32_split, dp_params)
    assert sum(m.diameter + 1 for m in full.modules) == 135
    certify_direct_sum(*per_level(full.modules, c32_split.ctx))
    table = dec.multiplicities()
    assert table[(0, 3)] == 1
    assert (1, 2) in table
    only = [m for m in dec.modules if (m.endpoint, m.diameter) == (0, 3)]
    assert len(only) == 1
    assert only[0].x_scalars == [14, 36, 56]


def test_decompose_x_scalars_match_both_routes(c32_split, dp_params):
    dec = decompose_modules(c32_split, dp_params)
    for m in dec.modules:
        if m.diameter == 0:
            assert m.x_scalars == []
            continue
        assert m.x_scalars == solve_x_scalars(dp_params, m.endpoint, m.diameter)
        assert m.x_scalars == [
            closed_form_x(2, 1, 3, m.diameter, i)
            for i in range(1, m.diameter + 1)
        ]


def test_decompose_chain_relations(c32_split, dp_params):
    # the dense L and R of the walk oracle, on full-length vectors
    dec = decompose_modules(c32_split, dp_params)
    ctx = c32_split.ctx
    low, _, up = step_matrices(c32_split)
    for m in dec.modules[:10]:
        w = [full_length(ctx, m.endpoint + i, v)
             for i, v in enumerate(w_chain(m))]
        assert all(v == 0 for v in low.apply(w[0]))
        assert all(v == 0 for v in up.apply(w[-1]))
        for i in range(1, m.diameter + 1):
            assert low.apply(w[i]) == w[i - 1]
            lr = low.apply(up.apply(w[i - 1]))
            assert lr == [m.x_scalars[i - 1] * v for v in w[i - 1]]


@pytest.mark.parametrize("case", ["c32", "q6"])
def test_module_bases_are_level_local(case, c32_split, dp_params):
    if case == "c32":
        split, params = c32_split, dp_params
    else:
        q6 = hypercube(6)[0]
        split = lfr_split(q6, bfs_context(q6, 0))
        params = fit_uniform_constant(split)
    levels = split.ctx.levels
    for m in decompose_modules(split, params).modules:
        assert [len(w) for w in m.basis] == \
            [len(levels[m.endpoint + i]) for i in range(m.diameter + 1)]


def test_decompose_chains_are_primitive_integer(c32_split, dp_params):
    # the raised chains are integer, and so are the normalised w chains,
    # of content 1
    from math import gcd

    for m in decompose_modules(c32_split, dp_params).modules:
        assert all(type(v) is int for w in m.basis for v in w)
        entries = [v for w in w_chain(m) for v in w]
        assert all(type(v) is int for v in entries)
        assert gcd(*entries) == 1


def test_verify_uniform_rejects_an_invalid_parameter_matrix():
    # the identity on P_5 at base 0 is f_i = 1 + e-_i + e+_i (where those
    # exist), so e- = e+ = 0, f = 1 satisfies it, but the parameter
    # matrix conditions exclude it; e-_i = 1 for i >= 2 meets them
    split = split_at(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    zero = UniformParams.constant(4, 0, 0, 1)
    assert fit_uniform_constant(split) == zero
    check = verify_uniform(split, zero)
    assert not check.passed and check.level is None
    assert check.reason == "e-_2 and e+_1 both vanish"
    with pytest.raises(ValueError, match="on the parameter matrix: e-_2"):
        decompose_modules(split, zero)
    valid = UniformParams((0, 1, 1, 1), (0, 0, 0, 0), (1, 2, 2, 2))
    assert verify_uniform(split, valid).passed
    assert decompose_modules(split, valid).multiplicities() == {(0, 4): 1}


def test_decompose_requires_valid_params(c32_split):
    with pytest.raises(ValueError):
        decompose_modules(c32_split, UniformParams.constant(3, 0, 0, 0))


def test_decompose_module_count_per_endpoint(c32_split, dp_params):
    # endpoint-r module count equals dim(ker L) on level r
    full = full_decomposition(c32_split, dp_params)
    for r in range(4):
        expected = len(_kernel_of_lowering(c32_split, r))
        found = sum(1 for m in full.modules if m.endpoint == r)
        assert found == expected


def test_decompose_c6(cycle6, c6_split):
    fit = fit_uniform(c6_split)
    dec = decompose_modules(c6_split, fit.canonical)
    assert sum(m.diameter + 1 for m in dec.modules) == 6
    assert dec.multiplicities()[(0, 3)] == 1


def test_module_rep_matrix():
    from uniformq.uniform import TModule

    m = TModule(2, 1, [[1], [1]], [Fraction(8)])
    assert module_rep_matrix(m).to_rows() == [[0, 1], [8, 0]]
    m2 = TModule(0, 3, [[1]] * 4, [Fraction(14), Fraction(36), Fraction(56)])
    rep = module_rep_matrix(m2)
    assert rep.rows == 4
    assert rep[(0, 1)] == 1 and rep[(1, 0)] == 14
    assert rep[(2, 1)] == 36 and rep[(3, 2)] == 56
    m0 = TModule(3, 0, [[1]], [])
    assert module_rep_matrix(m0).to_rows() == [[0]]


def test_equation_table_built_once_per_split(c6_split, monkeypatch):
    import uniformq.uniform as uniform_mod

    real = uniform_mod._level_equations
    built = []

    def counting(split, i, shift):
        built.append(i)
        return real(split, i, shift)

    monkeypatch.setattr(uniform_mod, "_level_equations", counting)
    assert fit_uniform_constant(c6_split) is None  # none on C_6
    params = fit_uniform(c6_split).canonical
    assert verify_uniform(c6_split, params).passed
    decompose_modules(c6_split, params)
    assert built == [1, 2, 3]
    # a fresh split of the same graph builds its own table
    decompose_modules(lfr_split(c6_split.graph, c6_split.ctx), params)
    assert built == [1, 2, 3] * 2


def test_fitted_params_are_hashable(c6_split):
    q3 = hypercube(3)[0]
    for params in (fit_uniform(c6_split).canonical,
                   fit_uniform_constant(lfr_split(q3, bfs_context(q3, 0))),
                   UniformParams([0, 1], [1, 0], [2, 2])):
        assert all(isinstance(t, tuple)
                   for t in (params.e_minus, params.e_plus, params.f))
        assert params in {params}


@pytest.mark.parametrize("case", ["c32", "q6"])
def test_direct_sum_certificate_matches_stacked_rank(case, c32_split,
                                                    dp_params):
    if case == "c32":
        split, params = c32_split, dp_params
    else:
        q6 = hypercube(6)[0]
        split = lfr_split(q6, bfs_context(q6, 0))
        params = fit_uniform_constant(split)
    n = split.graph.n
    dec = full_decomposition(split, params)
    certify_direct_sum(*per_level(dec.modules, split.ctx))
    assert stacked_rank(dec.modules, split.ctx) == (n, n)
    # a chain vector repeated on level 1 breaks both certificates alike
    first = dec.modules[0]  # endpoint 0: a vector on every level
    second = next(m for m in dec.modules if m.endpoint == 1)
    broken = [m if m is not second else
              TModule(1, m.diameter, [first.basis[1]] + m.basis[1:],
                      m.x_scalars)
              for m in dec.modules]
    assert stacked_rank(broken, split.ctx)[1] < n
    with pytest.raises(ArithmeticError):
        certify_direct_sum(*per_level(broken, split.ctx))


def test_direct_sum_certificate_rejects_bad_levels():
    msg = "module bases do not form a direct sum"
    good = [[[1]], [[1, 0, 2], [0, 1, 0], [0, 0, 3]]]
    certify_direct_sum([1, 3], good)
    dependent = [[[1]], [[1, 0, 2], [0, 1, 0], [2, 1, 4]]]
    with pytest.raises(ArithmeticError, match=msg):
        certify_direct_sum([1, 3], dependent)
    too_few = [[[1]], [[1, 0, 2], [0, 1, 0]]]
    with pytest.raises(ArithmeticError, match=msg):
        certify_direct_sum([1, 3], too_few)
    too_many = [[[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]]
    with pytest.raises(ArithmeticError, match=msg):
        certify_direct_sum([1, 3], too_many)


# -- the LR eigenspaces against the S_d filtration --------------------------------


def _filtration_generator_space(d, x, powers, lowered, s_d_basis):
    """Kernel-coordinate basis of the diameter-d generator space: S_d cut
    down by the linear chain conditions L R^i v = x_{r+i} R^(i-1) v for
    1 <= i <= d.  It still covers S_d modulo S_{d-1}."""
    if d == 0:
        return s_d_basis
    # R^(d+1) v = 0 (no rows beyond the last level)
    rows = list(zip(*powers[d + 1]))
    # q L R^i v - p R^(i-1) v = 0 on level r+i-1, with x_{r+i} = p/q
    for i in range(1, d + 1):
        p, q = x[i - 1].numerator, x[i - 1].denominator
        for low, prev in zip(zip(*lowered[i]), zip(*powers[i - 1])):
            rows.append([q * a - p * b for a, b in zip(low, prev)])
    return nullspace(ExactMatrix.from_rows(rows))


def filtration_generators(split, params):
    """Slow twin of the LR eigenspaces: the S_d filtration.  For each
    endpoint r, S_d is the kernel vectors whose raising chain dies by d;
    the diameter-d generators extend those kept so far, a basis of
    S_{d-1}, to a basis of S_d, and one exact pivot table per endpoint
    decides which to keep.  Returns (r, d) -> (x-scalars, level-local
    generators)."""
    eps = split.ctx.eccentricity
    out = {}
    for r in range(eps + 1):
        kernel = _kernel_of_lowering(split, r)
        k = len(kernel)
        if k == 0:
            continue
        max_d = eps - r
        # R-powers of the kernel basis (powers[i] on level r+i) and
        # their lowerings (for the chain conditions)
        powers = [kernel]
        for i in range(max_d + 1):
            powers.append([split.raise_(r + i, v) for v in powers[-1]])
        lowered = [None] + [[split.lower(r + i, v) for v in powers[i]]
                            for i in range(1, max_d + 1)]
        table = []  # spans S_{d-1}: the generators kept so far
        for d in range(max_d + 1):
            # S_d in kernel coordinates: R^(d+1) v = 0
            if d == max_d:
                s_d = [[int(i == j) for i in range(k)] for j in range(k)]
            else:
                rows = list(zip(*powers[d + 1]))  # level r+d+1 coordinates
                s_d = nullspace(ExactMatrix.from_rows(rows))
            want = len(s_d) - len(table)
            if want == 0:
                continue
            x = solve_x_scalars(params, r, d) if d else []
            kept = []
            for coords in _filtration_generator_space(d, x, powers, lowered,
                                                      s_d):
                if extend_pivot_table(table, coords):
                    kept.append([sum(c * v[j] for c, v in zip(coords, kernel))
                                 for j in range(len(kernel[0]))])
                    if len(kept) == want:
                        break
            assert len(kept) == want, "chain filtration is inconsistent"
            out[r, d] = (x, kept)
    return out


TWIN_INSTANCES = {
    "cycle6": lambda: Graph.from_edges(  # the per-level fit
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
    "C_2(3)-fb": lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
    "B_2(3)-fb": lambda: full_bipartite(dual_polar(FormSpec("B", 2, 3))[0], 0),
    "Q_4": lambda: hypercube(4)[0],
    "Q_6": lambda: hypercube(6)[0],
    "H(3,3)-fb": lambda: full_bipartite(hamming(3, 3)[0], 0),
    "C_3(2)-fb": lambda: full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], 0),
    "H(4,3)-fb": lambda: full_bipartite(hamming(4, 3)[0], 0),
    "H(5,3)-fb": lambda: full_bipartite(hamming(5, 3)[0], 0),
}


@pytest.mark.parametrize("name", list(TWIN_INSTANCES))
def test_lr_eigenspaces_match_filtration_twin(name):
    # per type: the same x-scalars and multiplicity, and generators of
    # the same span (stacked ranks modulo 2^61 - 1; they are a basis of
    # the type's generator space, so the spans are equal when stacking
    # both adds no rank)
    g = TWIN_INSTANCES[name]()
    split = lfr_split(g, bfs_context(g, 0))
    params = fit_uniform_constant(split)
    if params is None:
        params = fit_uniform(split).canonical
    dec = full_decomposition(split, params)
    twin = filtration_generators(split, params)
    generators = {}
    for m in dec.modules:
        generators.setdefault((m.endpoint, m.diameter), []).append(
            m.basis[0])
    assert generators.keys() == twin.keys()
    for key, (x, count) in dec.types().items():
        twin_x, twin_gens = twin[key]
        gens = generators[key]
        assert x == twin_x and count == len(gens) == len(twin_gens)
        assert rank_mod_p61(gens) == rank_mod_p61(twin_gens) == count
        assert rank_mod_p61(gens + twin_gens) == count


@pytest.mark.parametrize("name, levels", [
    ("Q_6", [0, 1, 2, 3]),  # the chains of endpoints 0..3 fill levels 4..5
    ("C_3(2)-fb", [0, 1, 2]),  # every level below the top has generators
])
def test_kernel_elimination_skips_levels_the_chains_fill(name, levels,
                                                        monkeypatch):
    import uniformq.uniform as uniform_mod

    g = TWIN_INSTANCES[name]()
    split = lfr_split(g, bfs_context(g, 0))
    params = fit_uniform_constant(split)
    real = uniform_mod._kernel_of_lowering
    calls = []

    def counting(split, r):
        calls.append(r)
        return real(split, r)

    monkeypatch.setattr(uniform_mod, "_kernel_of_lowering", counting)
    dec = decompose_modules(split, params)
    assert calls == levels
    monkeypatch.undo()
    # the top level is counted; on every other level that the count
    # leaves out ker L is 0, and the route that eliminates every level
    # below the top finds the same modules
    eps = split.ctx.eccentricity
    assert all(real(split, r) == [] for r in range(eps) if r not in levels)
    shifted = shifted_decomposition(split, params)
    assert (dec.types(), dec.counted) == (shifted.types(), shifted.counted)
    assert full_decomposition(split, params).multiplicities() == \
        dec.multiplicities()


@pytest.mark.parametrize("name, message", [
    # the chains of endpoints 0, 1 and 2 put 2 (1 + 5 + 9) = 30 vectors
    # on level 3 (levels 1 and 2 get 2 of 6 and 12 of 15 vertices)
    ("Q_6", "30 chains reach level 3 of 20 vertices"),
    # the top level eps = 3 is the first one overfilled
    ("C_3(2)-fb", "72 chains reach level 3 of 64 vertices"),
])
def test_a_level_with_more_chain_vectors_than_vertices_is_an_error(
        name, message, monkeypatch):
    # every generator is taken twice, so every built chain is too
    import uniformq.uniform as uniform_mod

    g = TWIN_INSTANCES[name]()
    split = lfr_split(g, bfs_context(g, 0))
    params = fit_uniform_constant(split)
    real = uniform_mod._independent
    monkeypatch.setattr(uniform_mod, "_independent",
                        lambda free, vectors: 2 * real(free, vectors))
    with pytest.raises(ArithmeticError, match=f"^{message}$"):
        decompose_modules(split, params)


@pytest.mark.parametrize("name", ["C_2(3)-fb", "H(3,3)-fb", "C_3(2)-fb"])
def test_top_endpoint_forms_no_lowering_raising(name, monkeypatch):
    # level eps + 1 is empty, so L R = 0 on ker L at r = eps: the kernel
    # basis itself is the generators, all of diameter 0, with no L R
    # formed and no eigenspace taken there; the twin builds them
    import uniformq.uniform as uniform_mod

    g = TWIN_INSTANCES[name]()
    split = lfr_split(g, bfs_context(g, 0))
    eps = split.ctx.eccentricity
    real = uniform_mod._lowering_raising
    calls = []

    def counting(split, r, kernel):
        calls.append(r)
        return real(split, r, kernel)

    monkeypatch.setattr(uniform_mod, "_lowering_raising", counting)
    params = fit_uniform_constant(split)
    dec = decompose_modules(split, params)
    assert calls and eps not in calls
    top = [m for m in full_decomposition(split, params).modules
           if m.endpoint == eps]
    assert dec.counted[eps] == len(top)
    assert top and all(m.diameter == 0 and m.x_scalars == [] for m in top)
    assert [m.basis for m in top] == [[v] for v in
                                      _kernel_of_lowering(split, eps)]


@pytest.mark.parametrize("name", ["C_3(2)-fb", "Q_6", "H(3,3)-fb"])
def test_diameter_zero_modules_are_counted_not_built(name, monkeypatch):
    # no ker L elimination on the top level and no chain of diameter 0;
    # the counts are those of the twin, which builds the bases
    import uniformq.uniform as uniform_mod

    g = TWIN_INSTANCES[name]()
    split = lfr_split(g, bfs_context(g, 0))
    eps = split.ctx.eccentricity
    params = fit_uniform_constant(split)
    real_kernel, real_chain = (uniform_mod._kernel_of_lowering,
                               uniform_mod._build_chain)
    kernels, diameters = [], []

    def kernel(split, r):
        kernels.append(r)
        return real_kernel(split, r)

    def chain(*args):
        m = real_chain(*args)
        diameters.append(m.diameter)
        return m

    monkeypatch.setattr(uniform_mod, "_kernel_of_lowering", kernel)
    monkeypatch.setattr(uniform_mod, "_build_chain", chain)
    dec = decompose_modules(split, params)
    assert kernels and eps not in kernels
    assert diameters and 0 not in diameters
    assert all(m.diameter >= 1 for m in dec.modules)
    monkeypatch.undo()
    assert dec.counted
    assert full_decomposition(split, params).multiplicities() == \
        dec.multiplicities()


def _route_case(name):
    """The split and uniform structure of a route twin instance; P_5
    takes the structure of its identity that meets the parameter matrix
    conditions, Q_9 the benchmark's base vertex."""
    if name == "P_5":
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        return split_at(g), UniformParams((0, 1, 1, 1), (0, 0, 0, 0),
                                          (1, 2, 2, 2))
    g = hypercube(9)[0] if name == "Q_9" else TWIN_INSTANCES[name]()
    split = split_at(g, 137 if name == "Q_9" else 0)
    return split, (fit_uniform_constant(split)
                   or fit_uniform(split).canonical)


@pytest.mark.parametrize("name, fallback", [
    ("C_3(2)-fb", [(1, 2)]),  # L R on ker L at level 1 has eigenvalues 8, 12
    ("Q_6", []),
    ("cycle6", []),
    ("P_5", []),
    ("Q_9", []),
    ("H(4,3)-fb", [(1, 3), (2, 2)]),
    ("H(5,3)-fb", [(1, 4), (2, 3), (3, 2)]),
])
def test_pivot_route_matches_shifted_eigenspaces(name, fallback,
                                                 monkeypatch):
    # the generators read off the pivot columns of M_r, filtered where a
    # pivot image mixes eigenvalues, against the shifted eliminations of
    # the reference: the same types, x-scalars and counts; the filters
    # run, over (endpoint, number of candidate values), only where a
    # pivot image is no eigenvector
    import uniformq.uniform as uniform_mod

    split, params = _route_case(name)
    real = uniform_mod._filtered_starts
    ran = []

    def recording(split, r, free, starts, values):
        ran.append((r, len(values)))
        return real(split, r, free, starts, values)

    monkeypatch.setattr(uniform_mod, "_filtered_starts", recording)
    pivot = decompose_modules(split, params)
    assert ran == fallback
    shifted = shifted_decomposition(split, params)
    assert pivot.types() == shifted.types()
    assert pivot.counted == shifted.counted


def _leaky_raising(monkeypatch):
    """Raising a nonzero vector of ker L on a level i >= 1 adds 1 at the
    first vertex of level i + 1, so L R leaves ker L from r = 1 on."""
    real = LFRSplit.raise_

    def leaky(self, i, vec):
        out = real(self, i, vec)
        if i >= 1 and out and any(vec) and not any(self.lower(i, vec)):
            out = [out[0] + 1] + out[1:]
        return out

    monkeypatch.setattr(LFRSplit, "raise_", leaky)


def _perturbed_x(monkeypatch, change):
    import uniformq.uniform as uniform_mod

    real = uniform_mod.solve_x_scalars
    monkeypatch.setattr(uniform_mod, "solve_x_scalars",
                        lambda params, r, d: change(real, params, r, d))


def _swapped_x(monkeypatch):
    """x_2(1, 1) and x_2(1, 2) trade places (8 and 12 on C_3(2) fb): the
    eigenvalues stay, and each one's generators get the wrong diameter."""
    def change(real, params, r, d):
        x = real(params, r, d)
        if r == 1 and d in (1, 2):
            x = [real(params, 1, 3 - d)[0]] + x[1:]
        return x

    _perturbed_x(monkeypatch, change)


def _shifted_x(monkeypatch):
    """x_2(1, 1) is off by one, so the filters at level 1 are built for
    the values 9 and 12 of C_3(2) fb, and the one for 9 keeps the
    eigenvalue 8."""
    def change(real, params, r, d):
        x = real(params, r, d)
        return [x[0] + 1] + x[1:] if (r, d) == (1, 1) else x

    _perturbed_x(monkeypatch, change)


def _shifted_pivot_x(monkeypatch):
    """x_3(2, 1) is off by one, where the generators are the pivot
    images of M_2, whose eigenvalue 8 is read on the graph."""
    def change(real, params, r, d):
        x = real(params, r, d)
        return [x[0] + 1] + x[1:] if (r, d) == (2, 1) else x

    _perturbed_x(monkeypatch, change)


@pytest.mark.parametrize("perturb, message", [
    (_leaky_raising, "L R does not map ker L on level 1 into itself"),
    (_swapped_x, "has L R eigenvalue 12, not x_2(1, 2)"),
    (_shifted_x, "L R on ker L at level 1 has an eigenvalue other than "
                 "x_2(1, d): a generator filtered for 9"),
    (_shifted_pivot_x, "has L R eigenvalue 8, not x_3(2, 1)"),
])
def test_decompose_rejects_a_broken_eigenspace_split(perturb, message,
                                                     c32_fb, c32_split,
                                                     dp_params, tmp_path,
                                                     monkeypatch):
    # a structured ArithmeticError, never a wrong decomposition or an
    # IndexError; the CLI reports it with exit code 1
    perturb(monkeypatch)
    with pytest.raises(ArithmeticError) as exc:
        decompose_modules(c32_split, dp_params)
    assert message in str(exc.value)
    path = tmp_path / "c32fb.el"
    path.write_text(format_edge_list(c32_fb))
    res = CliRunner().invoke(main, ["modules", str(path)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert message in json.loads(res.stdout)["error"]


def test_decompose_rejects_a_corrupted_raised_vector(c32_split, dp_params,
                                                    monkeypatch):
    # each generator g starts its chain from R g, and its eigenvalue is
    # read off L R g, both computed once on the graph (``_start``); with
    # R g doubled at r = 1 (C_3(2) fb, filtered over 8 and 12) before
    # L R g is read from it, the pivot images still mix eigenvalues, the
    # filters built on the doubled L R g keep both, and the filtered
    # generators are no eigenvectors for their value
    import uniformq.uniform as uniform_mod

    real = uniform_mod._start

    def corrupted(split, r, gen):
        gen, up, low, value = real(split, r, gen)
        if r == 1:  # as read off 2 R g
            up, low = [2 * v for v in up], [2 * v for v in low]
            value = value and 2 * value
        return gen, up, low, value

    monkeypatch.setattr(uniform_mod, "_start", corrupted)
    with pytest.raises(ArithmeticError,
                       match=r"L R on ker L at level 1 has an eigenvalue "
                             r"other than x_2\(1, d\): a generator filtered "
                             r"for 8"):
        decompose_modules(c32_split, dp_params)


def test_decompose_rejects_a_chain_not_raised_from_its_generator(
        c32_split, dp_params, monkeypatch):
    # with R g doubled beside the true L R g, the eigenvalue read off
    # L R g is right, the first link is checked on that true L R g, and
    # every later lowering of the doubled chain steps down by its
    # x-scalar; only b_1 = R b_0 tells the chain apart from the raising
    # of g
    import uniformq.uniform as uniform_mod

    real = uniform_mod._start

    def doubled_up(split, r, gen):
        gen, up, low, value = real(split, r, gen)
        return gen, [2 * v for v in up], low, value

    monkeypatch.setattr(uniform_mod, "_start", doubled_up)
    with pytest.raises(ArithmeticError,
                       match="chain does not start with the raising of "
                             "its generator"):
        decompose_modules(c32_split, dp_params)


def test_chain_check_compares_raising_on_the_vectors(c32_split, dp_params):
    # the chain of type (0, 3) is its generator raised on the graph, and
    # it passes with the zero vector that ends its raising; cut below its
    # top, every lowering still steps down the chain, but its raising no
    # longer ends; a raised vector doubled breaks a lowering
    split = c32_split
    m = decompose_modules(split, dp_params).modules[0]
    assert (m.endpoint, m.diameter) == (0, 3)
    raised = [m.basis[0]]
    for i in range(4):
        raised.append(split.raise_(i, raised[-1]))
    assert raised[:4] == m.basis and not any(raised[4])
    low = split.lower(1, raised[1])
    _assert_chain(split, 0, raised, low, m.x_scalars)
    with pytest.raises(ArithmeticError,
                       match="raising does not step up the chain"):
        _assert_chain(split, 0, raised[:4], low, m.x_scalars[:2])
    raised[2] = [2 * v for v in raised[2]]
    with pytest.raises(ArithmeticError,
                       match="lowering does not step down the chain"):
        _assert_chain(split, 0, raised, low, m.x_scalars)


def test_level_maps_outside_the_levels(c32_split):
    # level 4 of C_3(2) fb has no coordinates: L maps its empty vector
    # to the zero vector of level 3, and R to the empty vector
    split = c32_split
    assert split.size(4) == split.size(-1) == 0
    assert split.lower(4, []) == [0] * split.size(3)
    assert split.raise_(4, []) == [] and split.lower(0, [1]) == []
