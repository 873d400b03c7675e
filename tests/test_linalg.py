import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from uniformq._kernels import pykernels
from uniformq.linalg import (
    ExactMatrix,
    _pivot_table,
    column_space_basis,
    normalize_vector,
    nullspace,
    pivot_columns,
    rank,
    solve_linear,
)
from uniformq.poly import Poly
from uniformq.scalars import quad

from dense import Dense, charpoly


def charpoly_by_cofactors(m: ExactMatrix) -> Poly:
    """det(t I - m) expanded over permutations of polynomial entries."""
    n = m.rows
    entries = []
    for i in range(n):
        for j in range(n):
            base = Poly([-m[(i, j)]])
            if i == j:
                base = base + Poly.x()
            entries.append(base)
    total = Poly()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly([1])
        for i in range(n):
            term = term * entries[i * n + perm[i]]
        total = total + (sign * term if sign < 0 else term)
    return total


# -- slow twin of the pivot table: fraction-free (Bareiss) elimination ----------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


def _bareiss_echelon_full(flat: list[int], nrows: int, ncols: int):
    """Fraction-free row echelon form of an integer matrix: (rows, rank,
    pivot columns).  The returned rows span the same row space as the
    input."""
    rows = [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        piv = -1
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        prow = rows[r]
        for i in range(r + 1, nrows):
            ri = rows[i]
            f = ri[col]
            if f == 0:
                # update degenerates to a rescale; identity when pv == prev
                if pv != prev:
                    for j in range(col, ncols):
                        if ri[j]:
                            ri[j] = _exact_div(pv * ri[j], prev)
                continue
            for j in range(col, ncols):
                ri[j] = _exact_div(pv * ri[j] - f * prow[j], prev)
        prev = pv
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, r, pivots


def _int_nullspace(flat: list[int], nrows: int, ncols: int) -> list[list]:
    """Kernel basis of an integer matrix as primitive integer vectors,
    one per free column, whose entry there is positive."""
    rows, nrank, pivots = _bareiss_echelon_full(flat, nrows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_set):
        v = [0] * ncols
        v[f] = 1
        # echelon rows: solve pivots bottom-up; when a pivot does not
        # divide, scale the partial solution so that it does
        for r in range(nrank - 1, -1, -1):
            col = pivots[r]
            row = rows[r]
            acc = sum(map(mul, row[col + 1:], v[col + 1:]))
            scale = abs(row[col]) // gcd(acc, row[col])
            if scale != 1:
                v = [x * scale for x in v]
                acc *= scale
            v[col] = -acc // row[col]
        content = gcd(*v)
        basis.append([x // content for x in v])
    return basis


def _int_rows(m: ExactMatrix) -> list[int]:
    """m's entries, flat, each row scaled to integers."""
    flat = []
    for row in map(m.row, range(m.rows)):
        d = lcm(*(Fraction(x).denominator for x in row))
        flat.extend(int(x * d) for x in row)
    return flat


def bareiss_nullspace(m: ExactMatrix) -> list[list]:
    """The Bareiss kernel of m, each row scaled to integers first."""
    return _int_nullspace(_int_rows(m), m.rows, m.cols)


def bareiss_pivots(m: ExactMatrix) -> list[int]:
    """The pivot columns of m's Bareiss echelon form."""
    return _bareiss_echelon_full(_int_rows(m), m.rows, m.cols)[2]


def random_matrix(rng: random.Random, rational: bool) -> ExactMatrix:
    """A random matrix of 0..6 rows and 0..7 columns, often of low rank
    (a product through a narrow middle), with integer or rational
    entries."""
    r, c = rng.randint(0, 6), rng.randint(0, 7)

    def entry():
        if rational:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.choice([0, 0, 0, 1, -1, 2, -3, 5])

    if rng.random() < 0.4:
        k = rng.randint(1, 3)
        left = Dense(r, k, [entry() for _ in range(r * k)])
        right = ExactMatrix(k, c, [entry() for _ in range(k * c)])
        return left * right
    return ExactMatrix(r, c, [entry() for _ in range(r * c)])


# -- solve_linear ---------------------------------------------------------------


def test_solve_unique_example():
    a = Dense.from_rows([[1, Fraction(-1, 6)], [Fraction(-4, 3), 1]])
    x, basis = solve_linear(a, [4, 4])
    assert basis == []
    assert x == [6, 12]
    assert a.apply(x) == [4, 4]


def test_solve_identity():
    a = Dense.identity(3)
    assert solve_linear(a, [5, -1, Fraction(2, 7)]) == (
        [5, -1, Fraction(2, 7)], [])


def test_solve_inconsistent():
    a = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert solve_linear(a, [0, 1]) is None


def test_solve_affine():
    a = Dense.from_rows([[1, 1]])
    particular, basis = solve_linear(a, [3])
    assert a.apply(particular) == [3]
    assert len(basis) == 1
    assert a.apply(basis[0]) == [0]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_linear(Dense.identity(2), [1, 2, 3])


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(), st.data())
def test_solve_substitution_roundtrip(rows, cols, consistent, data):
    """None exactly when rank [a | b] > rank a, by the Bareiss twin;
    otherwise a particular solution, 0 at the free columns, and one
    kernel vector per free column, 1 there and 0 at the other free
    columns.  Half the right sides are images a x, so consistent."""
    entries = data.draw(st.lists(
        st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols
    ))
    a = Dense(rows, cols, entries)
    if consistent:
        rhs = a.apply(data.draw(st.lists(st.integers(-3, 3), min_size=cols,
                                         max_size=cols)))
    else:
        rhs = data.draw(st.lists(st.integers(-6, 6), min_size=rows,
                                 max_size=rows))
    aug = ExactMatrix(rows, cols + 1, [
        x for i in range(rows) for x in (*a.row(i), rhs[i])])
    pivots = bareiss_pivots(a)
    sol = solve_linear(a, rhs)
    assert (sol is None) == (len(bareiss_pivots(aug)) > len(pivots))
    if sol is None:
        return
    particular, basis = sol
    free = [c for c in range(cols) if c not in pivots]
    assert a.apply(particular) == rhs
    assert [particular[c] for c in free] == [0] * len(free)
    assert len(basis) == cols - len(pivots)
    for f, v in zip(free, basis):
        assert a.apply(v) == [0] * rows
        assert [v[c] for c in free] == [int(c == f) for c in free]


# -- charpoly ---------------------------------------------------------------------


def test_charpoly_examples():
    assert charpoly(ExactMatrix.from_rows([[0, 1], [4, 0]])) == Poly([-4, 0, 1])
    assert charpoly(ExactMatrix.zeros(3, 3)) == Poly([0, 0, 0, 1])
    p = charpoly(ExactMatrix.from_rows([[0, 1, 0], [6, 0, 1], [0, 12, 0]]))
    assert p == Poly([0, -18, 0, 1])
    # roots are 0 and +-3 sqrt 2
    assert p(0) == 0 and p(quad(0, 3, 2)) == 0 and p(quad(0, -3, 2)) == 0


def test_charpoly_non_square():
    with pytest.raises(ValueError):
        charpoly(ExactMatrix.zeros(2, 3))


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            m = ExactMatrix(
                n, n, [rng.randint(-5, 5) for _ in range(n * n)]
            )
            assert charpoly(m) == charpoly_by_cofactors(m)


def test_charpoly_rational_and_field_paths_agree():
    rng = random.Random(5)
    for _ in range(5):
        m = ExactMatrix(
            3, 3,
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(9)],
        )
        assert charpoly(m) == charpoly_by_cofactors(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.data())
def test_cayley_hamilton(n, data):
    entries = data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=n * n, max_size=n * n,
    ))
    a = Dense(n, n, entries)
    p = charpoly(a)
    acc = Dense.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc * a + Dense.identity(n).scale(c)
    assert acc.is_zero()


# -- nullspace and rank ------------------------------------------------------------


def test_nullspace_examples():
    assert nullspace(Dense.identity(3)) == []
    assert len(nullspace(ExactMatrix.zeros(2, 3))) == 3
    basis = nullspace(ExactMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def test_nullspace_vectors_satisfy_kernel():
    rng = random.Random(17)
    for _ in range(10):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Dense(r, c, [rng.randint(-3, 3) for _ in range(r * c)])
        basis = nullspace(m)
        assert len(basis) == len(bareiss_nullspace(m))
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        # stacked with the row space the basis has full rank
        stacked = ExactMatrix.from_rows(
            m.to_rows() + [[Fraction(x) for x in v] for v in basis]
        )
        assert bareiss_nullspace(stacked) == []


def test_integer_nullspace_is_primitive_integer():
    # the pivots 2 and 3 divide none of the back-substituted sums
    m = Dense.from_rows([[2, 1, 1], [0, 3, 1]])
    assert nullspace(m) == [[-1, -1, 3]]
    rng = random.Random(5)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(2, 6)
        m = Dense(r, c, [rng.randint(-5, 5) for _ in range(r * c)])
        for v in nullspace(m):
            assert all(type(x) is int for x in v)
            assert gcd(*v) == 1
            assert all(x == 0 for x in m.apply(v))


def test_nullspace_and_rank_match_bareiss_twin():
    # the same pivot columns, and byte-identical bases (repr tells 1
    # from Fraction(1)), on integer and rational matrices, the empty
    # shapes included
    rng = random.Random(23)
    shapes = [ExactMatrix.zeros(0, 0), ExactMatrix.zeros(0, 3),
              ExactMatrix.zeros(3, 0)]
    for m in shapes + [random_matrix(rng, rng.random() < 0.5)
                       for _ in range(400)]:
        twin = bareiss_nullspace(m)
        assert repr(nullspace(m)) == repr(twin)
        assert rank(m) == m.cols - len(twin)
        assert pivot_columns(m) == bareiss_pivots(m)


def full_length_table_kernel(table, ncols, rescales):
    """Slow twin of the support-tracking back-substitution: every row's
    sum and every rescaling run over the whole vector.  Appends each
    rescaling factor to rescales."""
    leads = {lead for lead, _ in table}
    basis = []
    for f in range(ncols):
        if f in leads:
            continue
        v = [0] * ncols
        v[f] = 1
        for lead, row in reversed(table):
            acc = sum(map(mul, row, v))
            if acc:
                p = row[lead]
                scale = abs(p) // gcd(acc, p)
                if scale != 1:
                    rescales.append(scale)
                    v = [x * scale for x in v]
                    acc *= scale
                v[lead] = -acc // p
        basis.append(v)
    return basis


def test_nullspace_matches_full_length_back_substitution():
    # wide random integer matrices, whose leads mostly do not divide the
    # back-substituted sums: the rescaling path, many times over
    rng = random.Random(41)
    rescales = []
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(2, 10)
        m = ExactMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        twin = full_length_table_kernel(_pivot_table(m), c, rescales)
        assert repr(nullspace(m)) == repr(twin)
    assert len(rescales) > 500


@pytest.mark.parametrize("case", ["c32fb", "q6"])
def test_module_kernels_match_bareiss_twin(case, c32_split, dp_params,
                                          monkeypatch):
    # every matrix the module decomposition eliminates: the kernels of L
    # (the only nullspaces), the value-0 elimination of M_r at each
    # endpoint below the top with ker L != 0, and the one of the filtered
    # vectors' coordinates per candidate value where an endpoint filters
    # (r = 1 on C_3(2) fb, over 8 and 12); the twin gives their ranks
    # and pivot columns too
    import uniformq.uniform as uniform_mod
    from uniformq.generators import hypercube
    from uniformq.graphs import bfs_context, lfr_split

    if case == "c32fb":
        split, params = c32_split, dp_params
    else:
        q6 = hypercube(6)[0]
        split = lfr_split(q6, bfs_context(q6, 0))
        params = uniform_mod.fit_uniform_constant(split)
    kernels, eliminated, filters = [], [], []

    def recording(a):
        kernels.append(a)
        return nullspace(a)

    def recording_pivots(a):
        eliminated.append(a)
        return pivot_columns(a)

    real_filter = uniform_mod._filtered_starts

    def recording_filter(split, r, free, starts, values):
        filters.append((r, len(values)))
        return real_filter(split, r, free, starts, values)

    monkeypatch.setattr(uniform_mod, "nullspace", recording)
    monkeypatch.setattr(uniform_mod, "pivot_columns", recording_pivots)
    monkeypatch.setattr(uniform_mod, "_filtered_starts", recording_filter)
    dec = uniform_mod.decompose_modules(split, params)
    eps = split.ctx.eccentricity
    endpoints = {m.endpoint for m in dec.modules} | set(dec.counted) - {eps}
    assert filters == ([(1, 2)] if case == "c32fb" else [])
    assert len(eliminated) == len(endpoints) + sum(n for _, n in filters)
    shapes = {(split.size(r - 1), split.size(r)) for r in range(eps)}
    assert kernels
    for a in kernels:  # L from level r to r - 1, 0 x 1 at r = 0
        assert (a.rows, a.cols) in shapes
        assert repr(nullspace(a)) == repr(bareiss_nullspace(a))
    for a in eliminated:
        twin = bareiss_pivots(a)
        assert pivot_columns(a) == twin and rank(a) == len(twin)


def test_irrational_entries_are_rejected():
    r2 = quad(0, 1, 2)
    m = ExactMatrix.from_rows([[r2, -2], [0, 1]])
    for op in (nullspace, rank, charpoly, lambda a: solve_linear(a, [1, 0])):
        with pytest.raises(ValueError):
            op(m)
    with pytest.raises(ValueError):
        solve_linear(Dense.identity(2), [r2, 0])


def test_normalize_vector():
    v = normalize_vector([Fraction(-2, 3), Fraction(4, 3)])
    assert v == [-1, 2] or v == [1, -2]
    assert normalize_vector([Fraction(0)]) == [0]


def test_column_space_basis():
    cols = [[1, 0, 1], [2, 0, 2], [0, 1, 1]]
    basis = column_space_basis(cols)
    assert len(basis) == 2
    with pytest.raises(ArithmeticError):
        column_space_basis(cols, expected_rank=3)


# -- kernels ------------------------------------------------------------------------


def test_charpoly_mod_against_exact():
    rng = random.Random(29)
    p = 2147483647
    for _ in range(5):
        n = rng.randint(1, 5)
        flat = [rng.randint(-8, 8) for _ in range(n * n)]
        exact = charpoly(ExactMatrix(n, n, flat))
        modded = pykernels.charpoly_mod(flat, n, p)
        assert [int(c) % p for c in exact.coeffs] == modded
