"""Acceptance suite: every criterion runs at its stated budget and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Exact arithmetic throughout: every equality below is bit-exact, no
tolerances anywhere.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

import pytest

from uniformq.candidate import (
    candidate_search,
    entrywise_oracle,
    verify_tridiagonal,
)
from uniformq.generators import (
    FormSpec,
    dual_polar,
    expected_intersection_numbers,
    intersection_numbers,
)
from uniformq.graphs import (
    bfs_context,
    full_bipartite,
    lfr_split,
    walk_counts_from,
)
from uniformq.poly import poly_gcd
from uniformq.scalars import quad
from uniformq.spectra import (
    _spectral_projectors,
    check_q_ordering,
    closed_form_spectrum,
    even_odd_ordering,
    idempotent_pattern,
    krawtchouk_charpoly,
    module_eigenvalues,
    natural_ordering,
    odd_even_ordering,
    spectrum_exact,
    verify_krat_scaling,
)
from uniformq.uniform import (
    closed_form_x,
    decompose_modules,
    fit_uniform,
    fit_uniform_constant,
    solve_x_scalars,
    verify_uniform,
)

from conftest import random_connected_graph
from dense import (
    Dense,
    charpoly,
    commutators,
    dual_diagonal,
    step_matrices,
    walk_matrix,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({description}): FAIL")
        raise
    elapsed = perf_counter() - start
    line = (
        f"criterion {number} ({description}): PASS "
        f"({elapsed:.2f}s < {budget_seconds:.0f}s)"
    )
    print(f"\n{line}")
    assert elapsed < budget_seconds, line


@pytest.fixture(scope="module")
def instance(c32, c32_fb, c32_ctx, c32_split, dp_params):
    return {
        "graph": c32,
        "fb": c32_fb,
        "ctx": c32_ctx,
        "split": c32_split,
        "params": dp_params,
    }


def test_criterion_1_dual_polar_construction():
    with criterion(1, "dual polar construction + intersection numbers", 10):
        g22, _ = dual_polar(FormSpec("C", 2, 2))
        assert g22.n == 15 and g22.is_regular() == 6
        g32, _ = dual_polar(FormSpec("C", 3, 2))
        assert g32.n == 135 and g32.is_regular() == 14
        c, a, b = intersection_numbers(g32)
        assert (c, a, b) == expected_intersection_numbers(2, 1, 3)
        assert c[1:] == (1, 3, 7)
        assert a[1:] == (1, 3, 7)
        assert b[:3] == (14, 12, 8)


def test_criterion_2_uniform_verification(instance):
    with criterion(2, "uniform structure verification and fit", 30):
        split, params = instance["split"], instance["params"]
        assert verify_uniform(split, params).passed
        fit = fit_uniform(split)
        assert fit.canonical is not None
        assert verify_uniform(split, fit.canonical).passed
        constant = fit_uniform_constant(split)
        assert constant is not None
        assert (constant.em(2), constant.ep(1), constant.fi(1)) == (
            Fraction(-4, 3), Fraction(-1, 6), Fraction(8),
        )


def test_criterion_3_candidate_synthesis(instance):
    with criterion(3, "candidate synthesis + exact tridiagonal relation", 60):
        result = candidate_search(instance["params"])
        assert result.accepted
        cand = result.candidate
        assert cand.theta_star == (-1, 0, Fraction(1, 2), Fraction(3, 4))
        assert cand.beta == Fraction(5, 2)
        assert cand.gamma == 0
        assert cand.rho == 36
        astar = dual_diagonal(instance["ctx"], cand.theta_star)
        fb = instance["fb"]
        assert verify_tridiagonal(
            fb, astar, cand.beta, cand.gamma, cand.rho) == []
        negative = verify_tridiagonal(fb, astar, cand.beta, cand.gamma, 37)
        assert len(negative) > 0


def test_criterion_4_module_decomposition(instance):
    with criterion(4, "thin module decomposition + x-scalars", 60):
        dec = decompose_modules(instance["split"], instance["params"])
        table = dec.multiplicities()
        assert sum(count * (d + 1) for (r, d), count in table.items()) == 135
        assert table[(0, 3)] == 1
        trivial = [m for m in dec.modules
                   if (m.endpoint, m.diameter) == (0, 3)]
        assert trivial[0].x_scalars == [14, 36, 56]
        for m in dec.modules:
            if m.diameter == 0:
                assert m.x_scalars == []
                continue
            linsys = solve_x_scalars(
                instance["params"], m.endpoint, m.diameter
            )
            closed = [closed_form_x(2, 1, 3, m.diameter, i)
                      for i in range(1, m.diameter + 1)]
            assert m.x_scalars == linsys == closed


def test_criterion_5_spectra(instance):
    with criterion(5, "exact spectra + dual Krawtchouk charpolys", 120):
        spec = spectrum_exact(instance["split"])
        squared = sorted(
            {int(Fraction(v * v)) for v in spec.values()}, reverse=True
        )
        assert squared == [98, 36, 8, 0]
        r2 = quad(0, 1, 2)
        assert spec.values() == [7 * r2, 6, 2 * r2, 0, -2 * r2, -6, -7 * r2]
        assert spec.values() == closed_form_spectrum(2, 1, 3)
        dec = decompose_modules(instance["split"], instance["params"])
        for m in dec.modules:
            hs = krawtchouk_charpoly(m.x_scalars)
            h = hs[m.diameter + 1]
            for root in module_eigenvalues(2, 1, 3, m.diameter):
                assert h(root) == 0
            assert poly_gcd(h, h.derivative()).degree == 0
            if m.diameter >= 1:
                assert verify_krat_scaling(
                    2, 1, 3, m.diameter, m.x_scalars
                ) is None


def test_criterion_6_q_polynomial_certification(instance):
    with criterion(6, "Q-polynomial certification", 120):
        twin = _spectral_projectors(instance["split"])
        spec = twin.spectrum
        astar = dual_diagonal(
            instance["ctx"], (-1, 0, Fraction(1, 2), Fraction(3, 4))
        )
        pattern = idempotent_pattern(twin, astar)
        k = len(pattern)
        for i in range(k):
            for j in range(k):
                if abs(i - j) not in (0, 2):
                    assert not pattern[i][j]
        assert check_q_ordering(pattern, even_odd_ordering(k)) is None
        assert check_q_ordering(pattern, odd_even_ordering(k)) is None
        assert check_q_ordering(pattern, natural_ordering(k)) is not None
        beta, rho = Fraction(5, 2), Fraction(36)
        vals = spec.values()
        for i in range(k):
            for j in range(k):
                if pattern[i][j] and i != j:
                    ti, tj = vals[i], vals[j]
                    assert ti * ti + tj * tj - beta * ti * tj - rho == 0


def test_criterion_7_property_suites():
    with criterion(7, "oracle equivalence on 50 random graphs", 60):
        rng = random.Random(20260808)
        shapes = [a + b + c for a in "lfr" for b in "lfr" for c in "lfr"]
        shapes += [a + b for a in "lfr" for b in "lfr"] + list("lfr")
        for trial in range(50):
            g = random_connected_graph(rng, rng.randint(5, 30))
            x = rng.randrange(g.n)
            ctx = bfs_context(g, x)
            split = lfr_split(g, ctx)
            a = g.adjacency_matrix()

            # L + F + R = A
            L, F, R = step_matrices(split)
            assert L + F + R == a

            # dual idempotent band: E*_i A E*_j = 0 for |i - j| > 1
            for u, v in g.edges():
                assert abs(ctx.dist[u] - ctx.dist[v]) <= 1

            # walk matrices match the brute-force oracle, shapes <= 3
            for shape in shapes:
                w = walk_matrix(split, shape)
                for y in range(g.n):
                    counts = walk_counts_from(g, ctx, shape, y)
                    col = [w[(z, y)] for z in range(g.n)]
                    assert col == counts

            # entrywise oracle equals the four commutator matrices
            theta = tuple(
                k + Fraction(1, k + 2)
                for k in range(ctx.eccentricity + 1)
            )
            mats = commutators(g, dual_diagonal(ctx, theta))
            for y in range(g.n):
                for z in range(g.n):
                    vals = entrywise_oracle(g, ctx, theta, y, z)
                    for got, mat in zip(vals, mats):
                        assert got == mat[(z, y)]

            # Cayley-Hamilton, exactly
            p = charpoly(a)
            acc = Dense.zeros(g.n, g.n)
            identity = Dense.identity(g.n)
            for c in reversed(p.coeffs):
                acc = acc * a + identity.scale(c)
            assert acc.is_zero()


def test_criterion_8_secondary_instance():
    with criterion(8, "C2(3) pipeline with clean eps<3 skip", 30):
        g, _ = dual_polar(FormSpec("C", 2, 3))
        assert g.n == 40 and g.is_regular() == 12
        assert intersection_numbers(g) == expected_intersection_numbers(
            3, 1, 2)
        fb = full_bipartite(g, 0)
        ctx = bfs_context(fb, 0)
        assert ctx.eccentricity == 2
        split = lfr_split(fb, ctx)
        constant = fit_uniform_constant(split)
        assert constant is not None
        assert verify_uniform(split, constant).passed
        spec = spectrum_exact(split)
        assert spec.values() == closed_form_spectrum(3, 1, 2)
        r3 = quad(0, 1, 3)
        assert spec.values() == [4 * r3, 3, 0, -3, -4 * r3]

        # the CLI pipeline must skip candidate stages cleanly (exit 0)
        import json

        from click.testing import CliRunner

        from uniformq.cli import main as cli_main
        from uniformq.graphs import format_edge_list

        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("c23fb.el", "w") as fh:
                fh.write(format_edge_list(fb))
            res = runner.invoke(cli_main, ["pipeline", "c23fb.el"])
            assert res.exit_code == 0
            data = json.loads(res.output)
            assert "eccentricity >= 3" in data["skipped"]["candidate"]
            assert data["uniform"]["verified"] is True
