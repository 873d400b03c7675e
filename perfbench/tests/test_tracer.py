"""The outside-in tracer records the right call tree and changes no
result."""

from __future__ import annotations

import random

import pytest
from click.testing import CliRunner

import tracer
import uniformq.cli  # noqa: F401  - every layer module must be loaded
from uniformq import _kernels, linalg, spectra, uniform
from uniformq._kernels import pykernels
from uniformq.generators import hypercube
from uniformq.graphs import format_edge_list
from uniformq.linalg import ExactMatrix


@pytest.fixture
def traced():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _names(t):
    return [s[0] for s in t.spans]


def test_by_name_import_nests_kernel_under_caller(traced):
    a = [1, 2, 3, 4]
    # spectra holds int_matmul_flat by name; the kernel is reached
    # through the pykernels / _kernels module attribute
    spectra.int_matmul_flat(a, a, 2, 2, 2)
    assert _names(traced) == ["linalg.int_matmul_flat", "kernels.imat_mul"]
    (_, s0, e0, p0), (_, s1, e1, p1) = traced.spans
    assert p0 == -1 and p1 == 0
    assert s0 <= s1 <= e1 <= e0


def test_every_reference_is_rebound_and_restored():
    originals = (linalg.rank, uniform.rank, pykernels.imat_mul,
                 _kernels.imat_mul, spectra.spectrum_exact,
                 uniformq.cli.spectrum_exact)
    t = tracer.Tracer()
    t.install()
    try:
        assert uniform.rank is linalg.rank is not originals[0]
        assert uniformq.cli.spectrum_exact is spectra.spectrum_exact
        # one object bound under two targets gets a single wrapper
        if originals[2] is originals[3]:
            assert pykernels.imat_mul is _kernels.imat_mul
    finally:
        t.uninstall()
    assert (linalg.rank, uniform.rank, pykernels.imat_mul, _kernels.imat_mul,
            spectra.spectrum_exact, uniformq.cli.spectrum_exact) == originals


def test_solve_linear_rows_counter(traced):
    m = ExactMatrix(3, 2, [1, 0, 0, 1, 1, 1])
    linalg.solve_linear(m, [1, 2, 3])
    assert traced.counters == {"linalg.solve_linear.rows": 3}


def test_wrapped_functions_return_identical_results():
    rng = random.Random(5)
    n = 12
    flat = [rng.randint(-3, 3) for _ in range(n * n)]
    m = ExactMatrix(n, n, flat)

    def compute():
        return (linalg.int_matmul_flat(flat, flat, n, n, n),
                linalg.rank(m), linalg.nullspace(m),
                linalg.charpoly_int(flat, n).coeffs)

    plain = compute()
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = compute()
    finally:
        t.uninstall()
    assert wrapped == plain
    assert t.spans


def test_traced_cli_report_is_byte_identical(tmp_path):
    graph, _ = hypercube(4)
    path = tmp_path / "q4.el"
    path.write_text(format_edge_list(graph))
    args = ["pipeline", str(path), "--base", "3"]
    runner = CliRunner()
    plain = runner.invoke(uniformq.cli.main, args)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = runner.invoke(uniformq.cli.main, args)
    finally:
        t.uninstall()
    assert wrapped.output == plain.output
    assert wrapped.exit_code == plain.exit_code
    assert "spectra.spectrum_exact" in _names(t)


def test_layer_metrics_busy_and_self_time():
    # f calls g, g recurses into g; h is a sibling of f
    trace = {
        "spans": [
            ["linalg.rank", 0.0, 10.0, -1],
            ["linalg.nullspace", 1.0, 5.0, 0],
            ["linalg.nullspace", 2.0, 3.0, 1],
            ["poly.poly_gcd", 11.0, 12.0, -1],
        ],
        "counters": {"linalg.solve_linear.rows": 7},
    }
    m = tracer.layer_metrics([trace, trace])
    assert m["linalg.rank.calls"] == 2
    assert m["linalg.rank.busy_s"] == 20.0
    assert m["linalg.rank.self_s"] == 12.0
    assert m["linalg.nullspace.calls"] == 4
    assert m["linalg.nullspace.busy_s"] == 8.0  # outermost spans only
    assert m["linalg.nullspace.self_s"] == 8.0
    assert m["linalg.solve_linear.rows"] == 14
    assert m["kernels.rank_mod.calls"] == 0
    assert tracer.top_level_seconds(trace) == 11.0
