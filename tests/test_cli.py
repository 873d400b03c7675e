import hashlib
import json

import pytest
from click.testing import CliRunner

from uniformq.cli import main
from uniformq.graphs import format_edge_list, parse_edge_list


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, c32_fb):
    d = tmp_path_factory.mktemp("cli")
    (d / "c32fb.el").write_text(format_edge_list(c32_fb))
    return d


def test_gen_hypercube_stdout(runner):
    res = runner.invoke(main, ["gen", "hypercube", "--D", "3"])
    assert res.exit_code == 0
    g = parse_edge_list(res.output)
    assert g.n == 8 and g.num_edges == 12


def test_gen_dual_polar(runner, tmp_path):
    out = tmp_path / "c32.el"
    labels = tmp_path / "labels.json"
    res = runner.invoke(main, [
        "gen", "dual-polar-C", "--b", "2", "--D", "3",
        "-o", str(out), "--labels", str(labels),
    ])
    assert res.exit_code == 0
    g = parse_edge_list(out.read_text())
    assert g.n == 135
    table = json.loads(labels.read_text())
    assert len(table) == 135


def test_gen_dual_polar_c32_bytes_are_pinned(runner, tmp_path):
    # the benchmark's c32fb-full workload starts from exactly these bytes
    out = tmp_path / "c32.el"
    labels = tmp_path / "labels.json"
    res = runner.invoke(main, [
        "gen", "dual-polar-C", "--b", "2", "--D", "3",
        "-o", str(out), "--labels", str(labels),
    ])
    assert res.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b4bf84634dbd5dceb99710141ac772bf359c91cb16cec00ec40badd09e7c0769")
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == (
        "6cadc2770c42f3a1c617e50d5e9d8fc5c951ee836658724f856c182498a76a1a")


def test_gen_size_cap_exit2(runner):
    res = runner.invoke(main, ["gen", "dual-polar-C", "--b", "7", "--D", "5"])
    assert res.exit_code == 2
    # the exact count of these has over 4300 digits; it is never formed
    for args in (["dual-polar-C", "--b", "2", "--D", "30000"],
                 ["hypercube", "--D", "2000000"]):
        res = runner.invoke(main, ["gen", *args])
        assert res.exit_code == 2
        assert "more than 5000 vertices, the generators' cap" in res.stderr


def test_gen_missing_param_exit2(runner):
    res = runner.invoke(main, ["gen", "dual-polar-C", "--D", "3"])
    assert res.exit_code == 2


def test_fb_roundtrip(runner, tmp_path, cycle6):
    src = tmp_path / "c6.el"
    src.write_text(format_edge_list(cycle6))
    res = runner.invoke(main, ["fb", str(src), "--base", "0"])
    assert res.exit_code == 0
    assert parse_edge_list(res.output) == cycle6


def test_uniform_fit(runner, workdir):
    res = runner.invoke(main, ["uniform", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["epsilon"] == 3
    assert data["levels"] == [1, 14, 56, 64]
    assert data["uniform"]["verified"] is True
    assert data["uniform"]["e_minus"] == ["0", "-4/3", "-4/3"]
    assert data["uniform"]["f"] == ["8", "8", "8"]


def test_uniform_verify_file(runner, workdir, tmp_path, dp_params):
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(dp_params.to_json()))
    res = runner.invoke(main, [
        "uniform", str(workdir / "c32fb.el"), "--verify", str(pfile),
    ])
    assert res.exit_code == 0
    assert json.loads(res.output)["uniform"]["verified"] is True


def test_uniform_verify_bad_params(runner, workdir, tmp_path, dp_params):
    from uniformq.uniform import UniformParams

    bad = UniformParams(dp_params.e_minus, dp_params.e_plus, (8, 8, 9))
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(bad.to_json()))
    res = runner.invoke(main, [
        "uniform", str(workdir / "c32fb.el"), "--verify", str(pfile),
    ])
    assert res.exit_code == 1
    assert json.loads(res.output)["uniform"]["verified"] is False


def test_candidate_subcommand(runner, workdir):
    res = runner.invoke(main, ["candidate", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["beta"] == "5/2"
    assert data["rho"] == "36"
    assert data["gamma"] == "0"
    assert data["theta_star"] == ["-1", "0", "1/2", "3/4"]
    assert data["verified"] is True
    assert data["rejected_step"] is None


def test_modules_subcommand(runner, workdir):
    res = runner.invoke(main, ["modules", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    classes = {(m["r"], m["d"]): m for m in data["modules"]}
    assert classes[(0, 3)]["multiplicity"] == 1
    assert classes[(0, 3)]["x"] == ["14", "36", "56"]
    assert sum(m["multiplicity"] * (m["d"] + 1) for m in data["modules"]) == 135


def test_spectrum_subcommand(runner, workdir):
    res = runner.invoke(main, ["spectrum", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["radicand"] == 2
    assert sum(e["multiplicity"] for e in data["eigenvalues"]) == 135


def test_spectrum_non_bipartite_is_usage_error(runner, tmp_path):
    src = tmp_path / "c5.el"
    src.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    res = runner.invoke(main, ["spectrum", str(src)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "requires a bipartite graph" in res.stderr


def test_pipeline_full(runner, workdir):
    res = runner.invoke(main, ["pipeline", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["candidate"]["beta"] == "5/2"
    assert data["candidate"]["rho"] == "36"
    assert data["candidate"]["verified"] is True
    names = {o["name"]: o for o in data["ordering"]}
    assert names["even-odd"]["tridiagonal"] is True
    assert names["odd-even"]["tridiagonal"] is True
    assert names["natural"]["tridiagonal"] is False
    assert names["natural"]["negative_control"] is True
    assert data["skipped"] == {}


def test_pipeline_qcheck_natural_fails(runner, workdir):
    res = runner.invoke(main, [
        "pipeline", str(workdir / "c32fb.el"), "--qcheck", "natural",
    ])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["ordering"][0]["tridiagonal"] is False
    assert data["ordering"][0]["violation"] == [0, 2]


def test_pipeline_byte_determinism(runner, workdir):
    a = runner.invoke(main, ["pipeline", str(workdir / "c32fb.el")])
    b = runner.invoke(main, ["pipeline", str(workdir / "c32fb.el")])
    assert a.output == b.output


def test_pipeline_timings_flag(runner, workdir):
    res = runner.invoke(main, [
        "pipeline", str(workdir / "c32fb.el"), "--timings", "--no-spectrum",
    ])
    data = json.loads(res.output)
    assert "timings" in data
    assert "uniform" in data["timings"]


def test_pipeline_eps2_skips_cleanly(runner, tmp_path):
    from uniformq.generators import FormSpec, dual_polar
    from uniformq.graphs import full_bipartite

    g, _ = dual_polar(FormSpec("C", 2, 3))
    fb = full_bipartite(g, 0)
    src = tmp_path / "c23fb.el"
    src.write_text(format_edge_list(fb))
    res = runner.invoke(main, ["pipeline", str(src)])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert "eccentricity >= 3" in data["skipped"]["candidate"]
    assert data["uniform"]["verified"] is True
    assert data["spectrum"]["radicand"] == 3
    vals = {e["value"]["c"]: e["multiplicity"]
            for e in data["spectrum"]["eigenvalues"]}
    assert vals["4"] == 1  # 4 sqrt 3 is simple


def test_pipeline_malformed_input(runner, tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("2 1\n0 torch\n")
    res = runner.invoke(main, ["pipeline", str(bad)])
    assert res.exit_code == 2


def test_pipeline_missing_file(runner):
    res = runner.invoke(main, ["pipeline", "/nonexistent/g.el"])
    assert res.exit_code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "hypercube", "--D", "3", "-o", "{bad}"],
    ["gen", "hypercube", "--D", "3", "--labels", "{bad}"],
    ["fb", "{c6}", "-o", "{bad}"],
    ["pipeline", "{c6}", "-o", "{bad}"],
])
def test_unwritable_output_is_io_error(runner, tmp_path, cycle6, argv):
    # a file in a missing directory: exit 2 and one line, not a traceback
    src = tmp_path / "c6.el"
    src.write_text(format_edge_list(cycle6))
    paths = {"bad": str(tmp_path / "missing" / "out"), "c6": str(src)}
    res = runner.invoke(main, [a.format(**paths) for a in argv])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"error: cannot write {paths['bad']}: ")


def test_pipeline_c6_rejection(runner, tmp_path, cycle6):
    src = tmp_path / "c6.el"
    src.write_text(format_edge_list(cycle6))
    res = runner.invoke(main, ["pipeline", str(src)])
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["candidate"]["rejected_step"] in (1, 4)


def test_qcheck_subcommand(runner, workdir):
    res = runner.invoke(main, [
        "qcheck", str(workdir / "c32fb.el"), "--ordering", "even-odd",
    ])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["orderings"][0]["tridiagonal"] is True


def test_no_json_rendering(runner, workdir):
    res = runner.invoke(main, [
        "uniform", str(workdir / "c32fb.el"), "--no-json",
    ])
    assert res.exit_code == 0
    assert "verified: True" in res.output


@pytest.fixture
def q4_file(tmp_path):
    from uniformq.generators import hypercube

    src = tmp_path / "q4.el"
    src.write_text(format_edge_list(hypercube(4)[0]))
    return src


@pytest.mark.parametrize("argv", [
    ["uniform", "--verify"],
    ["candidate", "--params"],
    ["modules", "--params"],
    ["pipeline", "--verify-uniform"],
])
def test_mismatched_params_file_is_usage_error(runner, q4_file, tmp_path, argv):
    # two levels of parameters against eccentricity 4
    pfile = tmp_path / "p2.json"
    pfile.write_text(json.dumps(
        {"e_minus": ["0", "-1/2"], "e_plus": ["-1/2", "0"], "f": ["1", "1"]}))
    sub, flag = argv
    res = runner.invoke(main, [sub, str(q4_file), flag, str(pfile)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "error: bad parameter file" in res.stderr
    assert "parameter length 2 != eccentricity 4" in res.stderr


@pytest.mark.parametrize("sub", ["uniform", "modules", "pipeline"])
def test_single_vertex_fit_is_usage_error(runner, tmp_path, sub):
    src = tmp_path / "k1.el"
    src.write_text("1 0\n")
    res = runner.invoke(main, [sub, str(src)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "error: need eps >= 1" in res.stderr


def test_pipeline_computes_each_artifact_once(runner, q4_file, workdir,
                                              monkeypatch):
    # every reference to each function, in every uniformq module, is
    # swapped for one counting wrapper, so nested calls count too
    import sys

    from uniformq.graphs import Graph
    from uniformq.linalg import ExactMatrix

    counts = {}
    shapes = set()
    solved = []  # the (r, d) of each solve_x_scalars call

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if name == "solve_x_scalars":
                solved.append(args[1:])
            return fn(*args, **kwargs)
        return wrapper

    init = ExactMatrix.__init__

    def recording(self, rows, cols, entries):
        shapes.add((rows, cols))
        init(self, rows, cols, entries)

    monkeypatch.setattr(ExactMatrix, "__init__", recording)
    monkeypatch.setattr(Graph, "adjacency_matrix",
                        counting("adjacency_matrix", Graph.adjacency_matrix))
    targets = [("uniformq.spectra", "spectrum_exact"),
               ("uniformq._kernels", "charpoly_mod"),
               ("uniformq.spectra", "eigenspace_bases"),
               ("uniformq.spectra", "idempotent_pattern"),
               ("uniformq.spectra", "_spectral_projectors"),
               ("uniformq.uniform", "decompose_modules"),
               ("uniformq.linalg", "column_space_basis"),
               ("uniformq.candidate", "dual_diagonal"),
               ("uniformq.uniform", "fit_uniform_constant"),
               ("uniformq.uniform", "verify_uniform"),
               ("uniformq.uniform", "_level_equations"),
               ("uniformq.linalg", "rank"),
               ("uniformq.uniform", "solve_x_scalars")]
    modules = [m for key, m in list(sys.modules.items())
               if key.startswith("uniformq") and m is not None]
    for modname, attr in targets:
        orig = getattr(sys.modules[modname], attr)
        wrapper = counting(attr, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, wrapper)
    # Q_4 exits 1 only because its even-odd and odd-even orderings are
    # not Q-polynomial; C_3(2) fb passes every stage
    for path, code in [(q4_file, 1), (workdir / "c32fb.el", 0)]:
        counts.clear()
        shapes.clear()
        solved.clear()
        res = runner.invoke(main, ["pipeline", str(path)])
        assert res.exit_code == code
        data = json.loads(res.stdout)
        assert data["skipped"] == {} and data["candidate"]["verified"] is True
        # the thin modules need no exact rank, and one x-scalar solve per
        # (r, d) with 1 <= d <= eps - r at each endpoint where ker L != 0
        # (each such endpoint has a module), absent types included, and
        # no (r, d) solved twice
        assert "rank" not in counts
        eps = max(m["r"] + m["d"] for m in data["modules"])
        expected = [(r, d) for r in sorted({m["r"] for m in data["modules"]})
                    for d in range(1, eps - r + 1)]
        assert expected and sorted(solved) == expected
        assert counts.pop("solve_x_scalars") == len(expected)
        # the identity's equation table is built once per level; the
        # report's verification and the modules' both read it
        assert counts.pop("_level_equations") == data["epsilon"]
        assert counts.pop("verify_uniform") == 2
        # A stays in adjacency lists and A* is one diagonal, made once;
        # the Gram block's charpoly is taken once, and the idempotent
        # pattern is decided on the modules, with no spectral projector
        # and no eigenspace basis
        assert counts == {name: 1 for name in (
            "spectrum_exact", "charpoly_mod", "dual_diagonal",
            "fit_uniform_constant", "decompose_modules")}
        n = data["graph"]["n"]
        assert (n, n) not in shapes
    # qcheck is a view over the same artifacts: the modules once, and
    # the pattern from them
    counts.clear()
    solved.clear()
    res = runner.invoke(main, ["qcheck", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    assert sorted(solved) == expected
    assert counts.pop("solve_x_scalars") == len(expected)
    assert counts.pop("_level_equations") == data["epsilon"]
    assert counts.pop("verify_uniform") == 2
    assert counts == {name: 1 for name in (
        "spectrum_exact", "charpoly_mod", "dual_diagonal",
        "fit_uniform_constant", "decompose_modules")}


def _drop_last_module(monkeypatch):
    """Make the modules miss their last module, so that they no longer
    cover the spectrum."""
    from uniformq import cli
    from uniformq.uniform import Decomposition

    real = cli.decompose_modules

    def fewer(split, params):
        dec = real(split, params)
        return Decomposition(dec.modules[:-1], dec.vertex_count)

    monkeypatch.setattr(cli, "decompose_modules", fewer)


def _swap_multiplicities(monkeypatch):
    """Give the spectrum its values with the first two multiplicities
    swapped."""
    from dataclasses import replace

    from uniformq import cli

    real = cli.spectrum_exact

    def swapped(split):
        spec = real(split)
        (v0, m0), (v1, m1), *rest = spec.eigenvalues
        return replace(spec, eigenvalues=[(v0, m1), (v1, m0), *rest])

    monkeypatch.setattr(cli, "spectrum_exact", swapped)


@pytest.mark.parametrize("corrupt", [_drop_last_module, _swap_multiplicities])
def test_pattern_rejection_is_structured(runner, workdir, monkeypatch,
                                         corrupt):
    # modules that disagree with the spectrum reject the pattern: an
    # error in the report and exit 1, not a traceback
    corrupt(monkeypatch)
    path = str(workdir / "c32fb.el")
    res = runner.invoke(main, ["pipeline", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    data = json.loads(res.stdout)
    assert "qcheck" not in data["skipped"]
    assert "disagree" in data["ordering"]["error"]
    res = runner.invoke(main, ["qcheck", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    data = json.loads(res.stdout)
    assert data["candidate"]["verified"] and "disagree" in data["error"]


@pytest.mark.parametrize("stage, target, reason", [
    ("modules", "decompose_modules", "no module decomposition"),
    ("spectrum", "spectrum_exact", "no spectrum"),
])
def test_failed_stage_skips_qcheck(runner, workdir, monkeypatch, stage,
                                   target, reason):
    from uniformq import cli

    def failing(*args):
        raise ArithmeticError("stage failed")

    monkeypatch.setattr(cli, target, failing)
    path = str(workdir / "c32fb.el")
    res = runner.invoke(main, ["pipeline", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    data = json.loads(res.stdout)
    assert data[stage] == {"error": "stage failed"}
    assert data["skipped"] == {"qcheck": reason} and "ordering" not in data
    res = runner.invoke(main, ["qcheck", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert json.loads(res.stdout)["error"] == "stage failed"


def test_bipartite_pipeline_works_on_colour_class_blocks(runner, q4_file,
                                                        monkeypatch):
    # the spectrum and the idempotent pattern of a bipartite graph need
    # no sign split by modular ranks and no n x n x n product
    import sys

    from uniformq import _kernels

    calls = []
    rank_mod = _kernels.rank_mod
    monkeypatch.setattr(_kernels, "rank_mod",
                        lambda *args: calls.append("rank_mod")
                        or rank_mod(*args))
    orig = sys.modules["uniformq.linalg"].int_matmul_flat

    def int_matmul_flat(a, b, n, k, m):
        calls.append((n, k, m))
        return orig(a, b, n, k, m)

    for mod in [m for key, m in list(sys.modules.items())
                if key.startswith("uniformq") and m is not None]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, int_matmul_flat)
    res = runner.invoke(main, ["pipeline", str(q4_file)])
    assert res.exit_code == 1  # the natural negative control
    data = json.loads(res.stdout)
    assert data["skipped"] == {} and data["ordering"]
    assert len(data["spectrum"]["eigenvalues"]) == 5
    assert calls and "rank_mod" not in calls
    assert (16, 16, 16) not in calls


@pytest.mark.parametrize("argv", [
    ["candidate", "--theta", "2,2"],
    ["qcheck", "--theta", "2,2"],
    ["pipeline", "--candidate", "2,2"],
])
def test_equal_theta_pair_is_usage_error(runner, q4_file, argv):
    res = runner.invoke(main, [argv[0], str(q4_file), *argv[1:]])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "distinct" in res.stderr
