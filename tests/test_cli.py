import argparse
import hashlib
import json
import random
import sys

import pytest
from click.testing import CliRunner

from uniformq.cli import _parsers, main
from uniformq.graphs import Graph, format_edge_list, parse_edge_list


@pytest.fixture
def runner():
    return CliRunner()


def _patch_everywhere(monkeypatch, orig, wrapper):
    """Swap every reference to orig, in every uniformq module, for
    wrapper, so that nested calls go through it too."""
    for mod in [m for key, m in list(sys.modules.items())
                if key.startswith("uniformq") and m is not None]:
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, wrapper)


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


@pytest.mark.parametrize("args, flag", [
    (["hypercube", "--D", "3", "--b", "5", "--n", "7"], "--b"),
    (["hypercube", "--D", "3", "--n", "7"], "--n"),
    (["dual-polar-C", "--b", "2", "--D", "3", "--n", "9"], "--n"),
    (["hamming", "--D", "3", "--n", "3", "--b", "5"], "--b"),
], ids=["hypercube-b", "hypercube-n", "dual-polar-n", "hamming-b"])
def test_gen_rejects_an_option_its_family_does_not_take(runner, tmp_path,
                                                        args, flag):
    # an ignored option would write another graph than the one asked for
    out = tmp_path / "g.el"
    res = runner.invoke(main, ["gen", *args, "-o", str(out)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: {args[0]} takes no {flag}\n"
    assert not out.exists()


def test_gen_hypercube_small_d_names_only_d(runner):
    # the hypercube has no --n, so its message names D alone
    res = runner.invoke(main, ["gen", "hypercube", "--D", "0"])
    assert res.exit_code == 2
    assert res.stderr == "error: need D >= 2\n"


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


def test_spectrum_subcommand(runner, workdir):
    res = runner.invoke(main, ["spectrum", str(workdir / "c32fb.el")])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["radicand"] == 2
    assert sum(e["multiplicity"] for e in data["eigenvalues"]) == 135


def test_spectrum_over_the_cap_is_usage_error(runner, q4_file, monkeypatch):
    # Q_4's colour classes have 8 vertices each; over the cap, the view
    # exits 2 with the block size and the cap before any Gram entry
    from uniformq import cli, spectra

    grams = []
    gram = spectra._gram
    _patch_everywhere(monkeypatch, gram,
                      lambda *args: grams.append(1) or gram(*args))
    monkeypatch.setattr(cli, "GRAM_CAP", 7)
    res = runner.invoke(main, ["spectrum", str(q4_file)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert ("error: the Gram block is 8 x 8, over the dense spectrum's cap "
            "of 7 (GRAM_CAP)") in res.stderr
    assert grams == []
    monkeypatch.setattr(cli, "GRAM_CAP", 8)
    res = runner.invoke(main, ["spectrum", str(q4_file)])
    assert res.exit_code == 0 and grams == [1]


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


# the argv parametrisations below carry fixed ids, so that deleting a
# case renames no other; they keep the names that their positions gave
@pytest.mark.parametrize("argv", [
    ["gen", "hypercube", "--D", "3", "-o", "{bad}"],
    ["gen", "hypercube", "--D", "3", "--labels", "{bad}"],
    ["fb", "{c6}", "-o", "{bad}"],
    ["pipeline", "{c6}", "-o", "{bad}"],
], ids=["argv0", "argv1", "argv2", "argv3"])
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


@pytest.fixture
def q4_file(tmp_path):
    from uniformq.generators import hypercube

    src = tmp_path / "q4.el"
    src.write_text(format_edge_list(hypercube(4)[0]))
    return src


@pytest.mark.parametrize("argv", [
    ["uniform", "--verify"],
    ["candidate", "--params"],
    ["pipeline", "--verify-uniform"],
    ["pipeline", "--no-spectrum", "--verify-uniform"],
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_mismatched_params_file_is_usage_error(runner, q4_file, tmp_path, argv):
    # two levels of parameters against eccentricity 4; the file is read
    # and refused even when the later pipeline stages are disabled
    pfile = tmp_path / "p2.json"
    pfile.write_text(json.dumps(
        {"e_minus": ["0", "-1/2"], "e_plus": ["-1/2", "0"], "f": ["1", "1"]}))
    sub, *opts, flag = argv
    res = runner.invoke(main, [sub, str(q4_file), *opts, flag, str(pfile)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert "error: bad parameter file" in res.stderr
    assert "parameter length 2 != eccentricity 4" in res.stderr


@pytest.mark.parametrize("value", [-0.1, -0.5, True],
                         ids=["inexact-float", "exact-float", "boolean"])
@pytest.mark.parametrize("argv", [
    ["uniform", "--verify"],
    ["candidate", "--params"],
    ["pipeline", "--verify-uniform"],
], ids=["argv0", "argv1", "argv2"])
def test_params_file_rejects_floats_and_booleans(runner, q4_file, tmp_path,
                                                 argv, value):
    # -0.1 would read as -3602879701896397/36028797018963968 and true as
    # 1; even an exact float is refused, so values are strings or ints
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"e_minus": [0, value, "-1/2", "-1/2"],
                                 "e_plus": ["-1/2"] * 3 + [0],
                                 "f": [1] * 4}))
    sub, flag = argv
    res = runner.invoke(main, [sub, str(q4_file), flag, str(pfile)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "error: bad parameter file" in res.stderr
    assert f"parameter {value!r} is not a string or an integer" in res.stderr


def test_params_file_zero_denominator_is_usage_error(runner, q4_file,
                                                     tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"e_minus": [0, "1/0", "-1/2", "-1/2"],
                                 "e_plus": ["-1/2"] * 3 + [0],
                                 "f": [1] * 4}))
    res = runner.invoke(main, ["pipeline", str(q4_file), "--verify-uniform",
                               str(pfile)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert (f"error: bad parameter file {pfile}: parameter '1/0' has a "
            "zero denominator") in res.stderr


@pytest.mark.parametrize("content, reason", [
    ([1, 2], "parameters [1, 2] are not a JSON object with the keys "
             "e_minus, e_plus, f"),
    ("0", "parameters '0' are not a JSON object"),
    (None, "parameters None are not a JSON object"),
    ({"e_minus": [0, "-1/2", "-1/2", "-1/2"], "f": [1] * 4},
     "parameters lack the key(s) e_plus"),
    ({}, "parameters lack the key(s) e_minus, e_plus, f"),
], ids=["list", "string", "null", "one-key-missing", "empty-object"])
@pytest.mark.parametrize("argv", [
    ["uniform", "--verify"],
    ["pipeline", "--verify-uniform"],
], ids=["argv0", "argv1"])
def test_params_file_must_be_an_object_with_every_key(runner, q4_file,
                                                      tmp_path, argv,
                                                      content, reason):
    # a parameter file of the wrong shape is a usage error with a
    # reason, not Python's text for a failed index
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(content))
    sub, flag = argv
    res = runner.invoke(main, [sub, str(q4_file), flag, str(pfile)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert f"error: bad parameter file {pfile}: {reason}" in res.stderr


@pytest.mark.parametrize("argv", [
    ["uniform", "--verify"],
    ["candidate", "--params"],
    ["pipeline", "--verify-uniform"],
], ids=["uniform-verify", "candidate-params", "pipeline-verify-uniform"])
def test_bad_params_file_is_usage_error_below_eccentricity_3(runner, tmp_path,
                                                             argv):
    # C_2(3) fb has eccentricity 2, where candidate synthesis is skipped;
    # the parameter file is read, and refused, before that skip
    from uniformq.generators import FormSpec, dual_polar
    from uniformq.graphs import full_bipartite

    src = tmp_path / "c23fb.el"
    src.write_text(format_edge_list(
        full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0)))
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"e_minus": [0.5]}))
    sub, flag = argv
    res = runner.invoke(main, [sub, str(src), flag, str(pfile)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr == (f"error: bad parameter file {pfile}: parameters "
                          "lack the key(s) e_plus, f\n")


@pytest.mark.parametrize("sub", ["uniform", "candidate", "pipeline"])
def test_single_vertex_fit_is_usage_error(runner, tmp_path, sub):
    src = tmp_path / "k1.el"
    src.write_text("1 0\n")
    res = runner.invoke(main, [sub, str(src)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert ("error: base vertex 0 has eccentricity 0; a uniform structure "
            "needs eccentricity >= 1") in res.stderr


def test_pipeline_computes_each_artifact_once(runner, q4_file, workdir,
                                              monkeypatch):
    # every reference to each function, in every uniformq module, is
    # swapped for one counting wrapper, so nested calls count too
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
               ("uniformq.spectra", "_module_spectrum"),
               ("uniformq.spectra", "_gram"),
               ("uniformq._kernels", "charpoly_mod"),
               ("uniformq.spectra", "eigenspace_bases"),
               ("uniformq.spectra", "idempotent_pattern"),
               ("uniformq.spectra", "_spectral_projectors"),
               ("uniformq.uniform", "decompose_modules"),
               ("uniformq.linalg", "column_space_basis"),
               ("uniformq.candidate", "verify_tridiagonal"),
               ("uniformq.candidate", "verify_relation"),
               ("uniformq.uniform", "fit_uniform_constant"),
               ("uniformq.uniform", "verify_uniform"),
               ("uniformq.uniform", "_level_equations"),
               ("uniformq.linalg", "rank"),
               ("uniformq.uniform", "solve_x_scalars")]
    for modname, attr in targets:
        orig = getattr(sys.modules[modname], attr)
        _patch_everywhere(monkeypatch, orig, counting(attr, orig))
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
        # (r, d) that a chain reaches, none for the other d <= eps - r,
        # and no (r, d) solved twice; the endpoint that falls back to the
        # shifted eliminations (r = 1 on C_3(2) fb) solves every d there,
        # and on these two graphs each of them is a type
        assert "rank" not in counts
        expected = sorted((m["r"], m["d"]) for m in data["modules"]
                          if m["d"])
        assert expected and sorted(solved) == expected
        assert counts.pop("solve_x_scalars") == len(expected)
        # the identity's equation table is built once per level; the
        # report's verification, the modules' and the candidate's
        # relation check all read it.  decompose_modules verifies the
        # structure again on purpose: it is a public entry point and must
        # not certify modules from an unverified structure, and the
        # second check reads the table (0.19 ms on q9-verify)
        assert counts.pop("_level_equations") == data["epsilon"]
        assert counts.pop("verify_uniform") == 2
        # A stays in adjacency lists and A* is never built: the relation
        # is decided on the table, with no column walk; the spectrum and
        # the idempotent pattern are read off the modules, with no Gram
        # block, no charpoly, no spectral projector and no eigenspace
        # basis
        assert counts == {name: 1 for name in (
            "spectrum_exact", "_module_spectrum", "verify_relation",
            "fit_uniform_constant", "decompose_modules")}
        n = data["graph"]["n"]
        assert (n, n) not in shapes


def _random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize("graph", [
    Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)]),
    _random_tree(400, 1),
], ids=["tree7", "tree400"])
def test_no_modules_no_gram_block(runner, tmp_path, monkeypatch, graph):
    # a tree has no uniform structure, so no thin modules certify, and
    # pipeline reports no spectrum: it forms no Gram block and takes no
    # charpoly, which only the spectrum view does
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for modname, attr in [("uniformq.spectra", "_gram"),
                          ("uniformq._kernels", "charpoly_mod")]:
        orig = getattr(sys.modules[modname], attr)
        _patch_everywhere(monkeypatch, orig, counting(attr, orig))
    path = tmp_path / "tree.el"
    path.write_text(format_edge_list(graph))
    for extra in ([], ["--fb"]):
        res = runner.invoke(main, ["pipeline", str(path), *extra])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert calls == [], extra
        data = json.loads(res.stdout)
        assert data["skipped"]["spectrum"] == "no module decomposition"
    res = runner.invoke(main, ["spectrum", str(path)])
    assert res.exit_code == 1  # the squared spectrum is not rational
    assert calls == ["_gram", "charpoly_mod"]


def test_invalid_parameter_matrix_is_no_uniform_structure(runner, tmp_path):
    # on P_5 at base 0 both fits satisfy the identity, yet neither is a
    # uniform structure: the constant fit has e-_2 = e+_1 = 0, and the
    # per-level fit a singular principal block; both views reject it
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    path = tmp_path / "p5.el"
    path.write_text(format_edge_list(g))
    reason = "e-_2 and e+_1 both vanish"
    res = runner.invoke(main, ["pipeline", str(path)])
    assert res.exit_code == 1
    data = json.loads(res.stdout)
    assert data["uniform"]["verified"] is False
    assert data["uniform"]["invalid"] == reason
    assert data["skipped"]["modules"] == "no verified uniform structure"
    res = runner.invoke(main, ["uniform", str(path)])
    assert res.exit_code == 1
    data = json.loads(res.stdout)["uniform"]
    assert data["feasible"] and not data["verified"]
    assert data["invalid"] == reason
    # a structure of the same identity that meets the conditions
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"e_minus": [0, 1, 1, 1],
                                  "e_plus": [0, 0, 0, 0],
                                  "f": [1, 2, 2, 2]}))
    res = runner.invoke(main, ["uniform", str(path), "--verify", str(params)])
    assert res.exit_code == 0
    data = json.loads(res.stdout)["uniform"]
    assert data["verified"] and "invalid" not in data


def _drop_last_module(monkeypatch):
    """Make the modules miss their last module, so that they no longer
    fill V."""
    from dense import full_decomposition
    from uniformq import cli
    from uniformq.uniform import Decomposition

    def fewer(split, params):
        return Decomposition(full_decomposition(split, params).modules[:-1],
                             {})

    monkeypatch.setattr(cli, "decompose_modules", fewer)


def _swap_multiplicities(monkeypatch):
    """Give the spectrum its values with the first two multiplicities
    swapped."""
    from uniformq import cli

    real = cli.spectrum_exact

    def swapped(split, decomposition=None):
        spec = real(split, decomposition)
        (v0, m0), (v1, m1), *rest = spec.eigenvalues
        return spec._replace(eigenvalues=[(v0, m1), (v1, m0), *rest])

    monkeypatch.setattr(cli, "spectrum_exact", swapped)


@pytest.mark.parametrize("corrupt", [_drop_last_module, _swap_multiplicities])
def test_pattern_rejection_is_structured(runner, workdir, monkeypatch,
                                         corrupt):
    # modules and a spectrum that disagree are rejected with an error in
    # the report and exit 1, not a traceback: swapped multiplicities at
    # the pattern's count check, and modules that no longer fill V at the
    # spectrum read off them, which skips qcheck
    corrupt(monkeypatch)
    path = str(workdir / "c32fb.el")
    res = runner.invoke(main, ["pipeline", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    data = json.loads(res.stdout)
    if corrupt is _swap_multiplicities:
        assert "qcheck" not in data["skipped"]
        assert "disagree" in data["ordering"]["error"]
    else:
        assert data["spectrum"] == {
            "error": "module dimensions sum to 134, expected 135"}
        assert data["skipped"] == {"qcheck": "no spectrum"}
        assert "ordering" not in data


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
    # with no decomposition there is no spectrum to read off the modules
    skipped = {"qcheck": reason}
    if stage == "modules":
        skipped["spectrum"] = reason
    assert data["skipped"] == skipped and "ordering" not in data


def test_refuted_candidate_skips_qcheck(runner, workdir, monkeypatch):
    # an accepted candidate whose relation check fails is no verified
    # candidate: pipeline checks no orderings for it, and exits 1
    from uniformq import cli

    monkeypatch.setattr(cli, "verify_relation", lambda split, cand: (3, 0))
    path = str(workdir / "c32fb.el")
    res = runner.invoke(main, ["pipeline", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    data = json.loads(res.stdout)
    assert data["candidate"]["verified"] is False
    assert data["skipped"] == {"qcheck": "no verified candidate"}
    assert "ordering" not in data


def test_bipartite_pipeline_works_on_colour_class_blocks(runner, q4_file,
                                                        monkeypatch):
    # the spectrum and the idempotent pattern of a bipartite graph are
    # read off its thin modules: no modular rank and no matrix product
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

    _patch_everywhere(monkeypatch, orig, int_matmul_flat)
    res = runner.invoke(main, ["pipeline", str(q4_file)])
    assert res.exit_code == 1  # the natural negative control
    data = json.loads(res.stdout)
    assert data["skipped"] == {} and data["ordering"]
    assert len(data["spectrum"]["eigenvalues"]) == 5
    assert calls == []


# every option a caller sets, 21 in all, and no other: a new one shows up
# here as a deliberate diff
OPTIONS = {
    "gen": ["--b", "--D", "--n", "-o/--out", "--labels"],
    "fb": ["--base", "-o/--out"],
    "uniform": ["--base", "--verify", "-o/--out"],
    "candidate": ["--base", "--params", "-o/--out"],
    "spectrum": ["-o/--out"],
    "pipeline": ["--base", "--fb", "--verify-uniform", "--qcheck",
                 "--no-spectrum", "--timings", "-o/--out"],
}


def test_cli_options_are_pinned():
    # --help, and the suppressed -h that only refuses itself, are on
    # every parser
    _, commands = _parsers("uniformq")
    assert {name: ["/".join(a.option_strings) for a in parser._actions
                   if a.option_strings and a.option_strings != ["--help"]
                   and a.help != argparse.SUPPRESS]
            for name, parser in commands.items()} == OPTIONS
