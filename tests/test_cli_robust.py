"""Robustness of the subcommands on arbitrary input.

Every subcommand, on a small random connected graph at a random base
vertex, ends in exit 0, 1 or 2 with nothing raised but ``SystemExit``:
a verdict, a structured rejection or a usage error, never a traceback.
And no report depends on the vertex ids: relabelling the vertices of a
golden instance by a permutation, with the base moved along, leaves
every golden report byte-identical, except the fields that name a
vertex (``base`` and ``witness_vertex``).
"""

from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli_golden import CASES, GOLDEN, INSTANCES
from uniformq.cli import _parsers, main
from uniformq.graphs import Graph, format_edge_list

SUBCOMMANDS = _parsers("uniformq")[1]

# every subcommand that reads a graph; spectrum takes no base vertex
COMMANDS = [
    ("fb",), ("uniform",), ("candidate",), ("pipeline",), ("pipeline", "--fb"),
]


@st.composite
def graph_and_base(draw):
    """A connected simple graph on at most 10 vertices, a random
    spanning tree plus random extra edges, and a base vertex."""
    n = draw(st.integers(1, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges |= {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=n))
                  if p[0] != p[1]}
    return Graph.from_edges(n, sorted(edges)), draw(st.integers(0, n - 1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graph_and_base())
def test_every_subcommand_exits_cleanly(instance):
    graph, base = instance
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "g.el")
        Path(path).write_text(format_edge_list(graph))
        runs = [[cmd[0], path, "--base", str(base), *cmd[1:]]
                for cmd in COMMANDS] + [["spectrum", path]]
        for argv in runs:
            # an unknown command exits 2 too: a removed command must
            # fail here, not pass as a usage error
            assert argv[0] in SUBCOMMANDS, argv
            res = runner.invoke(main, argv)
            assert res.exit_code in (0, 1, 2), (argv, res.output)
            assert res.exception is None or isinstance(
                res.exception, SystemExit), (argv, res.exception)


_VERTEX_FIELDS = re.compile(r'("?(?:base|witness_vertex)"?: )\d+')


def _masked(stdout: str) -> str:
    return _VERTEX_FIELDS.sub(r"\1*", stdout)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_relabelling_leaves_reports_unchanged(case, golden, tmp_path,
                                              monkeypatch):
    # the reports name their input g.el, so each run reads it from the
    # working directory, as the golden cases do
    inst, sub, *rest = case.split()
    build, params = INSTANCES[inst]
    g = build()
    monkeypatch.chdir(tmp_path)
    Path("params.json").write_text(json.dumps(params.to_json()))
    rng = random.Random(case)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        Path("g.el").write_text(format_edge_list(Graph.from_edges(
            g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
        base = [] if sub == "spectrum" else ["--base", str(perm[0])]
        res = CliRunner().invoke(main, [sub, "g.el", *base, *rest])
        assert res.exit_code == golden[case]["exit_code"], perm
        assert _masked(res.stdout) == _masked(golden[case]["stdout"]), perm
