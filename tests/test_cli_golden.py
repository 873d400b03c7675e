"""Byte-for-byte regression of the subcommand reports.

``tests/data/cli_golden.json`` maps each case ("<instance> <args>") to
the stdout and exit code of one subcommand run.  The instances are small
and cover the report shapes: cycle6 (per-level fit, candidate rejected),
a tree on 7 vertices (level 2 has no solution, so no uniform structure
exists), hypercube 4 (constant fit, accepted candidate, rational
spectrum), the C_2(3) full bipartite graph (eccentricity 2, the
clean-skip path) and the H(4,3) full bipartite graph, whose thin
modules at the endpoints r = 1 and 2 are split by L R filters over
three and two eigenvalues.
Each run reads ``g.el`` (and ``params.json``) from the working
directory, so the report's source path is the same everywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from uniformq.cli import main
from uniformq.generators import FormSpec, dual_polar, hamming, hypercube
from uniformq.graphs import Graph, format_edge_list, full_bipartite
from uniformq.uniform import UniformParams

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _cycle6():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def _tree7():
    return Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)])


# graph builder and the parameter file given to the verify paths: the
# all-zero triple fails on cycle6 and tree7, the others are the known
# structures
INSTANCES = {
    "cycle6": (_cycle6, UniformParams.constant(3, 0, 0, 0)),
    "tree7": (_tree7, UniformParams.constant(3, 0, 0, 0)),
    "q4": (lambda: hypercube(4)[0],
           UniformParams.constant(4, Fraction(-1, 2), Fraction(-1, 2), 1)),
    "c23fb": (lambda: full_bipartite(dual_polar(FormSpec("C", 2, 3))[0], 0),
              UniformParams.constant(2, Fraction(-9, 4), Fraction(-1, 12), 9)),
    "h43fb": (lambda: full_bipartite(hamming(4, 3)[0], 0),
              UniformParams.constant(4, Fraction(-1, 2), Fraction(-1, 2), 2)),
}

COMMANDS = [
    ("uniform",),
    ("uniform", "--verify", "params.json"),
    ("candidate",),
    ("candidate", "--params", "params.json"),
    ("spectrum",),
    ("pipeline",),
    ("pipeline", "--no-spectrum"),
    ("pipeline", "--qcheck", "natural"),
    ("pipeline", "--verify-uniform", "params.json"),
]

CASES = [f"{inst} {' '.join(cmd)}" for inst in INSTANCES for cmd in COMMANDS]


def run_case(case: str, workdir: Path, monkeypatch) -> tuple[int, str]:
    """Run one case in workdir; returns (exit code, stdout)."""
    inst, sub, *rest = case.split()
    build, params = INSTANCES[inst]
    (workdir / "g.el").write_text(format_edge_list(build()))
    (workdir / "params.json").write_text(json.dumps(params.to_json()))
    monkeypatch.chdir(workdir)
    res = CliRunner().invoke(main, [sub, "g.el", *rest])
    return res.exit_code, res.stdout


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_bytes(case, golden, tmp_path, monkeypatch):
    code, stdout = run_case(case, tmp_path, monkeypatch)
    assert stdout == golden[case]["stdout"]
    assert code == golden[case]["exit_code"]


@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_timings_only_add_stage_clocks(inst, golden, tmp_path, monkeypatch):
    code, stdout = run_case(f"{inst} pipeline --timings", tmp_path, monkeypatch)
    report = json.loads(stdout)
    assert sorted(report.pop("timings")) == [
        "candidate", "modules", "qcheck", "spectrum", "uniform"]
    plain = golden[f"{inst} pipeline"]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == plain["stdout"]
    assert code == plain["exit_code"]
