"""The subcommands are views over the pipeline's artifacts: wherever a
view and ``pipeline`` both report a section, they report the same one.

Each instance of the golden reports, and the C_3(2) full bipartite
graph, runs ``pipeline`` and every view once; the sections both sides
produce are compared, and the set of compared sections is pinned per
instance, so that a view that stops producing one fails too.
"""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from test_cli_golden import INSTANCES
from uniformq.cli import main
from uniformq.generators import FormSpec, dual_polar
from uniformq.graphs import format_edge_list, full_bipartite

GRAPHS = {name: build for name, (build, _) in INSTANCES.items()}
GRAPHS["c32fb"] = lambda: full_bipartite(dual_polar(FormSpec("C", 3, 2))[0], 0)

# the sections each instance's views share with its pipeline: C_2(3) fb
# has eccentricity 2, so it reaches no candidate; tree7 has no uniform
# structure, so it has no modules and no spectrum
ALL = {"candidate", "uniform", "spectrum"}
COMPARED = {
    "cycle6": ALL,
    "tree7": {"uniform"},
    "q4": ALL,
    "c23fb": {"uniform", "spectrum"},
    "h43fb": ALL,
    "c32fb": ALL,
}

# the keys of the uniform section that only one side reports
PIPELINE_ONLY = {"source"}
VIEW_ONLY = {"feasible", "per_level", "constant"}


def _report(*args) -> dict:
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code in (0, 1), res.output
    return json.loads(res.stdout)


def _without(section: dict, keys: set) -> dict:
    return {k: v for k, v in section.items() if k not in keys}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_views_agree_with_pipeline(name, tmp_path):
    path = tmp_path / "g.el"
    path.write_text(format_edge_list(GRAPHS[name]()))
    graph = str(path)
    full = _report("pipeline", graph)
    compared = {"uniform"}

    view = _report("uniform", graph)
    assert (view["epsilon"], view["levels"]) == (full["epsilon"],
                                                 full["levels"])
    assert VIEW_ONLY <= set(view["uniform"])
    assert (_without(view["uniform"], VIEW_ONLY)
            == _without(full["uniform"], PIPELINE_ONLY))

    view = _report("candidate", graph)
    assert ("candidate" in full) == ("skipped" not in view)
    if "candidate" in full:
        assert view == full["candidate"]
        compared.add("candidate")

    # the spectrum view takes the dense route; the pipeline reads its
    # spectrum off the certified modules
    if isinstance(full.get("modules"), list):
        assert _report("spectrum", graph) == full["spectrum"]
        compared.add("spectrum")

    assert compared == COMPARED[name]
