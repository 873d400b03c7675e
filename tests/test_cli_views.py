"""The subcommands are views over the pipeline's artifacts: wherever a
view and ``pipeline`` both report a section, they report the same one.

Each instance of the golden reports, and the C_3(2) full bipartite
graph, runs ``pipeline`` once per ``--qcheck`` ordering and every view
once (``qcheck`` once per ``--ordering``); the sections both sides
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

ORDERINGS = ["both", "even-odd", "odd-even", "natural"]

# the sections each instance's views share with its pipeline: cycle6's
# candidate is rejected and C_2(3) fb has eccentricity 2, so neither
# reaches the ordering check; tree7 has no uniform structure, so no view
# shares a section with it
ALL = {"candidate", "modules", "uniform", "spectrum", "orderings"}
COMPARED = {
    "cycle6": {"candidate", "modules", "uniform", "spectrum"},
    "tree7": set(),
    "q4": ALL,
    "c23fb": {"modules", "uniform", "spectrum"},
    "h43fb": ALL,
    "c32fb": ALL,
}


def _report(*args) -> dict:
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code in (0, 1), res.output
    return json.loads(res.stdout)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_views_agree_with_pipeline(name, tmp_path):
    path = tmp_path / "g.el"
    path.write_text(format_edge_list(GRAPHS[name]()))
    graph = str(path)
    piped = {x: _report("pipeline", graph, "--qcheck", x) for x in ORDERINGS}
    full = piped["both"]
    compared = set()

    view = _report("candidate", graph)
    assert ("candidate" in full) == ("skipped" not in view)
    if "candidate" in full:
        assert view == full["candidate"]
        compared.add("candidate")

    view = _report("modules", graph)
    assert ("modules" in view) == isinstance(full.get("modules"), list)
    if "modules" in view:
        assert view["modules"] == full["modules"]
        assert (view["epsilon"], view["levels"]) == (full["epsilon"],
                                                     full["levels"])
        uniform = dict(full["uniform"])
        del uniform["source"]
        assert view["uniform"] == uniform
        compared |= {"modules", "uniform"}
        # the spectrum view takes the dense route; the pipeline reads
        # its spectrum off the certified modules
        assert _report("spectrum", graph) == full["spectrum"]
        compared.add("spectrum")

    for x in ORDERINGS:
        view = _report("qcheck", graph, "--ordering", x)
        assert ("orderings" in view) == ("ordering" in piped[x])
        if "orderings" in view:
            assert view["orderings"] == piped[x]["ordering"]
            assert view["candidate"] == piped[x]["candidate"]
            compared.add("orderings")

    assert compared == COMPARED[name]
