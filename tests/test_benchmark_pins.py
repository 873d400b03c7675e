"""The benchmark's pins on the package.  Its tracer binds package
functions by name (``TARGETS`` in ``perfbench/tracer.py``) after
importing ``uniformq.cli`` alone: a target that is renamed, deleted or
imported lazily crashes a traced benchmark run.  Its runner certifies
each workload with ``uniformq pipeline`` and its gate checks the report
(``perfbench/run.py``, ``perfbench/gate.py``): a CLI change that breaks
the report makes every benchmark run ``outputs_incorrect``.  These tests
catch both in the suite; the benchmark files are only read, never
changed."""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from uniformq.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # as perfbench/tests/conftest.py

import gate  # noqa: E402
import run  # noqa: E402


def _load_targets() -> list:
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("name, modname, attr", TARGETS,
                         ids=[f"{m}:{a}" for _, m, a in TARGETS])
def test_tracer_target_resolves(name, modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:  # "Class.method", read off the class as the tracer does
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert callable(owner.__dict__[attr])
    else:
        assert callable(getattr(owner, attr))


def test_cli_import_loads_every_target_module():
    code = ("import json, sys, uniformq.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert {modname for _, modname, _ in TARGETS} <= loaded


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_pipeline_report_passes_the_benchmark_gate(workload, tmp_path,
                                                   monkeypatch):
    # the runner's own set-up steps and pipeline arguments, at the base
    # vertex of its default seed, run in process
    wl = run.WORKLOADS[workload]
    base = random.Random(run.DEFAULT_SEED).randrange(wl.n)
    monkeypatch.chdir(tmp_path)
    steps, graph = run.setup_steps(wl, base)
    for args in steps:
        res = CliRunner().invoke(main, list(args))
        assert res.exit_code == 0, (args, res.output)
    if wl.params is not None:
        (tmp_path / "params.json").write_text(json.dumps(wl.params))
    res = CliRunner().invoke(main, ["pipeline", graph, "--base", str(base),
                                    *wl.pipeline, "-o", "report.json"])
    assert res.exit_code == 0, res.output
    report = json.loads((tmp_path / "report.json").read_text())
    assert gate.check(workload, report, base) == []
