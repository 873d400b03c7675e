"""The benchmark's tracer binds package functions by name (``TARGETS`` in
``perfbench/tracer.py``) after importing ``uniformq.cli`` alone.  A
target that is renamed, deleted or imported lazily crashes a traced
benchmark run; these tests catch it in the suite.  The tracer file is
only read, never changed."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
