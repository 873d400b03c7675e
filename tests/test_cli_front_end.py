"""The command-line front end without the test runner's help: the import
of ``uniformq.cli`` stays light, the console-script entry point reads
``sys.argv``, and every parser refuses what it does not define, an
abbreviated option or ``-h`` included, with exit 2 and no report."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uniformq.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_heavy_module():
    # click and dataclasses pull inspect (and with it ast, dis and
    # tokenize) into every process; -S keeps the site's own imports out
    code = ("import json, sys, uniformq.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert "uniformq.cli" in loaded
    assert not loaded & {"click", "dataclasses", "inspect"}


def test_console_script_reads_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["uniformq", "gen", "hypercube",
                                      "--D", "3"])
    main()
    assert capsys.readouterr().out.splitlines()[0] == "8 12"


@pytest.mark.parametrize("argv", [
    ["fb", "g.el", "--ba", "3"],
    ["pipeline", "g.el", "--no-spec"],
    ["-h"],
    ["gen", "-h"],
], ids=["abbreviated-base", "abbreviated-no-spectrum", "h", "gen-h"])
def test_undefined_options_are_usage_errors(tmp_path, monkeypatch, capsys,
                                            argv):
    monkeypatch.chdir(tmp_path)
    Path("g.el").write_text("2 1\n0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(argv, prog_name="uniformq")
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: uniformq")


@pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"]],
                         ids=["top", "pipeline"])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv, prog_name="uniformq")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        f"usage: {' '.join(['uniformq', *argv[:-1]])} [--help]")
