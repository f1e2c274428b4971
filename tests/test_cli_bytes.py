"""The exact stdout of eval, solve, bound and demo, in CSV and in JSON.

``tests/data/cli_outputs.json`` holds the input tables that ``bound`` reads
(``files``) and, per command line, the stdout it must print (``cases``):
every eval kind, solve's linear problem with each method and the sin
problem, bound with a ``--mu`` constant and with a mu column, and demo with
both right-hand sides, each with ``--format csv`` and ``--format json``.
Any change to a byte of these outputs is a change of the CLI's contract.
"""
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from qfrac.cli import main

FIXTURE = json.loads((Path(__file__).parent / "data" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda c: " ".join(c["args"]))
def test_cli_stdout_is_the_pinned_bytes(case, tmp_path, monkeypatch):
    for name, text in FIXTURE["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    res = CliRunner().invoke(main, case["args"], catch_exceptions=False)
    assert res.exit_code == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout == case["stdout"]


def test_fixture_covers_every_printing_command_in_both_formats():
    seen = {(c["args"][0], c["args"][c["args"].index("--format") + 1]) for c in FIXTURE["cases"]}
    assert seen == {(cmd, fmt) for cmd in ("eval", "solve", "bound", "demo")
                    for fmt in ("csv", "json")}
    kinds = {c["args"][1] for c in FIXTURE["cases"] if c["args"][0] == "eval"}
    assert kinds == {"gamma", "qfac", "ml", "eq", "Eq"}
