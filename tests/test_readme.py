"""Every command of README's CLI block runs and exits 0.

The block is run line by line with ``python -m qfrac`` in a fresh directory,
in order, so that a file one line writes (``> v.csv``) is there for the next.
"""
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def readme_cli_block():
    """The lines of the first ``sh`` code block under README's ``## CLI``."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("## CLI")
    begin = lines.index("```sh", start) + 1
    end = lines.index("```", begin)
    return lines[begin:end]


def readme_commands():
    """(argv after ``qfrac``, stdout file or None) per command line."""
    out = []
    for line in readme_cli_block():
        words = shlex.split(line, comments=True)
        if not words:
            continue
        assert words[0] == "qfrac", line
        target = None
        if ">" in words:
            at = words.index(">")
            assert at == len(words) - 2, line
            target = words[-1]
            words = words[:at]
        out.append((words[1:], target))
    return out


def test_readme_cli_block_runs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    commands = readme_commands()
    assert len(commands) >= 8
    assert any(target for _, target in commands)
    for argv, target in commands:
        proc = subprocess.run([sys.executable, "-m", "qfrac", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout
        if target:
            (tmp_path / target).write_text(proc.stdout)
