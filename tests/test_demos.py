"""Every demo script and the README's library and command line quick
starts run clean against the package in this checkout."""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _python(*args, cwd=ROOT) -> str:
    """Stdout of ``python -W error *args`` against src/; requires exit 0 and empty stderr."""
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout


def _run_clean(*args):
    assert _python(*args).strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_warnings(demo):
    _run_clean(str(demo))


def test_readme_library_quick_start_runs_without_warnings():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block"
    _run_clean("-c", block.group(1))


def _readme_commands() -> list[list[str]]:
    """Arguments of each ``igaspectra ...`` line of the README's sh blocks,
    with backslash continuations joined."""
    readme = (ROOT / "README.md").read_text()
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines()
            if line.startswith("igaspectra ")]


def test_readme_command_line_quick_start_runs(tmp_path):
    commands = _readme_commands()
    assert [args[0] for args in commands] == ["spectrum", "convergence", "condition"]
    for args in commands:
        stdout = _python("-m", "igaspectra", *args, cwd=tmp_path)
        if "--out" in args:
            assert stdout == ""
            assert (tmp_path / args[args.index("--out") + 1]).read_text().strip()
        else:
            assert stdout.strip()
