"""Every demo script and the README's library quick start run clean
against the package in this checkout."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_clean(*args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-W", "error", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_without_warnings(demo):
    _run_clean(str(demo))


def test_readme_library_quick_start_runs_without_warnings():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block"
    _run_clean("-c", block.group(1))
