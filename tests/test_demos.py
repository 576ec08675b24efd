"""Every demo, and the README's library example, runs to completion and
leaves its working directory empty."""
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def _run(tmp_path, args):
    work, scratch = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    scratch.mkdir()
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(work.iterdir()) == []
    return proc


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_leaves_the_working_directory_empty(tmp_path, demo):
    proc = _run(tmp_path, [os.path.join(ROOT, "demos", demo)])
    assert proc.stdout.strip()


def test_readme_library_example_runs(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    _run(tmp_path, ["-c", blocks[0]])
