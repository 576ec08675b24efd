"""Every demo runs to completion and leaves its working directory empty."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_and_leaves_the_working_directory_empty(tmp_path, demo):
    work, scratch = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    scratch.mkdir()
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(scratch),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(work.iterdir()) == []
