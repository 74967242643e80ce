"""Every demo script runs to the end."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.slow
@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(DEMOS) if name.endswith(".py")))
def test_demo_runs(tmp_path, demo):
    # in a scratch working directory, since a demo may write files there
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
