"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    # the child inherits this environment, PYTHONPATH included
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
