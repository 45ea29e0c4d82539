"""Every script under ``examples/`` runs to completion.

The examples import the library the way a user does, so an API change
that breaks one fails here rather than in the first reader's terminal.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_runs(script):
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, str(script)],
        env=env, cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
