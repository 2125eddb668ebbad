"""Each public package imports first in a fresh interpreter.

``repro.scenarios`` and ``repro.experiments`` import each other: the
scenario engine builds its systems with ``experiments.common``, and the
experiments run their points on the scenario engine.  Which one a
process imports first decides which half is partially initialised when
the other asks for a name, and a test session hides that because
everything is already imported.  A fresh interpreter per entry point
does not.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "module", ["repro.scenarios", "repro.experiments", "repro.runtime.soak", "repro.fuzz"]
)
def test_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}"], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
