"""Every script under ``examples/`` runs to completion.

Each runs in a fresh interpreter (as a reader would start it), from a
scratch working directory, and must exit 0; what it prints is the
example's business.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_zero(script, tmp_path):
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout
