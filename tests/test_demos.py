"""The demos run: each script in demos/ exits 0 with no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamsde

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tamsde.__file__)))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
