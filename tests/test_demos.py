"""The demos run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "demo", ["budget_composition.py", "exact_l1_regression.py", "noise_mechanisms.py"]
)
def test_demo_exits_zero(demo):
    done = _run(ROOT / "demos" / demo)
    assert done.returncode == 0, done.stderr

