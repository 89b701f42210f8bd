"""The demos run to completion against the current package.

`utility_comparison.py` writes its CSVs and chart into an `output/`
folder beside itself, so it runs from a copy in a temporary directory and
`demos/output/` is left alone.
"""

import os
import shutil
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


def test_utility_comparison_demo_writes_its_outputs(tmp_path):
    script = tmp_path / "utility_comparison.py"
    shutil.copy(ROOT / "demos" / "utility_comparison.py", script)
    done = _run(script)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "output"
    names = ("comparison_results.csv", "comparison_summary.csv", "comparison.svg")
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    for name in names:
        assert (out / name).stat().st_size > 0, name
