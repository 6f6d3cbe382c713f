"""Each narrative demo runs to completion and prints no failed check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos whose printed checks (e.g. "routes agree exactly: True") must appear
CHECKED = ("01_", "02_", "03_")


def test_demos_found():
    assert {d.name[:3] for d in DEMOS} >= {*CHECKED, "04_"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "False" not in proc.stdout
    if demo.name.startswith(CHECKED):
        assert any(line.rstrip().endswith(": True") for line in proc.stdout.splitlines())
