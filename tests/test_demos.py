from pathlib import Path

import pytest

from oracles import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo), timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
