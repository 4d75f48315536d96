import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in
                                          DEMO_DIR.glob("*.py")))
def test_demo_runs_clean(script):
    # the demos, and the CLI processes they start, inherit the warning
    # filter: a float-range warning fails them as it fails the tests
    res = subprocess.run([sys.executable, str(DEMO_DIR / script)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ,
                              "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    assert res.stdout.strip()


def test_all_demos_present():
    names = {p.name for p in DEMO_DIR.glob("*.py")}
    assert names == {
        "finite_lp.py",
        "semidefinite.py",
        "second_order.py",
        "semi_infinite_oracle.py",
        "generate_and_verify.py",
    }
