"""The quick demos run to completion: exit 0 with a printed report.

Each demo runs as a script from a temporary working directory, so files it
writes stay out of the repository.  Demos 05-07 take minutes and are left
to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))


def test_quick_demos_are_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
