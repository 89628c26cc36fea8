"""The demo scripts run to completion.

Each demo runs as its own process against this checkout's ``src`` and must
exit 0; the demos assert their own claims (demo 02, for one, that the Hall
check agrees with the exhaustive oracle).  Demo 06 runs full ensembles and
takes about 18 s, so it is left to a manual ``python demos/06_throughput_ensembles.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py") if not p.name.startswith("06_"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
