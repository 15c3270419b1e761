"""The quick demos run to completion as scripts."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedegen

ROOT = Path(__file__).resolve().parents[1]


# sphere_mass.py takes about 9 s (2-vCPU host, Python 3.11) and is left out
# because the whole suite already runs close to its 45-s target; these three
# take about 2 s together
@pytest.mark.parametrize("script", ["limit_measures_tour.py",
                                    "node_chart_convergence.py",
                                    "reduction_walkthrough.py"])
def test_demo_runs(script, tmp_path):
    src = Path(curvedegen.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    # pyproject's filterwarnings do not reach a subprocess: ask for them here
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-W", "error::DeprecationWarning", str(ROOT / "demos" / script)],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
