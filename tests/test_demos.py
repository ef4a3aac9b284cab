"""The demo scripts run to completion against the installed API.

Each runs in a fresh interpreter inside a temporary directory, so the
files a demo writes stay out of the checkout.  ``dataset_and_training.py``
trains a network for the full 200 epochs, 44-64 s on a 2-core Intel Xeon,
and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitguide

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["extremal_family.py", "fixed_time_intercept.py", "salvo_attack.py"])
def test_demo_runs(script, tmp_path):
    src = str(Path(fitguide.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
