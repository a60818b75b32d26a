"""The independent oracle script, run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import srgta

ROOT = Path(__file__).resolve().parents[1]


def test_dimension_survey_selftest_rederives_frozen_values():
    # run, not imported: the oracle must share no state with the library
    src = str(Path(srgta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "dimension_survey.py"), "--selftest"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all frozen values re-derived" in proc.stdout
