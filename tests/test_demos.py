"""Smoke test: every demo runs to completion against this checkout.

Demo 02 is the one that calls ``simulate``; it exits 1 if a row of its
tolerance sweep is not dominated by the error bound.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name, expected",
    [
        ("01_streaming_svd_basics.py", ""),
        ("02_fhn_pod_pipeline.py", "snapshot energy"),
        ("03_perturbation_bounds.py", ""),
        ("04_files_and_checkpoints.py", "bitwise identical: True"),
    ],
)
def test_demo_runs(name, expected, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
