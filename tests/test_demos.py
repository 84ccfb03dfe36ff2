"""Smoke test: every demo script runs to completion as a fresh process."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*_*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=subprocess_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
