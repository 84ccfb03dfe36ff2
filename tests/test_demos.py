"""Every demo script runs to completion as a fresh process and prints
exactly its pinned output."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("0*_*.py"))

#: sha256 of each demo's stdout; every demo is deterministic and writes
#: no file, so its output does not depend on the working directory
STDOUT_SHA256 = {
    "01_topology": "7f06ed5998a724b9c6a2826240f1280b2129ea24a82d481ebd0fcf8e64d2495a",
    "02_packets": "50342f97773d23f473dd2c511e4e12f325ca748fdc072307a8273aad1f17fc15",
    "03_regular_polling": "22a946eeee2638721e1a23c8dfb9384dc556fa533583f399a9237511c2fe7944",
    "04_alarm_forwarding": "0c2370c1f468de41aa93a77a3c7a0dd5411612a911505e930ecf685981c3f00e",
    "05_devastating_flood": "7cc61d24891437cc0055ba8dc6cb16e2cdd82cca764ea1f491bd7996dd134ec8",
    "06_energy_reports": "511747a2f10995d6c590a16738e009e6e1ba091abf628ac476ff1af3b8e83044",
}


def test_all_six_demos_found():
    assert len(DEMOS) == 6
    assert sorted(STDOUT_SHA256) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=subprocess_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
