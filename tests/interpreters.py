"""Run the three golden CLI calls under every local Python and print the
digest of each report.

    python tests/interpreters.py [PYTHON ...]

With no arguments it runs this interpreter and each
``~/.pyenv/versions/3.1*/bin/python`` it finds.  Each child imports
qcs_sim from src/ and needs only the standard library; this script needs
the interpreter that runs the suite, since it reads the scenarios and
the pinned digests from test_golden.py.

For each call it prints one line per report: the first 16 hex digits of
its sha256 under each interpreter, then "pinned" if every interpreter
wrote the golden bytes.  Exits 1 if any call fails or any report differs
from its pin.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from conftest import subprocess_env  # noqa: E402
from test_golden import (  # noqa: E402
    GOLDEN_GRID225, GOLDEN_RUN16, GOLDEN_SWEEP16, REPO, _grid225_text,
)

from qcs_sim import default16_scenario_text  # noqa: E402


def _interpreters() -> list[str]:
    found = sorted(Path.home().glob(".pyenv/versions/3.1*/bin/python"))
    return [sys.executable, *map(str, found)]


def _version(python: str) -> str:
    return subprocess.run(
        [python, "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True).stdout.strip()


def _calls(tmp: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """(name, CLI arguments, pinned digests) of the three golden calls."""
    run16 = tmp / "run16.scn"
    run16.write_text(default16_scenario_text(seed=7, horizon=20,
                                             events=((2, 10, 70), (5, 4, 95))),
                     encoding="utf-8")
    grid = tmp / "grid225.scn"
    grid.write_text(_grid225_text(), encoding="utf-8")
    return [
        ("run16", ["--scenario", str(run16)], GOLDEN_RUN16),
        ("sweep16", ["--scenario", str(REPO / "scenarios" / "default16.scn"),
                     "--sweep", "13,12,15,2,14,8,9"], GOLDEN_SWEEP16),
        ("grid225", ["--scenario", str(grid)], GOLDEN_GRID225),
    ]


def _digests(python: str, args: list[str], out: Path) -> dict[str, str]:
    subprocess.run([python, "-m", "qcs_sim.cli", *args, "--out", str(out)],
                   stdout=subprocess.DEVNULL, env=subprocess_env(), check=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def main(argv: list[str]) -> int:
    pythons = argv or _interpreters()
    ok = True
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        calls = _calls(tmp)
        print("report".ljust(24) + " ".join(_version(p).ljust(16) for p in pythons))
        for name, args, pinned in calls:
            print(f"== {name}")
            got = []
            for i, python in enumerate(pythons):
                try:
                    got.append(_digests(python, args, tmp / f"{name}-{i}"))
                except subprocess.CalledProcessError as err:
                    print(f"{python}: exit status {err.returncode}")
                    got.append({})
            for report, digest in pinned.items():
                row = [g.get(report, "-")[:16] for g in got]
                same = all(g.get(report) == digest for g in got)
                ok &= same
                print(report.ljust(24) + " ".join(d.ljust(16) for d in row)
                      + (" pinned" if same else " DIFFERS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
