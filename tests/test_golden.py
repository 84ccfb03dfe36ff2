"""Golden digests: every report of three fixed runs, pinned by sha256.

The other suites compare runs with each other; these compare each run
with recorded bytes, so a refactor that shifts any report by one byte
fails here.  A change that alters output on purpose re-pins the digests
and says why.  Each ledger.csv these runs write must also equal one
formatted line per row of the ledger's entries view, and the grid run's
reports must not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from qcs_sim import cli, default16_scenario_text, metrics

from conftest import ledger_csv_reference, subprocess_env

REPO = Path(__file__).resolve().parent.parent

GOLDEN_RUN16 = {
    "energy_diff.csv": "82291bb8155722d8f6be7ecb60488df502377de5d81e45ac5b30296c31631284",
    "ledger.csv": "78c748ef72a3d6502ee1ae7055b06c1a2c2a5f8995a45b366bfa622ea14e1c92",
    "paths.csv": "c384f95974e0c4778f69b5fa9a7c954021f50dcfc20d60aede91f5ec0a52ea87",
    "summary.txt": "d3fec05e7556af5e128e3d92ec788fb15c97954e163a37046bbbe136a9aac224",
    "trace.txt": "65386638524fdfa9a8557ed3fd7c95ae0de7dca29be2156f0f7d90f314845e25",
}

GOLDEN_SWEEP16 = {
    "energy_diff.csv": "2e6925bf5290339b2d19bd6c910ef333221348373480549c08d1cb8787b6573c",
    "ledger_irregular1.csv": "5c46757060b4dda4e2ad43dedbfc9542b2a105f9517cd8ad7dfd0201044e9337",
    "ledger_irregular2.csv": "c1834f075585a23c06a82ed024cb7a1de6e249d7efe2808871653ad11b02515b",
    "ledger_irregular3.csv": "08b5ce3a9613aff2c5886dc7e1595e32b883e31f285fa6dcca557a29336b544f",
    "ledger_irregular4.csv": "d0e103a63b1916c54f631e5d41ec7214d54f6ef4de017b575f5b5dccd321b660",
    "ledger_irregular5.csv": "0e77ec9106c9c3a14e1890ac2febb0913afb62bef928964367fb4678764d5f27",
    "ledger_irregular6.csv": "a561fc591e68c245841bb83cf14bdbb8a0b94c3d41eb4b8b0369fde2ba7d7c8f",
    "ledger_irregular7.csv": "d04afc852d4fbccf21c1afd260a0d0c9829389c7ac18c29305a7e5273c27b8b0",
    "paths.csv": "1555aff1ad7648e07f7cb7af785d6adb5cf87a5d08c28691955c680bff01f3b1",
    "summary.txt": "a2a350c7f4fc145ea0b4479fd5d237181fbfb760262c86336365ae4095e77bf5",
    "trace.txt": "734bc0d94435a3928e0805798b90d28b0e79d067b6cf4bf941c16a4714335685",
}

GOLDEN_GRID225 = {
    "energy_diff.csv": "cf876ad598596ab5642b5b61468d2478443573aa45a96c1268cf814319310a2d",
    "ledger.csv": "728a6e722f07585e6f338a9a152d88c68fcfbddd949b343e35d7f21416977cd9",
    "paths.csv": "29f6600c7bd06b21f922d63c5c569e9e464abc15984c242dd92ca6fc67371819",
    "summary.txt": "4aa346490e1533cf09aa7b6e60f2ced3a82475656350ee9d22520b216358c23d",
    "trace.txt": "9f837c679d5f6e8cb5bf32dba85ad32684f2b73e7c48b52c508dfe547f6f67b6",
}


@pytest.fixture
def ledger_csv_checked(monkeypatch):
    """Every ledger.csv written must equal a per-row formatting of its
    ledger; the list counts the files checked."""
    write = metrics.write_ledger_csv
    checked = []

    def checked_write(path, ledger):
        write(path, ledger)
        assert Path(path).read_bytes() == ledger_csv_reference(ledger), path
        checked.append(path)

    monkeypatch.setattr(metrics, "write_ledger_csv", checked_write)
    return checked


def _grid225_text() -> str:
    """15x15 grid at 75 m with a 110 m range, base in the corner at the
    origin.  An alarm at t=1 and a flood at t=25 start in the far corner;
    small batteries, 5 % loss and 100 ticks make nodes die and isolated
    survivors send disconnect alerts."""
    nodes = []
    for r in range(15):
        for c in range(15):
            nid = r * 15 + c + 1
            nodes.append(f"{nid} {c * 75} {r * 75}" + (" base" if nid == 1 else ""))
    return "\n".join([
        "[field]", "width = 1050", "height = 1050", "radio_range = 110",
        "[nodes]", *nodes,
        "[costs]", "init_min = 150", "init_max = 250", "threshold = 25",
        "[events]", "1 225 70", "25 209 95",
        "[sim]", "seed = 3", "horizon = 100", "loss_prob = 0.05",
        "",
    ])


def _reports(tmp_path: Path, scenario: Path, *extra: str) -> dict[str, str]:
    out = tmp_path / "out"
    assert cli.main(["--scenario", str(scenario), "--out", str(out), *extra]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _write(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "run.scn"
    path.write_text(text, encoding="utf-8")
    return path


def test_golden_default16_run(tmp_path, capsys, ledger_csv_checked):
    text = default16_scenario_text(seed=7, horizon=20,
                                   events=((2, 10, 70), (5, 4, 95)))
    assert _reports(tmp_path, _write(tmp_path, text)) == GOLDEN_RUN16
    assert len(ledger_csv_checked) == 1


def test_golden_paper_sweep(tmp_path, capsys, ledger_csv_checked):
    got = _reports(tmp_path, REPO / "scenarios" / "default16.scn",
                   "--sweep", "13,12,15,2,14,8,9")
    assert got == GOLDEN_SWEEP16
    assert len(ledger_csv_checked) == 7


def test_golden_grid225_lifetime(tmp_path, capsys, ledger_csv_checked):
    assert _reports(tmp_path, _write(tmp_path, _grid225_text())) == GOLDEN_GRID225
    assert len(ledger_csv_checked) == 1


def test_grid225_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """The CLI in two child interpreters with different PYTHONHASHSEED
    values writes the same bytes, the pinned ones, for every report."""
    scenario = _write(tmp_path, _grid225_text())
    outs = {seed: tmp_path / f"hash{seed}" for seed in ("0", "4242")}
    procs = [subprocess.Popen(
        [sys.executable, "-m", "qcs_sim.cli", "--scenario", str(scenario), "--out", str(out)],
        stdout=subprocess.DEVNULL, env=subprocess_env(PYTHONHASHSEED=seed))
        for seed, out in outs.items()]
    assert [p.wait(timeout=60) for p in procs] == [0, 0]
    first, second = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                     for out in outs.values())
    assert first == second
    assert {name: hashlib.sha256(b).hexdigest() for name, b in first.items()} == GOLDEN_GRID225
