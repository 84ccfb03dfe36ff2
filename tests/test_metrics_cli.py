"""Report files and the command-line front end."""

from __future__ import annotations

import logging
import math
import subprocess
import sys
from pathlib import Path

import pytest

from qcs_sim import Simulation, default16_scenario_text, joules, parse_scenario
from qcs_sim.cli import main
from qcs_sim.energy import EnergyLedger
from qcs_sim.metrics import (
    energy_diff_rows,
    paths_rows,
    render_base_record,
    render_summary,
    total_radio_millijoules,
    write_energy_diff_csv,
    _LEDGER_CHUNK,
    write_ledger_csv,
    write_paths_csv,
)
from qcs_sim.node import NodeState
from qcs_sim.record import NOTES

from conftest import ledger_csv_reference, subprocess_env

SCN = Path(__file__).resolve().parents[1] / "scenarios" / "default16.scn"


def run16(**kw):
    sim = Simulation(parse_scenario(default16_scenario_text(**kw)))
    return sim, sim.run()


# ----------------------------------------------------------------- metrics

def test_ledger_csv_shape(tmp_path):
    sim, tr = run16(seed=7, horizon=5)
    out = tmp_path / "ledger.csv"
    write_ledger_csv(out, sim.ledger)
    data = out.read_bytes()
    assert b"\r" not in data                      # LF only, byte stable
    lines = data.decode().splitlines()
    assert lines[0] == "tick,node_id,cause,debit,balance"
    assert len(lines) == 1 + len(sim.ledger.entries)
    tick, nid, cause, debit, balance = lines[1].split(",")
    assert cause == "query_send"
    assert int(debit) == 1


def test_ledger_csv_bytes_with_a_base_and_clamped_balances(tmp_path):
    nodes = {1: NodeState(1, (0.0, 0.0), energy=10),
             2: NodeState(2, (1.0, 0.0), energy=3),
             3: NodeState(3, (2.0, 0.0), energy=1),
             9: NodeState(9, (4.0, 0.0), is_base=True, energy=math.inf)}
    ledger = EnergyLedger(nodes)
    ledger.debit(0, nodes[1], "query_send")
    ledger.debit(0, nodes[9], "query_recv")       # the base: no row
    ledger.debit(1, nodes[2], "flood_recv")
    ledger.debit(2, nodes[3], "flood_send")       # clamped at zero
    out = tmp_path / "ledger.csv"
    write_ledger_csv(out, ledger)
    assert out.read_bytes() == (b"tick,node_id,cause,debit,balance\n"
                                b"0,1,query_send,1,9\n"
                                b"1,2,flood_recv,2,1\n"
                                b"2,3,flood_send,1,0\n")
    assert nodes[9].energy == math.inf


@pytest.mark.parametrize("base_row", [None, 0, -1])
@pytest.mark.parametrize("rows", [0, 1, _LEDGER_CHUNK, _LEDGER_CHUNK + 1])
def test_ledger_csv_chunks_match_a_per_row_formatting(tmp_path, rows, base_row):
    """No rows, one row, exactly one chunk and one chunk plus a row, with
    no base debit or one after the first or the last row: it writes no
    row, so the chunks keep their rows whole."""
    nodes = {1: NodeState(1, (0.0, 0.0), energy=rows + 1),
             9: NodeState(9, (1.0, 0.0), is_base=True, energy=math.inf)}
    ledger = EnergyLedger(nodes)
    base_at = None if base_row is None or rows == 0 else base_row % rows
    for i in range(rows):
        ledger.debit(i, nodes[1], "query_send")
        if i == base_at:
            ledger.debit(i, nodes[9], "query_recv")
    out = tmp_path / "ledger.csv"
    write_ledger_csv(out, ledger)
    assert len(ledger.entries) == rows
    assert out.read_bytes() == ledger_csv_reference(ledger)


def test_energy_diff_rows_match_ledger(tmp_path):
    sim, tr = run16(seed=7, horizon=12)
    rows = energy_diff_rows("run", tr)
    assert [nid for _, nid, _ in rows] == sim.topology.sensor_ids()
    for label, nid, consumed in rows:
        assert label == "run"
        assert consumed == sum(e.debit for e in sim.ledger.entries
                               if e.node_id == nid)
    out = tmp_path / "energy.csv"
    write_energy_diff_csv(out, rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "run,node_id,consumed_units"
    assert len(lines) == 16                       # header + 15 sensors


def test_paths_rows_and_csv(tmp_path):
    sim, tr = run16(seed=7, horizon=20, events=((2, 10, 70.0),))
    rows = paths_rows(tr.incidents)
    assert rows == [("1", 5, 20)]
    labeled = paths_rows(tr.incidents, labels=["irregular1"])
    assert labeled[0][0] == "irregular1"
    out = tmp_path / "paths.csv"
    write_paths_csv(out, labeled)
    assert out.read_text() == ("incident,path_nodes,comparisons\n"
                               "irregular1,5,20\n")


def test_total_radio_millijoules():
    sim, tr = run16(seed=7, horizon=3)
    by_hand = 0.0
    for ev in tr.packet_events:
        size = 64 if NOTES[ev.note].kind.name == "SOURCE" else 24
        by_hand += (1 + len(ev.receivers)) * joules(size)
    assert total_radio_millijoules(tr.packet_events) == pytest.approx(by_hand)


def test_base_record_rendering():
    sim, tr = run16(seed=7, horizon=20, events=((2, 10, 70.0),))
    lines = render_base_record(tr.base)
    assert lines == [
        "    id: 'BASE STATION'",
        "    energy: Inf",
        "    loc: [150 450]",
        "    flag1: 1",
        "    flag2: 0",
        "    mode: 'S'",
        "    msg: 'Affected NODE is ->NODE10 At Location (225 225)'",
    ]


def test_summary_mentions_key_facts():
    sim, tr = run16(seed=7, horizon=20, events=((2, 10, 70.0),))
    text = render_summary("demo run", tr)
    assert "demo run" in text
    assert "BASE STATION" in text
    assert "Affected NODE is ->NODE10" in text
    assert "mJ" in text
    assert "deaths" in text


# --------------------------------------------------------------------- CLI

def test_cli_run_writes_all_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    rc = main(["--scenario", str(SCN), "--out", str(out)])
    assert rc == 0
    for name in ("trace.txt", "ledger.csv", "energy_diff.csv",
                 "paths.csv", "summary.txt"):
        assert (out / name).is_file(), name
    printed = capsys.readouterr().out
    assert "Network is fine" in printed


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", str(SCN), "--out", str(a)]) == 0
    assert main(["--scenario", str(SCN), "--out", str(b)]) == 0
    for name in ("trace.txt", "ledger.csv", "energy_diff.csv",
                 "paths.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _scenario_file(tmp_path, name, **kw) -> str:
    path = tmp_path / f"{name}.scn"
    path.write_text(default16_scenario_text(**kw))
    return str(path)


def test_cli_seed_and_horizon_overrides(tmp_path):
    # the seed and horizon come only from the scenario file
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--scenario", _scenario_file(tmp_path, "a", seed=1),
                 "--out", str(a)]) == 0
    assert main(["--scenario", _scenario_file(tmp_path, "b", seed=2),
                 "--out", str(b)]) == 0
    assert (a / "trace.txt").read_bytes() != (b / "trace.txt").read_bytes()
    c = tmp_path / "c"
    assert main(["--scenario", _scenario_file(tmp_path, "c", seed=7, horizon=5),
                 "--out", str(c)]) == 0
    trace = (c / "trace.txt").read_text()
    assert "t=  4 " in trace and "t=  5 " not in trace


def test_cli_sweep_reproduces_reference_numbers(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["--scenario", str(SCN), "--out", str(out),
               "--sweep", "13,12,15,2,14,8,9"])
    assert rc == 0
    got = (out / "paths.csv").read_text().splitlines()
    assert got == [
        "incident,path_nodes,comparisons",
        "irregular1,3,10",
        "irregular2,2,8",
        "irregular3,2,6",
        "irregular4,8,34",
        "irregular5,2,4",
        "irregular6,4,14",
        "irregular7,3,12",
    ]
    for i in range(1, 8):
        assert (out / f"ledger_irregular{i}.csv").is_file()
    diff = (out / "energy_diff.csv").read_text().splitlines()
    assert diff[0] == "run,node_id,consumed_units"
    assert len(diff) == 1 + 7 * 15               # one block per pass


def test_cli_sweep_comparisons_grow_with_path_length(tmp_path):
    out = tmp_path / "sweep"
    main(["--scenario", str(SCN), "--out", str(out),
          "--sweep", "13,12,15,2,14,8,9"])
    rows = [line.split(",") for line in
            (out / "paths.csv").read_text().splitlines()[1:]]
    measured = [(int(nodes), int(comp)) for _, nodes, comp in rows]
    ordered = sorted(measured)
    for (n1, c1), (n2, c2) in zip(ordered, ordered[1:]):
        if n1 < n2:
            assert c1 <= c2
    ratios = sorted(c / n for n, c in measured)
    assert all(1.0 <= r <= 8.0 for r in ratios)
    assert 2.0 <= ratios[len(ratios) // 2] <= 4.0


def test_cli_sweep_prints_an_undelivered_alarm_as_the_summary_does(tmp_path, capsys):
    # the base cannot be reached, so the alarm bounces 2 -> 3 -> 2 until
    # its third round, attempt_cap for three nodes, closes it
    scn = tmp_path / "apart.scn"
    scn.write_text("[field]\nwidth = 600\nheight = 100\nradio_range = 110\n"
                   "[nodes]\n1 0 0 base\n2 500 0\n3 575 0\n")
    out = tmp_path / "sweep"
    assert main(["--scenario", str(scn), "--out", str(out), "--sweep", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "irregular1: node 2 -> undelivered (hop_cap), comparisons=6"
    summary = (out / "summary.txt").read_text()
    assert "path=[2,3,2,3] nodes=4 comparisons=6 undelivered (hop_cap)\n" in summary


def test_cli_lifetime_subcommand(capsys):
    rc = main(["--lifetime", "3000", "1", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lifetime: 3000 periods" in out
    assert "0.9724 mJ" in out and "1.9448 mJ" in out


def test_cli_lifetime_rejects_zero_cost(capsys):
    rc = main(["--lifetime", "100", "0", "0"])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    for args, name in [(["inf", "1", "0"], "initial_energy"),
                       (["3000", "inf", "0"], "e1"),
                       (["-5", "1", "0"], "initial_energy"),
                       (["nan", "1", "0"], "initial_energy"),
                       (["10", "-1", "3"], "e1"),
                       (["10", "3", "-1"], "ep")]:
        assert main(["--lifetime", *args]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {name} ")


def test_cli_requires_scenario(capsys):
    assert main([]) == 2
    assert "--scenario" in capsys.readouterr().err


def test_cli_rejects_bad_sweep_ids(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["--scenario", str(SCN), "--out", str(out),
                 "--sweep", "16"]) == 1           # the base cannot sense
    assert main(["--scenario", str(SCN), "--out", str(out),
                 "--sweep", "99"]) == 1
    assert main(["--scenario", str(SCN), "--out", str(out),
                 "--sweep", "abc"]) == 1
    capsys.readouterr()
    assert main(["--scenario", str(SCN), "--out", str(out),
                 "--sweep", ","]) == 1
    assert "lists no node ids" in capsys.readouterr().err


def test_cli_rejects_bad_scenario_file(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[field]\nwidth = 10\n")
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "bad.scn" in capsys.readouterr().err


def test_cli_rejects_node_id_above_one_byte(tmp_path, capsys):
    scn = tmp_path / "wide.scn"
    scn.write_text("[field]\nwidth = 100\nheight = 10\n"
                   "[nodes]\n1 0 0\n300 50 0 base\n")
    assert main(["--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert "node id 300" in out.err


def test_cli_rejects_alarm_text_the_wire_cannot_carry(tmp_path, capsys):
    scn = tmp_path / "far.scn"
    scn.write_text("[field]\nwidth = 3000\nheight = 3000\n"
                   "[nodes]\n1 0 0 base\n12 1234.5 2345.5\n")
    assert main(["--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert "node 12: its alarm text of 53 bytes exceeds the 52-byte message field" in out.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [[], ["--sweep", "13,2"]], ids=["run", "sweep"])
def test_cli_out_that_cannot_be_created(tmp_path, capsys, args):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    for out in (taken, taken / "sub"):
        assert main(["--scenario", str(SCN), "--out", str(out)] + args) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith(f"error: cannot create output directory {out}")
    assert taken.read_text() == "a file, not a directory\n"


@pytest.mark.parametrize("args, report", [([], "trace.txt"),
                                          (["--sweep", "13,2"], "ledger_irregular1.csv")],
                         ids=["run", "sweep"])
def test_cli_report_that_cannot_be_written(tmp_path, capsys, args, report):
    out = tmp_path / "o"
    (out / report).mkdir(parents=True)
    assert main(["--scenario", str(SCN), "--out", str(out)] + args) == 1
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"error: cannot write {out / report}: Is a directory\n"
    assert (out / report).is_dir()


def test_cli_loss_override(tmp_path):
    out = tmp_path / "lossy"
    scn = _scenario_file(tmp_path, "lossy", seed=7, loss_prob=1.0)
    rc = main(["--scenario", scn, "--out", str(out)])
    assert rc == 0
    ledger = (out / "ledger.csv").read_text()
    assert "query_recv" not in ledger             # nothing ever arrives


def test_cli_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qcs_sim.cli", "--lifetime", "10", "1", "0"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert "lifetime: 10 periods" in proc.stdout


def test_debug_logging_leaves_reports_identical(tmp_path, caplog):
    scn = _scenario_file(tmp_path, "alarm", seed=3, horizon=40,
                         events=((2, 10, 70.0), (5, 4, 95.0)))
    assert main(["--scenario", scn, "--out", str(tmp_path / "quiet")]) == 0
    caplog.set_level(logging.DEBUG, logger="qcs_sim")
    assert main(["--scenario", scn, "--out", str(tmp_path / "debug")]) == 0
    assert caplog.records
    reports = ("trace.txt", "ledger.csv", "energy_diff.csv", "paths.csv", "summary.txt")
    for name in reports:
        assert ((tmp_path / "debug" / name).read_bytes()
                == (tmp_path / "quiet" / name).read_bytes()), name


def test_cli_rejects_unknown_log_level(tmp_path, capsys, monkeypatch):
    # a mistyped level must not run silently at some other level
    monkeypatch.setenv("QCS_SIM_LOG", "verbose")
    for args in (["--scenario", str(SCN), "--out", str(tmp_path / "o")],
                 ["--lifetime", "10", "1", "0"]):
        assert main(args) == 1
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("error: ")
        assert "QCS_SIM_LOG='verbose'" in got.err
    assert not (tmp_path / "o").exists()             # no work was done


def test_cli_log_env_smoke(tmp_path):
    scn = _scenario_file(tmp_path, "alarm", seed=7, events=((2, 10, 70.0),))
    env = subprocess_env(QCS_SIM_LOG="DEBUG")
    proc = subprocess.run(
        [sys.executable, "-m", "qcs_sim.cli",
         "--scenario", scn, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "DEBUG qcs_sim.engine: t=2 incident 1 opened at node 10" in proc.stderr
