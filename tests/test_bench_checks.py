"""The benchmark's own per-call checks, replayed on each workload.

``perfbench/run.py`` checks every call it times: the exit code, the
sha256 of the reports against ``perfbench/digests.json``, and the
engine invariants on each returned ``Trace`` and ``EnergyLedger``; then
``Op`` reads its counts off those objects.  A change that breaks any of
these fails every benchmark call, so this test runs every realization
of each workload's default seed through the benchmark's own hooks and
checks.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

from qcs_sim import cli

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "perfbench"


def load_workloads():
    """perfbench/workloads.py, imported by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses resolve names through it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def _realizations() -> list[tuple[str, int]]:
    """(workload, realization index) for every realization of each
    workload's default seed."""
    return [(name, j) for name, w in load_workloads().WORKLOADS.items()
            for j in range(w.realizations)]


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py, imported by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports tracer and workloads
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    before = set(sys.modules)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before - {spec.name}:
        del sys.modules[name]


@pytest.mark.parametrize("workload, realization", _realizations())
def test_benchmark_checks_pass(bench, workload, realization, tmp_path):
    w = bench.WORKLOADS[workload]
    seed = w.scenario_seeds(w.default_seed)[realization]
    scn = tmp_path / f"{seed}.scn"
    scn.write_text(w.scenario_text(seed, REPO), encoding="utf-8")
    out = tmp_path / "out"

    cap = bench.Capture(cli, ticks=[])
    with cap.active():
        t0 = time.perf_counter()
        assert cli.main(w.cli_args(scn, out)) == 0
        wall = time.perf_counter() - t0

    pinned = json.loads((BENCH / "digests.json").read_text())[workload]
    assert bench.report_digest(out) == pinned[str(seed)]
    assert cap.results
    for trace, ledger in cap.results:
        assert bench.invariant_errors(trace, ledger) == []
    op = bench.Op(wall, cap, out)
    assert op.packet_events > 0
    assert op.rows > 0
    assert op.trace_lines > 0
