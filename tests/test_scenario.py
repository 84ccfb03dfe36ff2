"""Scenario file parsing: sections, defaults, validation."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from qcs_sim import CostModel, default16_scenario_text, load_scenario, parse_scenario
from qcs_sim.scenario import DEFAULT_HORIZON, SenseEvent

REPO = Path(__file__).resolve().parent.parent
SCN = REPO / "scenarios" / "default16.scn"

FULL = """\
[field]
width = 300
height = 500
radio_range = 110

[nodes]
1 0 0
2 225 0
16 150 450 base

[costs]
threshold = 500
init_min = 3000
init_max = 5000

[events]
2 1 70.5
5 2 95

[sim]
seed = 7
horizon = 30
loss_prob = 0.25
"""


def test_parse_full_scenario():
    sc = parse_scenario(FULL)
    assert sc.seed == 7
    assert sc.horizon == 30
    assert sc.loss_prob == 0.25
    assert sc.topology.base_id == 16
    assert sc.costs.threshold == 500
    assert sc.events == (SenseEvent(2, 1, 70.5), SenseEvent(5, 2, 95.0))


def test_defaults_when_sections_omitted():
    text = "[field]\nwidth = 100\nheight = 100\n[nodes]\n1 0 0\n2 50 0 base\n"
    sc = parse_scenario(text)
    assert sc.horizon == DEFAULT_HORIZON == 20
    assert sc.seed == 0
    assert sc.loss_prob == 0.0
    assert sc.events == ()
    assert sc.costs == CostModel()


def test_bundled_default_text_parses():
    sc = parse_scenario(default16_scenario_text(seed=3, horizon=25))
    assert len(sc.topology.nodes) == 16
    assert sc.seed == 3
    assert sc.horizon == 25
    assert sc.topology.is_connected()


@pytest.mark.parametrize("mutation, needle", [
    (("loss_prob = 0.25", "loss_prob = 1.5"), "loss_prob"),
    (("horizon = 30", "horizon = 0"), "horizon"),
    (("2 1 70.5", "2 16 70.5"), "base"),        # base cannot sense events
    (("2 1 70.5", "40 1 70.5"), "horizon"),     # event after the run ends
    (("2 1 70.5", "2 99 70.5"), "unknown"),     # event on unknown node
    (("threshold = 500", "threshold = 500\nwattage = 9"), "wattage"),
    (("loss_prob = 0.25", "loss_prob = 0.25\n[sim]\nhorizon = 40\nhorizon = 50"),
     "repeated section [sim]"),
    (("threshold = 500", "threshold = 500\nsource_cost = 2"), "source_cost"),
    (("threshold = 500", "threshold = 500\nep = 0"), "'ep'"),
    (("radio_range = 110", "radio_range = nan"), "[field] radio_range"),
    (("width = 300", "width = inf"), "[field] width"),
    (("\n1 0 0\n", "\n1 nan 0\n"), "[nodes] x"),
    (("2 1 70.5", "2 1 nan"), "[events] reading"),
    (("[events]", "[thresholds]\nirregular = 50\n[events]"),
     "unknown section [thresholds]"),   # the levels are fixed, not configured
    (("threshold = 500", "threshold = 500\nquery_cost = 1"),
     "[costs] has unknown key 'query_cost'"),
    (("threshold = 500", "threshold = 500\nisolation_multiplier = 2"),
     "[costs] has unknown key 'isolation_multiplier'"),
    (("[events]", "[evnts]"), "unknown section [evnts]"),
    (("horizon = 30", "horizon = 30\nhorizen = 40"), "[sim] has unknown key 'horizen'"),
    (("width = 300", "width = 300\nwidth = 5000"), "[field] repeats key 'width'"),
    (("radio_range = 110", "radio_range = 110\nradio_rnage = 90"),
     "[field] has unknown key 'radio_rnage'"),
    (("horizon = 30", "horizon = 30\nhorizon = 40"), "[sim] repeats key 'horizon'"),
    (("[sim]", "[sim"), "malformed section header"),
    (("threshold = 500", "threshold 500"), "expects key = value lines"),
    (("\n1 0 0\n", "\n1 0\n"), "needs 'id x y [base]'"),
    (("\n1 0 0\n", "\nx1 0 0\n"), "non-integer id"),
    (("\n1 0 0\n", "\n0 0 0\n"), "node id must be a positive int"),
    (("horizon = 30", "horizon = 3.5"), "must be an integer"),
    (("2 1 70.5", "2.5 1 70.5"), "non-integer fields"),
    (("threshold = 500", "threshold = -1"), "threshold cannot be negative"),
])
def test_rejects_bad_values(mutation, needle):
    old, new = mutation
    assert FULL.count(old) == 1
    with pytest.raises(ValueError) as err:
        parse_scenario(FULL.replace(old, new))
    assert needle in str(err.value)


WIRE = "[field]\nwidth = 4096\nheight = 4096\n[nodes]\n1 0 0 base\n{node}\n[costs]\n{costs}\n"


@pytest.mark.parametrize("node, costs, needle", [
    ("12 1234.5 2345.5", "",
     "node 12: its alarm text of 53 bytes exceeds the 52-byte message field"),
    ("2 33.3 0", "", "node 2 at (33.3, 0.0): coordinate 33.3 not representable in 1/16 units"),
    ("2 0 4096", "", "node 2 at (0.0, 4096.0): coordinate 4096.0 out of the encodable range"),
    ("2 16 0", "init_max = 5000000000",
     "init_max 5000000000 does not fit the 32-bit energy field"),
    ("255 4095.9375 4095.9375", "",
     "node 255: its alarm text of 60 bytes exceeds the 52-byte message field"),
], ids=["long-alarm", "off-grid", "off-range", "init-max", "max-id-max-coords"])
def test_rejects_what_the_wire_cannot_carry(node, costs, needle):
    with pytest.raises(ValueError) as err:
        parse_scenario(WIRE.format(node=node, costs=costs))
    assert needle in str(err.value)


def test_accepts_the_wire_limits():
    # the top coordinate, and an alarm text of 50 bytes
    sc = parse_scenario(WIRE.format(node="9 4095.9375 0",
                                    costs="init_max = 4294967294"))
    assert sc.topology.nodes[9] == (4095.9375, 0.0)
    assert sc.costs.init_max == 0xFFFFFFFF - 1


def test_events_must_have_three_fields():
    with pytest.raises(ValueError):
        parse_scenario(FULL.replace("2 1 70.5", "2 1"))


def test_load_scenario_names_the_file(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(FULL.replace("horizon = 30", "horizon = -1"))
    with pytest.raises(ValueError) as err:
        load_scenario(p)
    assert "bad.scn" in str(err.value)
    with pytest.raises(ValueError) as err:
        load_scenario(tmp_path / "missing.scn")
    assert "cannot read scenario file" in str(err.value)
    assert "missing.scn" in str(err.value)


def test_load_scenario_roundtrip(tmp_path):
    p = tmp_path / "ok.scn"
    p.write_text(FULL)
    sc = load_scenario(p)
    assert sc.horizon == 30


def _readme_example() -> str:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_scenario_parses():
    sc = parse_scenario(_readme_example())
    assert sc.topology.base_id == 16
    assert sc.costs.threshold == 500
    assert sc.events == (SenseEvent(2, 2, 70.0),)


def test_default16_text_matches_the_checked_in_file():
    # layouts.py and scenarios/default16.scn restate the same network
    assert default16_scenario_text(seed=7, horizon=20) == SCN.read_text(encoding="utf-8")


def _load_workloads(monkeypatch):
    """perfbench/workloads.py, imported by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_scenario_the_repo_runs_loads(monkeypatch):
    """The checked-in file, the README example and every benchmark
    realization at its workload's default seed all pass the parser."""
    texts = [SCN.read_text(encoding="utf-8"), _readme_example()]
    for w in _load_workloads(monkeypatch).WORKLOADS.values():
        texts += [w.scenario_text(seed, REPO)
                  for seed in w.scenario_seeds(w.default_seed)]
    assert len(texts) > 2
    for text in texts:
        parse_scenario(text)
