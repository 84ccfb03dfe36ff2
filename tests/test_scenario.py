"""Scenario file parsing: sections, defaults, overrides, validation."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from qcs_sim import CostModel, default16_scenario_text, load_scenario, parse_scenario
from qcs_sim.scenario import DEFAULT_HORIZON, SenseEvent

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

[thresholds]
irregular = 50
devastating = 90

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
    assert sc.thresholds.devastating_level == 90.0
    assert sc.events == (SenseEvent(2, 1, 70.5), SenseEvent(5, 2, 95.0))


def test_defaults_when_sections_omitted():
    text = "[field]\nwidth = 100\nheight = 100\n[nodes]\n1 0 0\n2 50 0 base\n"
    sc = parse_scenario(text)
    assert sc.horizon == DEFAULT_HORIZON == 20
    assert sc.seed == 0
    assert sc.loss_prob == 0.0
    assert sc.events == ()
    assert sc.costs == CostModel()
    assert sc.thresholds.irregular_level == 50.0


def test_bundled_default_text_parses():
    sc = parse_scenario(default16_scenario_text(seed=3, horizon=25))
    assert len(sc.topology.nodes) == 16
    assert sc.seed == 3
    assert sc.horizon == 25
    assert sc.topology.is_connected()


def test_with_overrides_replaces_only_named_fields():
    sc = parse_scenario(FULL)
    out = sc.with_overrides(seed=9, loss_prob=0.0)
    assert out.seed == 9
    assert out.loss_prob == 0.0
    assert out.horizon == sc.horizon
    assert sc.seed == 7  # original untouched


@pytest.mark.parametrize("mutation, needle", [
    (("loss_prob = 0.25", "loss_prob = 1.5"), "loss_prob"),
    (("horizon = 30", "horizon = 0"), "horizon"),
    (("2 1 70.5", "2 16 70.5"), "base"),        # base cannot sense events
    (("2 1 70.5", "40 1 70.5"), "horizon"),     # event after the run ends
    (("2 1 70.5", "2 99 70.5"), "unknown"),     # event on unknown node
    (("threshold = 500", "threshold = 500\nwattage = 9"), "wattage"),
    (("irregular = 50", "irregular = 95"), "devastating"),
    (("threshold = 500", "threshold = 500\nsource_cost = 2"), "source_cost"),
    (("threshold = 500", "threshold = 500\nep = 0"), "'ep'"),
    (("radio_range = 110", "radio_range = nan"), "[field] radio_range"),
    (("width = 300", "width = inf"), "[field] width"),
    (("\n1 0 0\n", "\n1 nan 0\n"), "[nodes] x"),
    (("2 1 70.5", "2 1 nan"), "[events] reading"),
    (("devastating = 90", "devastating = inf"), "[thresholds] devastating"),
    (("threshold = 500", "threshold = 500\nquery_cost = 1"),
     "[costs] has unknown key 'query_cost'"),
    (("threshold = 500", "threshold = 500\nisolation_multiplier = 2"),
     "[costs] has unknown key 'isolation_multiplier'"),
    (("[events]", "[evnts]"), "unknown section [evnts]"),
    (("horizon = 30", "horizon = 30\nhorizen = 40"), "[sim] has unknown key 'horizen'"),
    (("irregular = 50", "irregular = 50\nirregullar = 10"),
     "[thresholds] has unknown key 'irregullar'"),
    (("radio_range = 110", "radio_range = 110\nradio_rnage = 90"),
     "[field] has unknown key 'radio_rnage'"),
])
def test_rejects_bad_values(mutation, needle):
    old, new = mutation
    assert FULL.count(old) == 1
    with pytest.raises(ValueError) as err:
        parse_scenario(FULL.replace(old, new))
    assert needle in str(err.value)


def test_events_must_have_three_fields():
    with pytest.raises(ValueError):
        parse_scenario(FULL.replace("2 1 70.5", "2 1"))


def test_load_scenario_names_the_file(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text(FULL.replace("horizon = 30", "horizon = -1"))
    with pytest.raises(ValueError) as err:
        load_scenario(p)
    assert "bad.scn" in str(err.value)


def test_load_scenario_roundtrip(tmp_path):
    p = tmp_path / "ok.scn"
    p.write_text(FULL)
    sc = load_scenario(p)
    assert sc.horizon == 30


def test_readme_example_scenario_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    sc = parse_scenario(blocks[0])
    assert sc.topology.base_id == 16
    assert sc.costs.threshold == 500
    assert sc.events == (SenseEvent(2, 2, 70.0),)
