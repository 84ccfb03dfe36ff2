"""The benchmark's span tracer still finds and reaches every name it wraps.

``perfbench/tracer.py`` patches the names callers look up (for example
``qcs_sim.engine.handle_query``, the name the engine calls) by
``vars(owner)[attr]``.  A refactor that unbinds one of them, or stops
calling it through that name, breaks the traced benchmark pass; this
test catches it in a second instead.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qcs_sim import cli, default16_scenario_text, energy, engine, metrics, scenario

REPO = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_run_matches_untraced_and_reaches_every_layer(tmp_path):
    tracer = _load_tracer()
    scn = tmp_path / "run.scn"
    # an alarm, then a flood whose reset wave sweeps the network; 5 % loss
    scn.write_text(default16_scenario_text(
        seed=3, horizon=40, loss_prob=0.05, events=((2, 10, 70.0), (5, 4, 95.0))))

    def argv(name):
        return ["--scenario", str(scn), "--out", str(tmp_path / name)]

    assert cli.main(argv("plain")) == 0
    spans = tracer.Tracer()
    targets = tracer.layer_targets(cli, scenario, engine, energy, metrics)
    with spans.active(targets):
        assert cli.main(argv("traced")) == 0

    assert _reports(tmp_path / "traced") == _reports(tmp_path / "plain")
    calls = spans.rollup()[0].calls
    assert [layer for layer, _, _ in targets if calls[layer] == 0] == []
