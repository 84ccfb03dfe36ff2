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


#: the paper's sweep on default16, as the golden sweep runs it
_SWEEP16 = ["--scenario", str(REPO / "scenarios" / "default16.scn"),
            "--sweep", "13,12,15,2,14,8,9"]


def _reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _traced_matches_plain(tmp_path, spans, targets, name, args) -> None:
    """Run the CLI on args untraced and then traced; both write the same reports."""
    def argv(side):
        return [*args, "--out", str(tmp_path / name / side)]

    assert cli.main(argv("plain")) == 0
    with spans.active(targets):
        assert cli.main(argv("traced")) == 0
    assert _reports(tmp_path / name / "traced") == _reports(tmp_path / name / "plain")


def test_traced_run_matches_untraced_and_reaches_every_layer(tmp_path):
    """Every wrapped layer is reached by one run or one sweep, the two
    CLI paths the benchmark's workloads take."""
    tracer = _load_tracer()
    scn = tmp_path / "run.scn"
    # an alarm, then a flood whose reset wave sweeps the network; 5 % loss
    scn.write_text(default16_scenario_text(
        seed=3, horizon=40, loss_prob=0.05, events=((2, 10, 70.0), (5, 4, 95.0))))
    spans = tracer.Tracer()
    targets = tracer.layer_targets(cli, scenario, engine, energy, metrics)
    _traced_matches_plain(tmp_path, spans, targets, "run", ["--scenario", str(scn)])
    _traced_matches_plain(tmp_path, spans, targets, "sweep", _SWEEP16)

    calls = spans.rollup()[0].calls
    assert [layer for layer, _, _ in targets if calls[layer] == 0] == []


def test_traced_sweep_renders_every_trace_inside_a_metrics_span(tmp_path):
    """The sweep renders each run's trace with metrics.render_trace, so
    the tracer counts that time as a report writer's."""
    tracer = _load_tracer()
    spans = tracer.Tracer()
    targets = tracer.layer_targets(cli, scenario, engine, energy, metrics)
    _traced_matches_plain(tmp_path, spans, targets, "sweep", _SWEEP16)

    assert spans.rollup()[0].calls["metrics.render_trace"] == 7
