"""The engine's record equals the plain reference simulator's.

``spec.spec_run`` re-implements the tick loop and the node rules in
their plainest form.  Each tier-1 corpus runs through both, the engine
stepped by hand, and the two must agree on every record, incident
(its hops, close reason and close tick included), flood epoch (its
infections in the order they happened), ledger row and final node
state, a dead sensor's role included.  After every step the engine's
list of live sensors must hold exactly its live sensors, in id order.

``python tests/spec.py --all`` runs the same comparison on every corpus
and on every realization the benchmark pins.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from qcs_sim import Simulation
from qcs_sim.scenario import parse_scenario, sweep_scenario

from spec import spec_run
from test_bench_checks import load_workloads
from test_golden import REPO
from test_invariants import (
    RESET_SEND_DEATH, _golden_scenarios, _pocket_scenarios, _random_scenarios, _sweep_calls,
)


def engine_run(sc) -> Simulation:
    """Step a Simulation of sc to its horizon; after every step its
    sensor list must be exactly the live sensors, in id order."""
    sim = Simulation(sc)
    while sim.tick < sc.horizon:
        sim.step()
        live = [n for n in sim.nodes.values() if not n.is_base and n.energy > 0]
        assert len(sim._sensors) == len(live), sim.tick
        assert all(a is b for a, b in zip(sim._sensors, live)), sim.tick
    return sim


def _flood_facts(f) -> tuple:
    """A flood epoch's fields, its infections as an item list so that
    their order counts."""
    return (f.origins, f.hop_cap, list(f.infected_at.items()), f.base_receipt_tick,
            f.completed_tick)


def _rows(cells) -> list[tuple]:
    return list(zip(*[iter(cells)] * 5))


def first_mismatch(sim: Simulation, spec) -> str | None:
    """Where an engine run and a spec run of one scenario first differ,
    or None if they agree."""
    trace = sim.trace
    for name, got, want in (
        ("records", trace.records, spec.records),
        ("incidents", trace.incidents, spec.incidents),
        ("floods", list(map(_flood_facts, trace.floods)), list(map(_flood_facts, spec.floods))),
        ("ledger rows", _rows(sim.ledger.cells), _rows(spec.cells)),
        ("nodes", list(sim.nodes.items()), list(spec.nodes.items())),
    ):
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"{name}[{i}]: engine {a!r} != spec {b!r}"
        if len(got) != len(want):
            return f"{name}: engine has {len(got)}, spec {len(want)}"
    return None


def _sweeps(calls):
    """The runs of each sweep-mode call (scenario text, ids), as the CLI
    builds them."""
    for text, ids in calls:
        sc = parse_scenario(text)
        for i, nid in enumerate(ids, start=1):
            yield sweep_scenario(sc, i, nid)


def _benchmark(name: str):
    """Every realization of workload name that perfbench/digests.json
    pins: workload seeds 0..31 and the default seed."""
    w = load_workloads().WORKLOADS[name]
    for seed in sorted(set(range(32)) | {w.default_seed}):
        for scenario_seed in w.scenario_seeds(seed):
            text = w.scenario_text(scenario_seed, REPO)
            if w.sweep_ids is None:
                yield parse_scenario(text)
            else:
                yield from _sweeps([(text, w.sweep_ids)])


def corpora(benchmark: bool = False) -> dict:
    """Each corpus's scenarios by name, lazily; benchmark adds the
    benchmark's pinned realizations."""
    out = {
        "golden": _golden_scenarios(),
        "random": _random_scenarios(),
        "pocket": (sc for sc, _ in _pocket_scenarios()),
        "sweep": _sweeps(_sweep_calls()),
        "reset_send_death": iter([parse_scenario(RESET_SEND_DEATH)]),
    }
    if benchmark:
        out["grid225_lifetime"] = _benchmark("grid225_lifetime")
        out["sweep16_paper"] = _benchmark("sweep16_paper")
    return out


@pytest.mark.parametrize("name", list(corpora()))
def test_engine_record_equals_the_spec(name):
    runs = 0
    for sc in corpora()[name]:
        runs += 1
        assert first_mismatch(engine_run(sc), spec_run(sc)) is None, f"run {runs}"
    assert runs


def test_the_spec_reads_no_engine_internals():
    """spec.py imports nothing of the engine, no node rule (only
    init_modes and NodeState), and uses neither Topology.neighbors nor
    Topology.base_hops."""
    tree = ast.parse((Path(__file__).parent / "spec.py").read_text(encoding="utf-8"))
    modules, node_names, attrs = set(), set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            modules |= {alias.name for alias in n.names}
        elif isinstance(n, ast.ImportFrom):
            modules.add(n.module)
            if n.module == "qcs_sim.node":
                node_names |= {alias.name for alias in n.names}
            if n.module == "qcs_sim":
                assert not {"engine", "node", "Simulation"} & {a.name for a in n.names}
        elif isinstance(n, (ast.Attribute, ast.Name)):
            attrs.add(n.attr if isinstance(n, ast.Attribute) else n.id)
    assert "qcs_sim.record" in modules  # the walk found the imports
    assert "qcs_sim.engine" not in modules
    assert node_names == {"init_modes", "NodeState"}
    assert not {"neighbors", "base_hops", "Simulation"} & attrs
