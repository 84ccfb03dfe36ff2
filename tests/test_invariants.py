"""Engine invariants on random runs.

Random connected layouts run with packet loss, overlapping irregular
and devastating alarms, and batteries small enough that nodes drain and
die mid-run.  Every run must keep the ledger and the trace consistent:
initial minus final balance equals the summed debits, no balance goes
below zero, each node that empties dies exactly once, and every closed
incident says why it closed.
"""

from __future__ import annotations

import random
from collections import Counter

from qcs_sim import CostModel, Simulation
from qcs_sim.scenario import SenseEvent

from conftest import make_scenario, random_connected_topology

RUNS = 60


def _random_run(rng: random.Random) -> Simulation:
    topo = random_connected_topology(rng, n_max=20)
    sensors = topo.sensor_ids()
    horizon = rng.randint(30, 60)
    events = tuple(
        SenseEvent(rng.randrange(12), rng.choice(sensors), rng.choice((70.0, 95.0)))
        for _ in range(rng.randint(1, 4))
    )
    lo = rng.randint(20, 60)
    costs = CostModel(threshold=rng.randrange(lo), init_min=lo,
                      init_max=rng.randint(lo, 60))
    sc = make_scenario(topo, seed=rng.randrange(10_000), horizon=horizon,
                       loss_prob=rng.uniform(0.0, 0.3), events=events, costs=costs)
    sim = Simulation(sc)
    sim.run()
    return sim


def test_invariants_hold_on_random_runs():
    rng = random.Random(311)
    seen = Counter()
    for _ in range(RUNS):
        sim = _random_run(rng)
        trace, ledger = sim.trace, sim.ledger

        spent = Counter()
        for e in ledger.entries:
            assert e.balance >= 0
            spent[e.node_id] += e.debit
        died = Counter(nid for _, nid in trace.deaths)
        for nid in sim.topology.sensor_ids():
            final = ledger.balance(nid)
            assert final >= 0
            assert trace.initial_energy[nid] - final == spent[nid]
            assert died[nid] == (1 if final == 0 else 0), nid
        assert sim.base_id not in died

        for rec in trace.incidents:
            if rec.closed:
                assert rec.close_reason
                seen[rec.close_reason] += 1
        seen["deaths"] += len(trace.deaths)
        seen["floods"] += len(trace.floods)

    # the random inputs reach the states the invariants are about
    assert seen["deaths"] and seen["floods"]
    assert {"delivered", "escalated", "holder_died", "hop_cap", "base_reset"} <= set(seen)
