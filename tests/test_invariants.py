"""Engine invariants on random runs.

Random connected layouts run with packet loss, overlapping irregular
and devastating alarms, and batteries small enough that nodes drain and
die mid-run.  Every run must keep the ledger and the trace consistent:
initial minus final balance equals the summed debits, no balance goes
below zero, each node that empties dies exactly once, and every closed
incident says why it closed.  Its trace text must also agree with its
record of transmissions.
"""

from __future__ import annotations

import random
import re
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


def _random_runs():
    rng = random.Random(311)
    for _ in range(RUNS):
        yield _random_run(rng)


def test_invariants_hold_on_random_runs():
    seen = Counter()
    for sim in _random_runs():
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


_PACKET_LINE = re.compile(
    r"t= *(\d+) (query|flood|isolation alert) src=(\d+)(?: hop=(\d+))? recv=\[([\d,]*)\]")
_NOTE_OF = {"query": "regular", "flood": "flood", "isolation alert": "alert"}


def _packet_lines(text: str) -> list[tuple]:
    """(tick, note, src, hop, receivers) of every packet line in trace text."""
    out = []
    for line in text.splitlines():
        m = _PACKET_LINE.fullmatch(line)
        if m:
            tick, label, src, hop, recv = m.groups()
            out.append((int(tick), _NOTE_OF[label], int(src), int(hop or 0),
                        tuple(int(r) for r in recv.split(",") if r)))
    return out


def test_trace_text_agrees_with_the_record():
    """Each query, flood and isolation alert line stands for one recorded
    transmission, in the same order, with the same tick, sender, hop
    count and receivers; the hop plane prints no line of its own, and
    records each hop query before the acks it drew."""
    notes = Counter()
    for sim in _random_runs():
        record = sim.trace.packet_events
        events = [(ev.tick, ev.note, ev.src, ev.hop, ev.receivers) for ev in record]
        assert _packet_lines(sim.trace.render()) == [
            ev for ev in events if ev[1] in _NOTE_OF.values()]
        notes.update(ev[1] for ev in events)
        for prev, ev in zip(record, record[1:]):
            if ev.note == "ack":
                assert prev.note in ("hop_query", "ack") and prev.tick == ev.tick
                assert (prev.src if prev.note == "hop_query" else prev.dst) == ev.dst
    # the runs print every kind of packet line, and send hop-plane packets
    assert all(notes[n] for n in ("regular", "flood", "alert", "hop_query", "ack"))
