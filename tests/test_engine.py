"""Engine behavior: polling, greedy forwarding, flooding, resets, loss."""

from __future__ import annotations

import itertools
import logging
import math
import random
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from qcs_sim import (
    CostModel,
    Simulation,
    Topology,
    default16_scenario_text,
    default16_topology,
    draw_initial_energy,
    init_modes,
    lifetime,
    parse_scenario,
)
from qcs_sim import engine
from qcs_sim.energy import ISOLATION_MULTIPLIER, PRICES
from qcs_sim.metrics import render_trace
from qcs_sim.packet import PacketKind
from qcs_sim.record import NOTES, BaseReceipt, Death, PacketEvent, Sense
from qcs_sim.scenario import SenseEvent
from qcs_sim.topology import dist

from conftest import (
    audit_regular_window,
    bfs_hops,
    brute_adjacency,
    make_scenario,
    oracle_hop_choice,
    random_connected_topology,
    run_sampled,
)
from test_golden import _grid225_text


def sim16(*, seed=7, horizon=20, loss_prob=0.0, events=()):
    text = default16_scenario_text(seed=seed, horizon=horizon,
                                   loss_prob=loss_prob, events=events)
    return Simulation(parse_scenario(text))


def run16(**kw):
    sim = sim16(**kw)
    return sim, sim.run()


# ----------------------------------------------------------- regular mode

def test_quiet_network_just_polls():
    sim = sim16()
    tr, seen = run_sampled(sim)
    audit_regular_window(sim, tr, seen.modes, 0, 20)
    assert tr.base.message == "Network is fine"
    assert tr.incidents == []
    assert tr.floods == []


def test_quiet_polling_on_random_layouts():
    rng = random.Random(21)
    for _ in range(10):
        topo = random_connected_topology(rng)
        sc = make_scenario(topo, seed=rng.randint(0, 999), horizon=15)
        sim = Simulation(sc)
        tr, seen = run_sampled(sim)
        audit_regular_window(sim, tr, seen.modes, 0, 15)


def test_regular_plane_builds_no_packet(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a regular-plane query built or handled a packet")

    monkeypatch.setattr(engine, "make_query", refuse)
    monkeypatch.setattr(engine, "handle_query", refuse)
    sim = sim16(horizon=20)
    tr, seen = run_sampled(sim)
    assert tr.packet_events
    assert all(NOTES[ev.note].kind == PacketKind.QUERY and ev.note == "regular"
               for ev in tr.packet_events)
    # each listener's stamp is the last tick one of its neighbours polled
    for nid in sim.topology.sensor_ids():
        polled = [t for t, modes in enumerate(seen.modes)
                  if any(modes[j] == "Q" for j in sim.topology.neighbors(nid))]
        assert polled
        assert sim.nodes[nid].heard_tick == polled[-1]


def test_query_lines_keep_listener_order():
    # one-unit batteries: every send and every receive empties a sensor,
    # so each listener's death line lands among the query's other lines
    text = default16_scenario_text(seed=0, horizon=6).replace(
        "[sim]", "[costs]\ninit_min = 1\ninit_max = 1\nthreshold = 0\n\n[sim]")
    lines = render_trace(Simulation(parse_scenario(text)).run()).splitlines()
    want = [
        "t=  0 node 14 died (query_send)",
        "t=  0 node 12 died (query_recv)",
        "t=  0 base: 'Network is fine'",
        "t=  0 query src=14 recv=[12,16]",
    ]
    i = lines.index(want[0])
    assert lines[i:i + len(want)] == want


def test_flood_and_alert_lines_keep_receiver_order():
    # small batteries: receivers on both sides of the base's id die in
    # the broadcast the base hears, and each death line lands among that
    # broadcast's lines in receiver order, not all before the base's line
    flood = Topology(
        nodes={1: (688.0, 912.0), 2: (704.0, 960.0), 3: (672.0, 1056.0),
               4: (704.0, 1008.0), 5: (624.0, 960.0)},
        base_id=4, radio_range=110.0, field_size=(1200.0, 1200.0))
    alert = Topology(
        nodes={1: (384.0, 672.0), 2: (464.0, 720.0), 3: (384.0, 768.0),
               4: (432.0, 608.0), 5: (448.0, 800.0), 6: (368.0, 784.0),
               7: (416.0, 736.0), 8: (448.0, 528.0), 9: (368.0, 592.0)},
        base_id=5, radio_range=110.0, field_size=(1200.0, 1200.0))
    runs = [
        (make_scenario(flood, seed=82, horizon=25, events=(SenseEvent(7, 3, 95.0),),
                       costs=CostModel(threshold=0, init_min=17, init_max=18)), [
            "t=  8 node 2 died (flood_recv)",
            "t=  8 base received flood alarm: 'Affected NODE is ->NODE3 At Location (672 1056)'",
            "t=  8 node 5 died (flood_recv)",
            "t=  8 flood src=3 hop=0 recv=[2,4,5]",
        ]),
        (make_scenario(alert, seed=52, horizon=25,
                       costs=CostModel(threshold=0, init_min=21, init_max=24)), [
            "t= 11 node 2 died (alert_send)",
            "t= 11 node 4 died (alert_recv)",
            "t= 11 base: node number '2' became disconnected",
            "t= 11 node 9 died (alert_recv)",
            "t= 11 isolation alert src=2 recv=[4,5,6,8,9]",
        ]),
    ]
    for sc, want in runs:
        lines = render_trace(Simulation(sc).run()).splitlines()
        i = lines.index(want[0])
        assert lines[i:i + len(want)] == want


def test_base_returns_to_listening_among_a_query_s_receivers():
    # one-unit batteries: node 4 queries nodes 1, 2 (the base) and 3, and
    # each receiver's death line and the base's return to "Network is
    # fine" come in receiver order, before the query's own line
    topo = Topology(nodes={1: (100.0, 100.0), 2: (175.0, 100.0), 3: (250.0, 100.0),
                           4: (175.0, 175.0)},
                    base_id=2, radio_range=110.0, field_size=(400.0, 400.0))
    sc = make_scenario(topo, seed=0, horizon=3,
                       costs=CostModel(threshold=0, init_min=1, init_max=1))
    lines = render_trace(Simulation(sc).run()).splitlines()
    want = [
        "t=  0 node 4 died (query_send)",
        "t=  0 node 1 died (query_recv)",
        "t=  0 base: 'Network is fine'",
        "t=  0 node 3 died (query_recv)",
        "t=  0 query src=4 recv=[1,2,3]",
    ]
    assert [ln for ln in lines if ln.startswith("t=  0 ")] == want


def test_q_sensor_emptied_earlier_in_its_run_sends_nothing():
    # a line 1-2-3-4 with the base 5 at its end: the starting roles are
    # Q for 1 and 4, so the adjacent sensors 2 and 3 are Q together on
    # odd ticks.  At tick 3 both are live Q sensors of one run of
    # queries, and node 2's query empties node 3 before its turn
    topo = Topology(nodes={i: (100.0 * (i - 1), 0.0) for i in range(1, 6)},
                    base_id=5, radio_range=110.0, field_size=(400.0, 100.0))
    sim = Simulation(make_scenario(topo, seed=38, horizon=4,
                                   costs=CostModel(threshold=0, init_min=5, init_max=8)))
    for _ in range(3):
        sim.step()
    assert [sim.nodes[i].role for i in (2, 3)] == ["Q", "Q"]
    assert sim.nodes[3].energy > 0 and sim.nodes[3] in sim._nbrs[2]
    tr = sim.run()
    assert [d for d in tr.records if type(d) is Death and d.node == 3] == [
        Death(3, 3, "query_recv")]
    assert [e.cause for e in sim.ledger.entries if e.tick == 3 and e.node_id == 3] == [
        "query_recv"]
    assert [e.src for e in tr.packet_events if e.tick == 3 and e.note == "regular"] == [2]


_BROADCAST_LABEL = {"regular": "query", "flood": "flood", "alert": "isolation alert"}


@pytest.mark.parametrize("events, want", [
    # node 11 rebroadcasts node 1's flood at depth 4, then node 13's, in
    # a fresh epoch, at depth 1, both times to [10,13]; node 13's own
    # lines share their receivers too (hop 5, then hop 0 as the origin);
    # nodes 14 and 15 both query [12,16]
    (((0, 1, 95.0), (16, 13, 95.0)),
     ["t=  5 flood src=11 hop=4 recv=[10,13]", "t= 18 flood src=11 hop=1 recv=[10,13]",
      "t=  0 query src=14 recv=[12,16]", "t=  5 query src=15 recv=[12,16]"]),
    # node 13's regular queries and its own flood (hop 0, as a query's
    # hop) reach the same [11,15]; nodes 6 and 11 both query [10]
    (((4, 13, 95.0),),
     ["t=  2 query src=13 recv=[11,15]", "t=  5 flood src=13 hop=0 recv=[11,15]",
      "t= 10 query src=13 recv=[11,15]",
      "t=  0 query src=6 recv=[10]", "t=  5 query src=11 recv=[10]"]),
], ids=["flood-at-two-depths", "query-then-flood"])
def test_broadcast_lines_that_share_receivers_keep_their_label_and_hop(events, want):
    # each query, flood and alert line equals its event formatted afresh,
    # so a line that reuses another's text with a different label, hop,
    # sender or tick shows up here
    tr = sim16(events=events).run()
    lines = [ln for ln in render_trace(tr).splitlines()
             if ln.split(" src=")[0][6:] in _BROADCAST_LABEL.values()]
    assert lines == [
        f"t={e.tick:>3} {_BROADCAST_LABEL[e.note]} src={e.src}"
        + (f" hop={e.hop}" if e.note == "flood" else "")
        + f" recv=[{','.join(map(str, e.receivers))}]"
        for e in tr.packet_events if e.note in _BROADCAST_LABEL]
    assert set(want) <= set(lines)


def test_neighbour_tuples_hold_the_node_states():
    rng = random.Random(17)
    topos = [default16_topology()] + [random_connected_topology(rng) for _ in range(5)]
    for topo in topos:
        sim = Simulation(make_scenario(topo, seed=3, horizon=1))
        assert set(sim._nbrs) == set(sim.nodes)
        for nid, nbrs in sim._nbrs.items():
            want = [sim.nodes[j] for j in topo.neighbors(nid)]
            assert len(nbrs) == len(want)
            assert all(a is b for a, b in zip(nbrs, want))
        assert [n.node_id for n in sim._sensors] == topo.sensor_ids()
        assert all(n is sim.nodes[n.node_id] for n in sim._sensors)


def test_initial_state_recorded():
    sim = sim16(seed=5)
    tr, seen = run_sampled(sim)
    topo = default16_topology()
    initial_modes = {n: m for n, m in seen.modes[0].items() if n != topo.base_id}
    assert initial_modes == init_modes(topo, "5")
    lo, hi = CostModel().init_min, CostModel().init_max
    for nid in topo.sensor_ids():
        assert tr.initial_energy[nid] == draw_initial_energy("5", nid, lo, hi)


# ------------------------------------------------------- alarm forwarding

EV10 = ((2, 10, 70.0),)


def test_alarm_reaches_base_greedily():
    sim, tr = run16(events=EV10)
    rec = tr.incidents[0]
    assert rec.origin == 10
    assert rec.path == [10, 11, 13, 15, 16]
    assert rec.delivery_tick == 6        # one accepted hop per tick from t=3
    assert rec.close_reason == "delivered"
    assert rec.message == "Affected NODE is ->NODE10 At Location (225 225)"
    assert tr.base_inbox == [(6, rec.message)]


def test_alarm_base_record_snapshot():
    sim, tr = run16(events=EV10)
    base = tr.base
    assert base is sim.nodes[sim.base_id]
    assert base.energy == math.inf
    assert base.pos == (150.0, 450.0)
    assert (base.flag1, base.flag2, base.mode) == (True, False, "S")
    assert base.message == "Affected NODE is ->NODE10 At Location (225 225)"


def test_new_holder_waits_one_tick():
    sim, tr = run16(events=EV10)
    rec = tr.incidents[0]
    ticks = [h.tick for h in rec.hops]
    assert ticks == [3, 4, 5, 6]         # sensed at 2, first hop at 3
    assert [h.holder for h in rec.hops] == [10, 11, 13, 15]
    assert all(h.outcome == "confirmed" for h in rec.hops)


def test_handover_ledger_identity():
    sim, tr = run16(events=EV10)
    rows = defaultdict(lambda: defaultdict(int))
    for e in sim.ledger.entries:
        rows[(e.tick, e.node_id)][e.cause] += e.debit
    rec = tr.incidents[0]
    for hop in rec.hops:
        got = dict(rows[(hop.tick, hop.holder)])
        assert got == {
            "hop_query": 1,
            "ack_recv": hop.replies,
            "source_send": 4,
            "reset_recv": 1,
        }
        assert sum(got.values()) == 6 + hop.replies


def test_handed_over_nodes_resume_alternation():
    sim = sim16(events=EV10, horizon=25)
    tr, seen = run_sampled(sim)
    # all flags are down once the alarm lands at tick 6
    audit_regular_window(sim, tr, seen.modes, 8, 25)


def test_comparisons_counting():
    sim, tr = run16(events=EV10)
    rec = tr.incidents[0]
    assert [h.replies for h in rec.hops] == [3, 2, 2, 3]
    assert rec.comparisons == 2 * (3 + 2 + 2 + 3)
    assert len(rec.path) == 5


def test_greedy_choice_matches_oracle_on_random_layouts():
    rng = random.Random(31)
    checked = 0
    for _ in range(40):
        topo = random_connected_topology(rng)
        origin = rng.choice(topo.sensor_ids())
        sc = make_scenario(
            topo, seed=rng.randint(0, 9999),
            horizon=len(topo.nodes) + 6,
            events=(SenseEvent(1, origin, 70.0),),
        )
        sim = Simulation(sc)
        tr = sim.run()
        for rec in tr.incidents:
            path = [rec.origin]
            for hop in rec.hops:
                want = oracle_hop_choice(topo, sc.costs.threshold,
                                         hop.repliers)
                assert hop.chosen == want
                checked += 1
                if hop.outcome in ("confirmation lost", "confirmed"):
                    path.append(hop.chosen)
            assert rec.path == path
            if rec.delivery_tick is not None:
                assert rec.path[-1] == topo.base_id
    assert checked >= 40


def test_tie_breaks_low_id_then_high_energy():
    nodes = {
        5: (200.0, 50.0),   # alarm holder
        2: (120.0, 100.0),  # both candidates equally far from the base
        3: (120.0, 0.0),
        9: (0.0, 50.0),
    }
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(300.0, 200.0))
    ev = (SenseEvent(0, 5, 70.0),)
    equal = CostModel(init_min=1000, init_max=1000)
    sc = make_scenario(topo, seed=1, horizon=3, events=ev, costs=equal)
    sim = Simulation(sc)
    tr = sim.run()
    assert tr.incidents[0].hops[0].chosen == 2   # dead tie: lower id

    # unequal energies break the distance tie before ids do
    lo, hi = CostModel().init_min, CostModel().init_max
    for seed in range(50):
        if (draw_initial_energy(str(seed), 3, lo, hi)
                >= draw_initial_energy(str(seed), 2, lo, hi) + 2):
            break
    else:
        pytest.fail("no seed separates the candidate energies")
    sc2 = make_scenario(topo, seed=seed, horizon=3, events=ev)
    sim2 = Simulation(sc2)
    tr2 = sim2.run()
    assert tr2.incidents[0].hops[0].chosen == 3  # richer node wins


def test_dead_end_stalls_then_caps():
    nodes = {1: (100.0, 0.0), 2: (180.0, 0.0), 9: (0.0, 0.0)}
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(200.0, 50.0))
    # every ack arrives at or below the forwarding floor
    costs = CostModel(threshold=500, init_min=501, init_max=501)
    sc = make_scenario(topo, seed=0, horizon=8,
                       events=(SenseEvent(0, 2, 70.0),), costs=costs)
    sim = Simulation(sc)
    tr = sim.run()
    rec = tr.incidents[0]
    assert rec.delivery_tick is None
    assert rec.close_reason == "hop_cap"
    assert len(rec.hops) == 3            # one per tick, capped at node count
    assert all(h.chosen is None for h in rec.hops)
    assert all(h.replies == 1 for h in rec.hops)  # node 1 answers, ineligible
    assert rec.path == [2]
    assert sim.nodes[2].mode == "S"      # still stuck holding the alarm
    assert all("Affected" not in m for _, m in tr.base_inbox)


def test_capped_holder_idles_without_new_records():
    nodes = {1: (100.0, 0.0), 2: (180.0, 0.0), 9: (0.0, 0.0)}
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(200.0, 50.0))
    costs = CostModel(threshold=500, init_min=501, init_max=501)
    sc = make_scenario(topo, seed=0, horizon=12,
                       events=(SenseEvent(0, 2, 70.0),), costs=costs)
    sim = Simulation(sc)
    tr = sim.run()
    assert len(tr.incidents) == 1        # closed record stays bound
    last_attempt = max(h.tick for h in tr.incidents[0].hops)
    assert last_attempt == 3
    hop_causes = {"hop_query", "ack_recv", "source_send", "reset_recv"}
    later = [e for e in sim.ledger.entries
             if e.node_id == 2 and e.tick > last_attempt
             and e.cause in hop_causes]
    assert later == []                   # holder stops querying after the cap


def test_lost_confirmation_reopens_as_fresh_incident():
    nodes = {1: (100.0, 0.0), 2: (200.0, 0.0), 9: (0.0, 0.0)}
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(250.0, 50.0))
    sc = make_scenario(topo, seed=2, horizon=8,
                       events=(SenseEvent(0, 2, 70.0),))
    sim = Simulation(sc)
    fired = []

    def lose_reset_once():
        if (not fired and sim.ledger.entries
                and sim.ledger.entries[-1].cause == "reset_send"):
            fired.append(True)
            return True
        return False

    sim._dropped = lose_reset_once
    tr = sim.run()
    assert fired
    first, orphan = tr.incidents
    assert first.delivery_tick is not None and first.path == [2, 1, 9]
    # node 2 never heard the confirmation, so it kept the alarm and the
    # engine tracked the retry as a second incident with the same text
    assert orphan.origin == 2
    assert orphan.message == first.message
    assert orphan.delivery_tick is not None


def test_per_hop_identity_on_random_layouts():
    rng = random.Random(41)
    hops_seen = 0
    for _ in range(30):
        topo = random_connected_topology(rng)
        origin = rng.choice(topo.sensor_ids())
        sc = make_scenario(
            topo, seed=rng.randint(0, 9999), horizon=len(topo.nodes) + 6,
            events=(SenseEvent(1, origin, 70.0),),
        )
        sim = Simulation(sc)
        tr = sim.run()
        rows = defaultdict(lambda: defaultdict(int))
        for e in sim.ledger.entries:
            rows[(e.tick, e.node_id)][e.cause] += e.debit
        hop_causes = {"hop_query", "ack_recv", "source_send", "reset_recv"}
        for rec in tr.incidents:
            for hop in rec.hops:
                if hop.outcome != "confirmed":
                    continue
                got = dict(rows[(hop.tick, hop.holder)])
                # a holder reset mid-tick may hear later regular queries
                # in the same tick; the hop itemization itself is fixed
                assert set(got) - hop_causes <= {"query_recv"}
                assert {c: got.get(c, 0) for c in hop_causes} == {
                    "hop_query": 1,
                    "ack_recv": hop.replies,
                    "source_send": 4,
                    "reset_recv": 1,
                }
                hops_seen += 1
    assert hops_seen >= 30


# ----------------------------------------------------------------- floods

def test_flood_infects_like_a_bfs_ball():
    sim = sim16(events=((2, 4, 95.0),))
    tr, seen = run_sampled(sim)
    fl = tr.floods[0]
    topo = default16_topology()
    adj = brute_adjacency(topo.nodes, topo.radio_range)
    hops = bfs_hops(adj, 4)
    assert fl.hop_cap == 8
    assert fl.base_receipt_tick == 2 + hops[topo.base_id]
    for t, s_set in seen.flooded:
        if t > fl.base_receipt_tick:
            break
        r = min(t - 2, fl.hop_cap)
        ball = {n for n, d in hops.items() if d <= r and n != topo.base_id}
        assert set(s_set) == ball, t


def test_flood_ball_on_random_layouts():
    rng = random.Random(51)
    for _ in range(12):
        topo = random_connected_topology(rng)
        origin = rng.choice(topo.sensor_ids())
        n = len(topo.nodes)
        sc = make_scenario(topo, seed=rng.randint(0, 999), horizon=2 * n + 6,
                           events=(SenseEvent(1, origin, 95.0),))
        sim = Simulation(sc)
        tr, seen = run_sampled(sim)
        fl = tr.floods[0]
        adj = brute_adjacency(topo.nodes, topo.radio_range)
        hops = bfs_hops(adj, origin)
        d_base = hops[topo.base_id]
        if d_base <= fl.hop_cap:
            assert fl.base_receipt_tick == 1 + d_base
        else:
            assert fl.base_receipt_tick is None
        stop = fl.base_receipt_tick if fl.base_receipt_tick is not None else 10 ** 9
        for t, s_set in seen.flooded:
            if t > stop:
                break
            r = min(t - 1, fl.hop_cap)
            ball = {nid for nid, d in hops.items()
                    if d <= r and nid != topo.base_id}
            assert set(s_set) == ball, (t, origin)


def test_flood_packets_are_built_only_for_a_hearer_that_reads_them(monkeypatch):
    """run_petrol_flow builds its packet for the first hearer that reads
    it, so every flood packet reaches handle_source; the packet carries
    its sender's balance from before the flood_send."""
    built, handled = [], set()
    make_source, handle_source = engine.make_source, engine.handle_source

    def build(*args, **kwargs):
        p = make_source(*args, **kwargs)
        if p.flags.flag2:  # only run_petrol_flow builds flood packets
            built.append((sim.tick, p))
        return p

    def handle(n, s):
        handled.add(id(s))
        return handle_source(n, s)

    monkeypatch.setattr(engine, "make_source", build)
    monkeypatch.setattr(engine, "handle_source", handle)
    sim = sim16(events=((2, 4, 95.0), (3, 9, 95.0)))
    tr = sim.run()
    sent = {(e.tick, e.node_id): e.balance + e.debit
            for e in sim.ledger.entries if e.cause == "flood_send"}
    rebroadcasts = sum(e.note == "flood" for e in tr.packet_events)
    assert 0 < len(built) < rebroadcasts  # most rebroadcasts reach only the flooded
    for tick, p in built:
        assert id(p) in handled, (tick, p.src)
        assert p.energy == sent[tick, p.src], (tick, p.src)


def test_flood_reset_wave_walks_outward():
    """No node leaves S until the base hears the flood; each tick after
    that, the S nodes one hop further out, and only those, leave S."""
    sim = sim16(events=((2, 4, 95.0),))
    in_s = {}  # tick -> the sensors in S at its end
    while sim.tick < sim.sc.horizon:
        sim.step()
        in_s[sim.tick - 1] = {nid for nid, n in sim.nodes.items()
                              if n.mode == "S" and not n.is_base}
    tr = sim.run()
    fl = tr.floods[0]
    topo = default16_topology()
    adj = brute_adjacency(topo.nodes, topo.radio_range)
    depth = bfs_hops(adj, topo.base_id)
    assert fl.base_receipt_tick == 8
    assert fl.completed_tick == 8 + max(depth.values())
    for t in range(3, fl.completed_tick + 1):
        left = in_s[t - 1] - in_s[t]
        j = t - fl.base_receipt_tick
        assert left == {nid for nid in in_s[t - 1] if depth[nid] == j}, t
    assert not in_s[fl.completed_tick]
    # everything is back to polling afterwards
    assert all(n.mode in "QC" for n in sim.nodes.values())
    assert tr.base.message == "Network is fine"
    assert (tr.base.flag1, tr.base.mode) == (False, "C")


def test_network_polls_normally_after_flood_reset():
    sim = sim16(events=((2, 4, 95.0),), horizon=32)
    tr, seen = run_sampled(sim)
    done = tr.floods[0].completed_tick
    audit_regular_window(sim, tr, seen.modes, done + 1, 32)


def test_flood_silences_at_hop_cap():
    # a 12-node line: the cap (6) stops the flood short of the far base
    nodes = {i: (100.0 * (i - 1), 0.0) for i in range(1, 13)}
    topo = Topology(nodes=nodes, base_id=12, radio_range=110.0,
                    field_size=(1200.0, 50.0))
    sc = make_scenario(topo, seed=0, horizon=20,
                       events=(SenseEvent(0, 1, 95.0),))
    sim = Simulation(sc)
    tr, seen = run_sampled(sim)
    fl = tr.floods[0]
    assert fl.hop_cap == 6
    assert fl.base_receipt_tick is None          # base sits 11 hops away
    assert set(fl.infected_at) == {1, 2, 3, 4, 5, 6, 7}
    final = max(seen.flooded, key=lambda kv: kv[0])[1]
    assert set(final) == {1, 2, 3, 4, 5, 6, 7}   # stuck, never reset
    assert "Affected" not in tr.base.message


def test_flood_escalates_an_alarm_in_flight():
    # the alarm from node 1 is at node 7 when node 5's flood sweeps it up
    sim, tr = run16(events=((0, 1, 70.0), (2, 5, 95.0)), horizon=20)
    rec = tr.incidents[0]
    assert rec.origin == 1
    assert rec.delivery_tick is None
    assert rec.close_reason == "escalated"
    assert rec.path[-1] == 7
    fl = tr.floods[0]
    assert fl.origins == [(2, 5)]
    assert fl.infected_at[7] == 3
    assert fl.base_receipt_tick == 8             # node 5 is 6 hops out
    assert all(n.mode in "QC" for n in sim.nodes.values())


def test_devastating_reading_at_holder_escalates():
    # the alarm lands on node 10 one tick before node 10's own reading
    # turns devastating; the open incident folds into the flood
    sim, tr = run16(events=((2, 7, 70.0), (4, 10, 95.0)), horizon=20)
    rec = tr.incidents[0]
    assert rec.origin == 7
    assert rec.close_reason == "escalated"
    assert rec.path[-1] == 10
    fl = tr.floods[0]
    assert fl.origins == [(4, 10)]
    assert any("NODE10" in m for _, m in tr.base_inbox)


def test_second_devastating_event_joins_active_epoch():
    sim, tr = run16(events=((0, 1, 95.0), (2, 13, 95.0)), horizon=20)
    assert len(tr.floods) == 1
    fl = tr.floods[0]
    assert fl.origins == [(0, 1), (2, 13)]
    assert fl.base_receipt_tick == 4             # node 13 is 2 hops out
    assert fl.completed_tick is not None
    assert all(n.mode in "QC" for n in sim.nodes.values())


def test_fresh_epoch_after_completion():
    sim, tr = run16(events=((0, 13, 95.0), (13, 9, 95.0)), horizon=20)
    assert len(tr.floods) == 2
    first, second = tr.floods
    assert first.completed_tick is not None
    assert second.origins == [(13, 9)]
    assert second.base_receipt_tick == 15
    assert second.completed_tick is None         # run ends mid-reset


def test_irregular_reading_leaves_a_flooded_node_s_alarm_text():
    # node 4 is flooded at t=6 with node 1's text; its irregular reading
    # at t=7 raises no flag, so it records no Sense and the text the
    # flood carries on to the base is still node 1's
    sim, tr = run16(seed=1, events=((5, 1, 95.0), (7, 4, 70.0)), horizon=20)
    assert tr.floods[0].infected_at[4] == 6
    assert [(r.tick, r.node) for r in tr.records if type(r) is Sense] == [(5, 1)]
    assert tr.base_inbox[0] == (12, "Affected NODE is ->NODE1 At Location (0 0)")


# -------------------------------------------------------------- isolation

LINE = """\
[field]
width = 400
height = 100
radio_range = 110

[nodes]
1 100 0
2 200 0
3 300 0
16 0 0 base

[costs]
threshold = 2
init_min = 8
init_max = 8

[sim]
seed = 3
horizon = 14
"""


def test_isolated_survivor_raises_long_range_alert():
    sim = Simulation(parse_scenario(LINE))
    tr = sim.run()
    assert (4, 2) in tr.deaths                   # middle node drains first
    alerts = [ev for ev in tr.packet_events if ev.note == "alert"]
    assert alerts
    first = alerts[0]
    assert first.src == 1
    assert first.receivers == (3, 16)            # doubled reach, heard direct
    assert ("node number '1' became disconnected") in [
        m for _, m in tr.base_inbox
    ]
    cost = {e.cause: e.debit for e in sim.ledger.entries
            if e.tick == first.tick and e.node_id == 3}
    assert cost.get("alert_recv") == 2           # long frame to receive


def test_alert_noted_but_never_relayed():
    sim = Simulation(parse_scenario(LINE))
    tr = sim.run()
    alerts = [ev for ev in tr.packet_events if ev.note == "alert"]
    # receivers never turn into forwarders: no later alert re-sends the
    # same text, and nobody was promoted to S by hearing one
    assert all(not sim.nodes[r].flag2 for ev in alerts for r in ev.receivers
               if r in sim.nodes)
    assert tr.floods == []


def audit_alert_audiences(sim) -> tuple[int, int, int]:
    """Check from the record alone that, in a lossless run, each alert's
    receivers are every other node within the alert's reach by dist that
    had no Death before the alert began, in ascending id order.  Returns
    how many alerts there were, how many left out a dead node in reach,
    and how many had the base between two other receivers."""
    topo = sim.topology
    pos = topo.nodes
    reach = ISOLATION_MULTIPLIER * topo.radio_range
    dead = set()
    # an alert's own deaths (its sender's, its receivers') and its base
    # receipt come just before its PacketEvent; every other Death is
    # followed by a record of some other kind before the next alert
    pending = []
    alerts = left_out = base_between = 0
    for r in sim.trace.records:
        if type(r) is Death:
            pending.append(r.node)
            continue
        if type(r) is BaseReceipt and r.via == "alert":
            continue
        if type(r) is PacketEvent and r.note == "alert":
            p = pos[r.src]
            in_reach = [j for j in sorted(pos) if j != r.src and dist(p, pos[j]) <= reach]
            assert r.receivers == tuple(j for j in in_reach if j not in dead), (r, dead)
            alerts += 1
            left_out += any(j in dead for j in in_reach)
            base_between += topo.base_id in r.receivers[1:-1]
        dead.update(pending)
        pending.clear()
    return alerts, left_out, base_between


def test_alert_audience_is_every_node_in_reach_not_yet_dead():
    rng = random.Random(31)
    seen = [0, 0, 0]
    for _ in range(20):
        topo = random_connected_topology(rng, n_max=24)
        lo = rng.randint(20, 60)
        costs = CostModel(threshold=rng.randrange(lo), init_min=lo,
                          init_max=rng.randint(lo, 60))
        sensors = topo.sensor_ids()
        events = tuple(
            SenseEvent(rng.randrange(12), rng.choice(sensors), rng.choice((70.0, 95.0)))
            for _ in range(rng.randint(0, 2)))
        sim = Simulation(make_scenario(topo, seed=rng.randrange(10_000), horizon=60,
                                       events=events, costs=costs))
        sim.run()
        for k, n in enumerate(audit_alert_audiences(sim)):
            seen[k] += n
    alerts, left_out, base_between = seen
    # most alerts come late in life, with dead nodes in reach, and the
    # base's random id puts it between other receivers now and then
    assert alerts >= 40 and left_out >= 40 and base_between >= 5, seen

    grid = Simulation(replace(parse_scenario(_grid225_text()), loss_prob=0.0))
    grid.run()
    alerts, left_out, _ = audit_alert_audiences(grid)
    assert alerts >= 20 and left_out == alerts


def test_alert_reach_at_the_boundary_and_on_shared_positions():
    # radio range 2.5, so the alert reaches 5.0 = hypot(3, 4) exactly;
    # each 1/16 further is out of reach
    nodes = {
        1: (1.0, 6.0),        # 5 left of node 5
        2: (11.0625, 6.0),    # 5 + 1/16 right
        3: (9.0, 10.0),       # (3, 4) away
        4: (9.0, 2.0),        # the base, (3, -4) away
        5: (6.0, 6.0),
        6: (9.0, 10.0),       # with node 3
        7: (2.9375, 2.0),     # (-3 - 1/16, -4) away
        8: (6.0, 6.0),        # with node 5
        9: (6.0, 0.9375),     # 5 + 1/16 below
        10: (6.0, 11.0),      # 5 above
    }
    topo = Topology(nodes=nodes, base_id=4, radio_range=2.5, field_size=(16.0, 16.0))
    sim = Simulation(make_scenario(topo))
    assert ISOLATION_MULTIPLIER * topo.radio_range == 5.0
    for sender, want in ((5, (1, 3, 4, 6, 8, 10)), (1, (5, 7, 8))):
        sim._broadcast_alert(sim.nodes[sender])
        ev = sim.trace.records[-1]
        assert (ev.note, ev.src, ev.receivers) == ("alert", sender, want)
    assert [m for _, m in sim.trace.base_inbox] == ["node number '5' became disconnected"]


# ------------------------------------------------------------------- loss

def test_total_loss_strands_every_packet():
    sim, tr = run16(events=EV10, loss_prob=1.0)
    assert all(ev.receivers == () for ev in tr.packet_events)
    rec = tr.incidents[0]
    assert rec.delivery_tick is None
    assert rec.close_reason == "hop_cap"
    assert len(rec.hops) == 16
    causes = {e.cause for e in sim.ledger.entries}
    assert causes <= {"query_send", "hop_query"}  # senders still pay
    assert tr.base.message == ""


def test_lossy_runs_are_seed_deterministic():
    a = render_trace(run16(events=EV10, loss_prob=0.5, seed=3)[1])
    b = render_trace(run16(events=EV10, loss_prob=0.5, seed=3)[1])
    c = render_trace(run16(events=EV10, loss_prob=0.5, seed=4)[1])
    assert a == b
    assert a != c


def test_zero_loss_never_consults_the_rng():
    # an alarm, a flood and an isolation alert: every place a coin is drawn
    for sim in (sim16(events=((2, 10, 70.0), (5, 4, 95.0)), loss_prob=0.0),
                Simulation(parse_scenario(LINE))):
        sim.run()
        untouched = random.Random(f"loss:{sim.sc.seed}").getstate()
        assert sim.loss_rng.getstate() == untouched


# ------------------------------------------------------- energy lifetimes

def test_polling_pair_lives_exactly_lifetime_ticks():
    nodes = {1: (64.0, 0.0), 2: (64.0, 48.0), 9: (0.0, 0.0)}
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(100.0, 100.0))
    costs = CostModel(threshold=2, init_min=8, init_max=8)
    sc = make_scenario(topo, seed=0, horizon=12, costs=costs)
    sim = Simulation(sc)
    tr, seen = run_sampled(sim)
    want = lifetime(8, 1)                        # 8 periods: ticks 0..7
    assert sorted(tr.deaths) == [(want - 1, 1), (want - 1, 2)]
    for nid in (1, 2):
        assert sum(e.debit for e in sim.ledger.entries if e.node_id == nid) == 8
    audit_regular_window(sim, tr, seen.modes, 0, want - 1)


def _quiet_grid(rng: random.Random, costs: CostModel, horizon: int) -> Simulation:
    """A lossless 15x15 grid at 100 m with a 110 m range and no readings,
    its base and seed drawn from rng."""
    nodes = {r * 15 + c + 1: (c * 100.0, r * 100.0) for r in range(15) for c in range(15)}
    topo = Topology(nodes=nodes, base_id=rng.randint(1, 225), radio_range=110.0,
                    field_size=(1400.0, 1400.0))
    return Simulation(make_scenario(topo, seed=rng.randint(0, 10 ** 6),
                                    horizon=horizon, costs=costs))


def _quiet_tick_costs(topo: Topology, modes: dict[int, str]) -> dict[int, tuple[int, int]]:
    """Each sensor's units on an even and on an odd tick of the quiet
    plane: one for its own query while Q, one per sensor neighbour that
    is Q.  A sensor is Q on the even ticks when it starts Q, else on the
    odd ones; the base never queries."""
    def q(nid: int, parity: int) -> int:
        return int((modes[nid] == "Q") == (parity == 0))

    return {i: tuple(q(i, p) + sum(q(j, p) for j in topo.neighbors(i) if j in modes)
                     for p in (0, 1))
            for i in modes}


def test_quiet_plane_consumption_and_first_death_in_closed_form():
    """On a lossless run with no readings, each sensor's consumption, the
    first death, its tick and its lifetime in periods follow from the
    initial modes, the topology and the initial energies alone."""
    rng = random.Random(16)
    quiet = itertools.chain(((sim16(seed=s, horizon=40), 40) for s in range(30)),
                            ((_quiet_grid(rng, CostModel(), 60), 60) for _ in range(30)))
    for sim, horizon in quiet:  # built one at a time, so each is freed after its check
        tr = sim.trace
        cost = _quiet_tick_costs(sim.topology, tr.modes)
        # an odd and an even horizon: a sensor that misses one Q/C swap
        # ends with one Q tick more or less at one of the two
        for h in (horizon - 1, horizon):
            while sim.tick < h:
                sim.step()
            for i, (even, odd) in cost.items():
                spent = tr.initial_energy[i] - tr.nodes[i].energy
                assert spent == even * ((h + 1) // 2) + odd * (h // 2), (sim.sc.seed, h, i)
        assert not tr.deaths

    ends = Counter()  # the first-dying sensors, by whether c divides e
    for init_max, grids in ((60, 30), (90, 40)):
        costs = CostModel(threshold=10, init_min=40, init_max=init_max)
        for _ in range(grids):
            sim = _quiet_grid(rng, costs, 100)
            tr, topo = sim.trace, sim.topology
            cost = _quiet_tick_costs(topo, tr.modes)
            left = {i: tr.initial_energy[i] for i in tr.modes}
            t = -1
            while all(e > 0 for e in left.values()):
                t += 1
                for i, c in cost.items():
                    left[i] -= c[t % 2]
            dying = {i for i, e in left.items() if e <= 0}
            while sim.tick <= t:
                sim.step()
            deaths = tr.deaths
            assert {d[0] for d in deaths} == {t}, sim.sc.seed
            assert {nid for _, nid in deaths} == dying, sim.sc.seed
            for i in dying:
                e, c = tr.initial_energy[i], sum(cost[i])
                assert c == 1 + sum(1 for j in topo.neighbors(i) if j in tr.modes)
                assert t // 2 == math.ceil(e / c) - 1
                # lifetime(e, c) whole periods, then a cut-short one unless c divides e
                assert t // 2 == lifetime(e, c) - (e % c == 0), (sim.sc.seed, i)
                ends[e % c == 0] += 1
    assert ends[True] and ends[False]


def test_every_debit_charges_its_table_price():
    # small batteries, loss, an alarm and a flood: each row
    # takes its cause's price, or the rest of a balance smaller than that
    costs = CostModel(threshold=30, init_min=150, init_max=250)
    rng = random.Random(5)
    causes = set()
    for _ in range(6):
        topo = random_connected_topology(rng, n_min=12)
        sensors = topo.sensor_ids()
        events = (SenseEvent(1, rng.choice(sensors), 70.0),
                  SenseEvent(6, rng.choice(sensors), 95.0))
        sim = Simulation(make_scenario(topo, seed=rng.randint(0, 999), horizon=40,
                                       loss_prob=0.1, events=events, costs=costs))
        sim.run()
        for e in sim.ledger.entries:
            causes.add(e.cause)
            assert e.debit == PRICES[e.cause] or (
                e.balance == 0 and e.debit < PRICES[e.cause])
    assert causes == set(PRICES)


def test_note_table_bills_each_priced_cause_under_one_note():
    """Each ledger cause is the send or receive cause of exactly one
    note, at its PRICES entry; only the source handover, whose sender
    pays both radio ends, has no receive cause."""
    notes = NOTES.values()
    causes = [cause for n in notes for cause in (n.send, n.recv) if cause is not None]
    assert sorted(causes) == sorted(PRICES)
    assert all(n.send_price == PRICES[n.send] for n in notes)
    assert all(n.recv_price == PRICES[n.recv] for n in notes if n.recv is not None)
    assert [note for note, n in NOTES.items() if n.recv is None] == ["source"]


def test_determinism_is_byte_exact():
    text = default16_scenario_text(seed=7, horizon=20,
                                   events=((2, 10, 70.0), (5, 4, 95.0)))
    a = render_trace(Simulation(parse_scenario(text)).run())
    b = render_trace(Simulation(parse_scenario(text)).run())
    assert a.encode() == b.encode()


def test_different_seeds_change_the_run():
    a = render_trace(run16(seed=1)[1])
    b = render_trace(run16(seed=2)[1])
    assert a != b


def test_simulation_logs_nothing(caplog):
    """The library's Simulation writes no text, not even at DEBUG: the
    log README's Logging section lists is rendered by the CLI after
    the run, from the record."""
    sc = make_scenario(
        default16_topology(), seed=3, horizon=40,
        events=(SenseEvent(2, 10, 70.0), SenseEvent(5, 4, 95.0)),
        costs=CostModel(threshold=10, init_min=60, init_max=80),
    )
    caplog.set_level(logging.DEBUG)
    tr = Simulation(sc).run()
    (rec,), (flood,) = tr.incidents, tr.floods
    # the run has an event of each kind the log lists
    assert rec.close_reason == "delivered" and tr.deaths
    assert flood.base_receipt_tick is not None and flood.completed_tick is not None
    assert caplog.records == []
