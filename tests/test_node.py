"""Per-node state machine: init roles, sensing, handovers, resets."""

from __future__ import annotations

import math
import random

import pytest

from qcs_sim import (
    MODE_C,
    MODE_Q,
    MODE_S,
    NodeState,
    default16_topology,
    handle_query,
    handle_source,
    init_modes,
    isolation_check,
    make_query,
    make_source,
    reset_node,
    sense_and_classify,
    tick_transition,
)
from qcs_sim.node import NEVER_HEARD
from qcs_sim.packet import affected_message

from conftest import (
    brute_adjacency,
    is_maximal_independent,
    random_connected_topology,
)


def _node(nid=1, mode=MODE_C, energy=1000, pos=(0.0, 0.0), base=False):
    """A node in mode; an S node holds flag1 over the role C."""
    busy = mode == MODE_S
    return NodeState(node_id=nid, pos=pos, is_base=base,
                     role=MODE_C if busy else mode, flag1=busy, energy=energy)


# ------------------------------------------------------------- init roles

def test_init_modes_is_maximal_independent_set():
    topo = default16_topology()
    adj = brute_adjacency(topo.nodes, topo.radio_range)
    sensors = set(topo.sensor_ids())
    for seed in range(30):
        modes = init_modes(topo, seed)
        assert set(modes) == sensors
        q = {nid for nid, m in modes.items() if m == MODE_Q}
        assert is_maximal_independent(adj, q, sensors)


def test_init_modes_deterministic_and_seed_sensitive():
    topo = default16_topology()
    assert init_modes(topo, 5) == init_modes(topo, 5)
    distinct = {tuple(sorted(nid for nid, m in init_modes(topo, s).items()
                             if m == MODE_Q)) for s in range(40)}
    assert len(distinct) > 1


def test_init_modes_on_random_layouts():
    rng = random.Random(11)
    for _ in range(20):
        topo = random_connected_topology(rng)
        adj = brute_adjacency(topo.nodes, topo.radio_range)
        modes = init_modes(topo, rng.randint(0, 999))
        q = {nid for nid, m in modes.items() if m == MODE_Q}
        assert is_maximal_independent(adj, q, set(topo.sensor_ids()))


# ---------------------------------------------------------------- sensing

def test_normal_reading_changes_nothing():
    n = _node(mode=MODE_Q)
    sense_and_classify(n, 50.0)  # exactly at the line: normal
    assert (n.mode, n.flag1, n.flag2) == (MODE_Q, False, False)
    assert n.message == ""


def test_irregular_reading_raises_alarm():
    n = _node(nid=10, mode=MODE_Q, pos=(225.0, 225.0))
    sense_and_classify(n, 90.0)  # at the line: still irregular
    assert (n.mode, n.flag1, n.flag2) == (MODE_S, True, False)
    assert n.role == MODE_Q
    assert n.message == "Affected NODE is ->NODE10 At Location (225 225)"


def test_devastating_reading_sets_both_flags():
    n = _node(nid=4, mode=MODE_C, pos=(75.0, 75.0))
    sense_and_classify(n, 90.5)
    assert (n.mode, n.flag1, n.flag2) == (MODE_S, True, True)
    assert n.role == MODE_C


def test_escalation_keeps_first_stored_mode():
    n = _node(mode=MODE_Q)
    sense_and_classify(n, 70.0)
    sense_and_classify(n, 95.0)
    assert (n.flag1, n.flag2) == (True, True)
    assert n.role == MODE_Q


def test_reading_that_raises_no_flag_leaves_the_node_as_it_was():
    """A flooded node and an alarm holder each sense an irregular
    reading, and the flooded node a devastating one too: none raises a
    flag, so each node keeps its flags, depth and the alarm text it
    carries."""
    flooded = _node(nid=4, pos=(75.0, 75.0))
    handle_source(flooded, make_source(1, (0, 0), 5, "boom", hop_count=0, devastating=True))
    holder = _node(nid=7, mode=MODE_Q, pos=(150.0, 75.0))
    handle_source(holder, make_source(1, (0, 0), 5, "boom"))
    for n, reading in ((flooded, 70.0), (flooded, 95.0), (holder, 70.0)):
        before = (n.flag1, n.flag2, n.hop_depth, n.message)
        sense_and_classify(n, reading)
        assert (n.flag1, n.flag2, n.hop_depth, n.message) == before, (n.node_id, reading)
    assert flooded.message == holder.message == "boom"


def test_node_state_refuses_unknown_attributes():
    """NodeState is slotted, so a mistyped field is an error, not a new one."""
    n = _node()
    with pytest.raises(AttributeError):
        n.flag_1 = True
    assert not hasattr(n, "flag_1") and n.flag1 is False


# ------------------------------------------------------------- transitions

def test_tick_transition_alternates():
    nodes = [_node(nid=1, mode=MODE_Q), _node(nid=2, mode=MODE_C)]
    tick_transition(nodes, 3)
    assert [n.mode for n in nodes] == [MODE_C, MODE_Q]
    tick_transition(nodes, 4)
    assert [n.mode for n in nodes] == [MODE_Q, MODE_C]


def test_tick_transition_refuses_busy_nodes():
    """Flagged, dead and handed-on sensors keep their role; the rest swap."""
    flagged = _node(nid=1, mode=MODE_S)
    flooded = _node(nid=2, mode=MODE_S)
    flooded.flag2 = True
    dead = _node(nid=3, mode=MODE_Q, energy=0)
    handed_on = _node(nid=4, mode=MODE_Q)
    handed_on.alarm_tick = 5
    earlier = _node(nid=5, mode=MODE_Q)
    earlier.alarm_tick = 4
    idle = _node(nid=6, mode=MODE_C)
    nodes = [flagged, flooded, dead, handed_on, earlier, idle]
    tick_transition(nodes, 5)
    assert [n.role for n in nodes] == [MODE_C, MODE_C, MODE_Q, MODE_Q, MODE_C, MODE_Q]
    assert [n.mode for n in nodes[:2]] == [MODE_S, MODE_S]


# ----------------------------------------------------------------- queries

def test_handle_query_learns_neighbor():
    n = _node(mode=MODE_C)
    out = handle_query(n, make_query(7), 3)
    assert out is None                # plain status query: no reply
    assert n.heard_tick == 3


def test_handle_query_acks_alarm_queries():
    n = _node(nid=3, mode=MODE_Q, energy=800, pos=(10.0, 20.0))
    ack = handle_query(n, make_query(7, flag1=True), 0)
    assert ack is not None
    assert ack.src == 3
    assert ack.energy == 800
    assert ack.loc == (10.0, 20.0)


def test_busy_sensor_does_not_ack_but_base_does():
    busy = _node(mode=MODE_S)
    busy.flag1 = True
    assert handle_query(busy, make_query(7, flag1=True), 0) is None
    base = _node(nid=16, base=True, energy=math.inf, mode=MODE_S)
    ack = handle_query(base, make_query(7, flag1=True), 0)
    assert ack is not None
    assert ack.energy == math.inf


# ---------------------------------------------------------------- handover

def test_handle_source_accepts_and_confirms():
    n = _node(nid=5, mode=MODE_Q, energy=700)
    msg = affected_message(9, (10.0, 10.0))
    spkt = make_source(9, (10.0, 10.0), 600, msg)
    handle_source(n, spkt)
    assert (n.mode, n.flag1, n.flag2) == (MODE_S, True, False)
    assert n.role == MODE_Q
    assert n.message == msg           # original alarm text travels unchanged


def test_busy_sensor_refuses_handover():
    n = _node(mode=MODE_S)
    n.flag1 = True
    n.message = "own alarm"
    handle_source(n, make_source(9, (0, 0), 5, "x"))
    assert (n.flag1, n.flag2, n.message) == (True, False, "own alarm")


def test_base_always_accepts():
    base = _node(nid=16, base=True, energy=math.inf, mode=MODE_S)
    base.flag1 = True
    handle_source(base, make_source(9, (0, 0), 5, "x"))
    assert (base.mode, base.flag1, base.flag2) == (MODE_S, True, False)
    assert base.message == "x"


def test_flood_packet_infects_at_next_depth():
    n = _node(mode=MODE_C)
    spkt = make_source(4, (0, 0), 5, "boom", hop_count=2, devastating=True)
    assert handle_source(n, spkt) is None  # flooding is unacknowledged
    assert (n.mode, n.flag1, n.flag2) == (MODE_S, True, True)
    assert n.hop_depth == 3
    assert n.message == "boom"


def test_flood_sweeps_up_alarm_forwarder():
    n = _node(mode=MODE_Q)
    sense_and_classify(n, 70.0)   # irregular holder
    spkt = make_source(4, (0, 0), 5, "boom", hop_count=0, devastating=True)
    handle_source(n, spkt)
    assert n.flag2 is True
    assert n.hop_depth == 1
    assert n.message == "boom"
    assert n.role == MODE_Q
    # a base holding a delivered alarm joins the flood the same way
    base = _node(nid=16, base=True, energy=math.inf, mode=MODE_S)
    handle_source(base, make_source(9, (0, 0), 5, "alarm"))
    handle_source(base, make_source(4, (0, 0), 5, "boom", hop_count=3,
                                    devastating=True))
    assert (base.flag1, base.flag2, base.message, base.hop_depth) == (True, True, "boom", 4)


def test_reinfection_keeps_shallowest_depth():
    n = _node(mode=MODE_C)
    handle_source(n, make_source(4, (0, 0), 5, "boom", hop_count=1,
                                 devastating=True))
    handle_source(n, make_source(9, (0, 0), 5, "echo", hop_count=7,
                                 devastating=True))
    assert n.hop_depth == 2
    assert n.message == "boom"  # the second packet changes nothing


# ------------------------------------------------------------------- reset

def test_reset_restores_stored_mode():
    for start in (MODE_Q, MODE_C):
        n = _node(mode=start)
        sense_and_classify(n, 70.0)
        n.alarm_tick = 3
        n.heard_tick = 3
        reset_node(n)
        assert n.heard_tick == NEVER_HEARD
        assert n.mode == start
        assert (n.flag1, n.flag2) == (False, False)
        assert n.message == ""
        assert n.hop_depth == 0
        assert n.alarm_tick is None


def test_reset_requires_a_held_alarm():
    with pytest.raises(ValueError):
        reset_node(_node(mode=MODE_Q))


# --------------------------------------------------------------- isolation

def test_isolation_fires_once_on_empty_window():
    n = _node(nid=8, mode=MODE_C, pos=(0.0, 300.0))
    handle_query(n, make_query(9), 4)
    assert isolation_check([n], 4) == []   # neighbors present
    assert isolation_check([n], 5) == []   # heard last tick: still in window
    assert isolation_check([n], 6) == [n]  # two silent ticks: window empty
    assert isolation_check([n], 7) == []   # already known disconnected


def test_isolation_silent_when_never_heard_anyone():
    n = _node(mode=MODE_C)
    assert isolation_check([n], 0) == []
    assert isolation_check([n], 1) == []


def test_isolation_picks_live_unflagged_sensors_in_order():
    nodes = [_node(nid=i, mode=MODE_C) for i in range(1, 6)]
    for n in nodes:
        n.heard_tick = 4
    nodes[1].energy = 0
    nodes[2].flag1 = True
    nodes[3].heard_tick = 5
    assert isolation_check(nodes, 6) == [nodes[0], nodes[4]]
