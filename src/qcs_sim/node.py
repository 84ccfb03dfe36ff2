"""Per-node protocol state machine.

A sensor is always in exactly one of three modes.  Q nodes broadcast a
status query each tick, C nodes listen, and the two swap every tick
while a node's flags are clear.  A node whose reading crosses the
irregular level raises flag1, becomes S (source) and starts forwarding
an alarm; past the devastating level it raises flag2 as well and the
alarm is flooded instead.  A node's mode is S while flag1 is set and
otherwise its ``role``, Q or C, which promotion leaves alone, so a reset
that clears the flags puts the node back exactly where it was.

Adjacency is learned, not configured: a node counts as connected while
it has heard some query in the current tick or the one before, so a
silent neighbourhood ages out after one full Q/C period.  Only whether
that two-tick window is empty matters, so a node keeps no set of
senders, just ``heard_tick``, the last tick it heard a query; the
window is empty at tick t when ``heard_tick < t - 1``.  Isolation is
declared when the window goes from non-empty to empty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .packet import Packet, PacketKind, affected_message, make_ack
from .topology import Topology


MODE_Q = "Q"
MODE_C = "C"
MODE_S = "S"

#: the kinds the receive checks compare against, read once from the enum
_QUERY, _SOURCE = PacketKind.QUERY, PacketKind.SOURCE


#: a heard_tick whose two-tick window is empty at every tick and never
#: just emptied: isolation_check fires at t when heard_tick == t - 2
NEVER_HEARD = -3

#: sensor levels splitting readings into regular, irregular and devastating;
#: a reading must exceed a level to cross it
IRREGULAR_LEVEL = 50.0
DEVASTATING_LEVEL = 90.0


@dataclass
class NodeState:
    node_id: int
    pos: tuple[float, float]
    is_base: bool = False
    role: str = MODE_C  # Q or C; promotion to S leaves it alone
    flag1: bool = False
    flag2: bool = False
    energy: int | float = 0  # whole units; only the base holds math.inf
    message: str = ""
    # a flood's depth, nonzero only while flag2 is set: handle_source
    # sets the two together and reset_node clears them together
    hop_depth: int = 0
    alarm_tick: int | None = None  # the last tick it took or handed on an alarm
    heard_tick: int = NEVER_HEARD  # the last tick this node heard a query

    @property
    def alive(self) -> bool:
        return self.energy > 0

    @property
    def mode(self) -> str:
        """S while flag1 is set, else the node's Q/C role."""
        return MODE_S if self.flag1 else self.role


def init_modes(topology: Topology, seed: int | str) -> dict[int, str]:
    """Assign starting Q/C modes to every sensor (the base is not colored).

    Q nodes are picked greedily over a seed-shuffled order, skipping any
    candidate that already has a Q neighbor.  The result is a maximal
    independent set: no two Q nodes are adjacent, and every C node can
    hear at least one Q node.
    """
    order = sorted(topology.sensor_ids())
    random.Random(f"init:{seed}").shuffle(order)
    q_set: set[int] = set()
    for nid in order:
        if q_set.isdisjoint(topology.neighbors(nid)):
            q_set.add(nid)
    return {nid: (MODE_Q if nid in q_set else MODE_C) for nid in order}


def _promote(n: NodeState, message: str, devastating: bool) -> None:
    n.flag1 = True
    if devastating:
        n.flag2 = True
    if message:
        n.message = message


def sense_and_classify(n: NodeState, reading: float) -> None:
    """Apply one sensor reading; crossing a level promotes the node to S."""
    if reading > IRREGULAR_LEVEL:
        _promote(n, affected_message(n.node_id, n.pos),
                 devastating=reading > DEVASTATING_LEVEL)


def tick_transition(n: NodeState) -> None:
    """Swap Q and C at a tick boundary; S nodes must not be passed in."""
    if n.flag1 or n.flag2:
        raise ValueError(f"node {n.node_id} cannot alternate while flagged")
    n.role = MODE_C if n.role == MODE_Q else MODE_Q


def handle_query(n: NodeState, q: Packet, tick: int) -> Packet | None:
    """Receive a query at tick: note that a neighbour was heard, and
    reply only to alarm-hop queries.

    Regular queries (flags clear) are absorbed silently.  A query with
    flag1 set is a forwarding node looking for candidates, answered
    with this node's position and remaining energy.  S nodes are busy
    forwarding their own alarm and stay silent; the base always answers.
    """
    if q.kind != _QUERY:
        raise ValueError("handle_query expects a query packet")
    n.heard_tick = tick
    if q.flags.flag1 and (n.is_base or not n.flag1):
        return make_ack(n.node_id, n.energy, n.pos)
    return None


def handle_source(n: NodeState, s: Packet) -> None:
    """Receive an alarm packet.

    Unicast hop transfer (flag1 only): the node takes over the alarm and
    becomes S.  A sensor that is already S refuses the handover and is
    left as it was; the base always accepts.  The engine sends the
    holder's confirmation (the reset_ack) itself.  Flood delivery (both
    flags): the node is infected at one hop deeper than the packet.
    """
    if s.kind != _SOURCE:
        raise ValueError("handle_source expects a source packet")
    if s.flags.flag2:
        if not n.flag1:
            _promote(n, s.message, devastating=True)
            n.hop_depth = s.hop_count + 1
        elif not n.flag2:
            # an alarm-forwarding node caught by the flood joins it at the
            # packet's depth; re-delivery to an already flooded node keeps
            # the original (shallowest) depth
            n.flag2 = True
            n.message = s.message
            n.hop_depth = s.hop_count + 1
    elif n.is_base or not n.flag1:
        _promote(n, s.message, devastating=False)


def reset_node(n: NodeState) -> None:
    """Clear the flags, which puts the node back in the role it held
    before promotion to S.

    The learned-neighbour window went stale while the node was S, so it
    is emptied; the next query heard refills it.
    """
    if not n.flag1:
        raise ValueError(f"node {n.node_id} is not an S node")
    n.flag1 = n.flag2 = False
    n.message = ""
    n.hop_depth = 0
    n.alarm_tick = None
    n.heard_tick = NEVER_HEARD


def isolation_check(n: NodeState, tick: int) -> bool:
    """Whether n must send a disconnect alert at tick: true when its
    learned-neighbour window has just emptied, that is when the last
    query it heard came at tick - 2.

    It is true once per disconnection, not every tick the node stays
    alone.  Reading the verdict off heard_tick alone is exact on two
    conditions the engine keeps: it asks about every live, unflagged
    sensor at every tick, so no tick's emptying goes unasked; and a
    node's flags clear only in reset_node, which sets heard_tick to
    NEVER_HEARD, so a window that emptied while the node was S is not
    reported after it.
    """
    return n.heard_tick == tick - 2
