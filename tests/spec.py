"""The executable specification: a plain reference simulator whose record
the engine's must equal.

    python tests/spec.py --all

``spec_run(scenario)`` runs a scenario in the plainest form of each rule
that README "What is simulated" and the ``engine`` docstring state: one
visit per sensor per pass, in id order; every charge through one
``debit`` with the ledger's clamp; one packet built, encoded and decoded
per transmission, its kind and flags those of its ``NOTES`` row; radio
links, alert audiences and hop depths found over all pairs, with no
cache and no fast path.  It shares with ``qcs_sim`` only set-up and data:
the scenario, ``init_modes``, ``NodeState``, the energy draw and price
table, the record types and ``NOTES``, and the packet builders and codec.
It reads none of the engine, none of the node rules, and neither
``Topology.neighbors`` nor ``Topology.base_hops``.

``tests/test_spec.py`` holds the engine to it on the tier-1 corpora.
``--all`` compares every corpus and every realization the
benchmark pins, prints one line per corpus, writes nothing into the
repository and exits 1 on any mismatch.  pytest does not collect this
file.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # --all writes nothing into the repository
    TESTS = Path(__file__).resolve().parent
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from qcs_sim.energy import PRICES, draw_initial_energy  # noqa: E402
from qcs_sim.node import NodeState, init_modes  # noqa: E402
from qcs_sim.packet import (  # noqa: E402
    PacketKind, affected_message, decode, encode, make_ack, make_query, make_source,
)
from qcs_sim.record import (  # noqa: E402
    NETWORK_FINE, NOTES, BaseListening, BaseReceipt, Death, FloodRecord, HopAttempt,
    IncidentRecord, PacketEvent, ResetStep, Sense,
)
from qcs_sim.scenario import Scenario  # noqa: E402

#: README "Scenario files": a reading above 50 is irregular, above 90 devastating
IRREGULAR, DEVASTATING = 50.0, 90.0
#: how many radio ranges a disconnect alert reaches
ALERT_REACH = 2
#: a fresh node's heard_tick, which a reset restores
NEVER_HEARD = NodeState(0, (0.0, 0.0)).heard_tick


def spec_run(sc: Scenario) -> SpecRun:
    """Run sc to its horizon the plain way."""
    run = SpecRun(sc)
    while run.tick < sc.horizon:
        run.step()
    return run


class SpecRun:
    """One run of a scenario.  What it produced is kept in the engine's
    record types: ``records``, ``incidents``, ``floods``, the ledger's
    ``cells`` (five values per row) and ``nodes``, every node's state in
    id order."""

    def __init__(self, sc: Scenario):
        topo = sc.topology
        self.sc = sc
        seed = str(sc.seed)
        modes = init_modes(topo, seed)
        self.base = topo.base_id
        self.nodes: dict[int, NodeState] = {}
        for nid in sorted(topo.nodes):
            if nid == self.base:
                self.nodes[nid] = NodeState(nid, topo.nodes[nid], is_base=True, energy=math.inf)
            else:
                energy = draw_initial_energy(seed, nid, sc.costs.init_min, sc.costs.init_max)
                self.nodes[nid] = NodeState(nid, topo.nodes[nid], role=modes[nid], energy=energy)
        self.sensors = [n for n in self.nodes.values() if not n.is_base]
        r = topo.radio_range
        self.links = {i: [n for n in self.nodes.values()
                          if n.node_id != i and _square(a.pos, n.pos) <= r * r]
                      for i, a in self.nodes.items()}
        self.depth = _hops_from(self.base, self.links)
        self.rng = random.Random(f"loss:{seed}")
        self.tick = 0
        self.records: list = []
        self.cells: list = []
        self.incidents: list[IncidentRecord] = []
        self.floods: list[FloodRecord] = []
        self.flood: FloodRecord | None = None  # the epoch in progress
        # the incident each node holds, open or closed, until a handover,
        # a delivery or a close moves it on
        self.held: dict[int, IncidentRecord] = {}
        # the ticks each node heard a query since its last reset, and
        # whether it had neighbours at its last isolation visit
        self.heard = {nid: set() for nid in self.nodes}
        self.had = dict.fromkeys(self.nodes, False)

    # ------------------------------------------------------------- plumbing

    def debit(self, n: NodeState, cause: str) -> None:
        """Charge n the price of cause, clamped at zero; the base's
        infinite balance is untouched.  A debit that empties n kills it."""
        if n.energy == math.inf:
            return
        taken = min(n.energy, PRICES[cause])
        if taken == 0:
            return
        n.energy -= taken
        self.cells += [self.tick, n.node_id, cause, taken, n.energy]
        if n.energy <= 0:
            self.records.append(Death(self.tick, n.node_id, cause))

    def lost(self) -> bool:
        """The loss coin of one (packet, receiver) pair."""
        p = self.sc.loss_prob
        return p > 0 and self.rng.random() < p

    def wire(self, note: str, pkt):
        """The packet a receiver reads: pkt encoded and decoded, after
        checking it is the one its note sends."""
        row = NOTES[note]
        assert (pkt.kind, pkt.flags.flag1, pkt.flags.flag2) == (row.kind, row.flag1, row.flag2)
        assert pkt.message or pkt.kind != PacketKind.SOURCE, pkt  # a source names its alarm
        heard = decode(encode(pkt))
        assert heard == pkt, pkt
        return heard

    def broadcast(self, note: str, sender: NodeState, pkt, audience, hear, hop: int = 0):
        """sender pays for note, then each node of audience, in id order,
        meets the receive rule: a flagged sensor ignores a flag-clear
        packet, a dead node draws no coin, a live one draws its loss coin.
        Each hearer pays and acts, through hear, before the next coin."""
        row = NOTES[note]
        pkt = self.wire(note, pkt)
        self.debit(sender, row.send)
        received = []
        for n in audience:
            if n.flag1 and not n.is_base and not row.flag1:
                continue
            if n.energy <= 0 or self.lost():
                continue
            received.append(n.node_id)
            self.debit(n, row.recv)
            hear(n, pkt)
        self.records.append(PacketEvent(self.tick, note, sender.node_id, None,
                                        tuple(received), hop))

    def unicast(self, note: str, pkt, src: NodeState, dst: NodeState, heard: bool) -> None:
        self.wire(note, pkt)
        self.records.append(PacketEvent(self.tick, note, src.node_id, dst.node_id,
                                        (dst.node_id,) if heard else (), 0))

    def open_incident(self, nid: int, message: str) -> IncidentRecord:
        rec = IncidentRecord(len(self.incidents) + 1, nid, self.tick, message)
        self.incidents.append(rec)
        self.held[nid] = rec
        return rec

    def close(self, rec: IncidentRecord, reason: str) -> None:
        rec.close_reason, rec.close_tick = reason, self.tick

    def release(self, nid: int, reason: str) -> None:
        """Close the open incident nid holds, if any, and take it from nid."""
        rec = self.held.get(nid)
        if rec is not None and not rec.close_reason:
            self.close(rec, reason)
            del self.held[nid]

    def clear(self, n: NodeState) -> None:
        """A reset: the flags drop, the node is back in its Q/C role, and
        its learned-neighbour window is emptied."""
        n.flag1 = n.flag2 = False
        n.message, n.hop_depth, n.alarm_tick, n.heard_tick = "", 0, None, NEVER_HEARD
        self.heard[n.node_id].clear()
        self.had[n.node_id] = False

    def note_heard(self, n: NodeState) -> None:
        n.heard_tick = self.tick
        self.heard[n.node_id].add(self.tick)

    # ------------------------------------------------------------ the tick

    def step(self) -> None:
        t = self.tick
        for ev in self.sc.events:
            if ev.tick == t:
                self.sense(ev)

        epoch = self.flood
        # once the base has heard the flood the wave advances, and no
        # flooded sensor rebroadcasts
        resetting = epoch is not None and epoch.base_receipt_tick is not None
        if resetting:
            self.reset_wave(epoch)

        for n in self.sensors:
            if n.energy <= 0:
                continue
            if not n.flag1:
                if n.role == "Q":
                    self.query(n)
            elif n.alarm_tick == t or (n.flag2 and resetting):
                continue
            elif n.flag2:
                self.rebroadcast(n)
            else:
                self.forward(n)

        # the closing pass, as two: an alert may empty a sensor visited
        # before it, and an emptied sensor keeps its role
        for n in self.sensors:
            self.isolation_visit(n)
        for n in self.sensors:
            if n.energy > 0 and not n.flag1 and n.alarm_tick != t:
                n.role = "C" if n.role == "Q" else "Q"  # Q and C swap every tick

        for nid, rec in self.held.items():
            if not rec.close_reason and self.nodes[nid].energy <= 0:
                self.close(rec, "holder_died")
        self.tick += 1

    def sense(self, ev) -> None:
        n = self.nodes[ev.node]
        if n.energy <= 0:
            self.records.append(Sense(self.tick, ev.node, ev.reading, None))
            return
        devastating = ev.reading > DEVASTATING
        if ev.reading <= IRREGULAR or (n.flag2 if devastating else n.flag1):
            return  # a regular reading, or a flag already raised
        n.flag1 = True
        n.flag2 = n.flag2 or devastating
        n.message = affected_message(n.node_id, n.pos)
        n.alarm_tick = self.tick
        self.records.append(Sense(self.tick, ev.node, ev.reading, n.flag2))
        if not devastating:
            self.open_incident(ev.node, n.message)
            return
        self.release(ev.node, "escalated")
        if self.flood is None:
            self.flood = FloodRecord(origins=[], hop_cap=len(self.nodes) // 2)
            self.floods.append(self.flood)
        self.flood.origins.append((self.tick, ev.node))
        self.flood.infected_at.setdefault(ev.node, self.tick)

    def reset_wave(self, epoch: FloodRecord) -> None:
        """Clear the flagged sensors at the wave's depth; its last hop also
        clears every flooded sensor left and ends the epoch."""
        depth = self.tick - epoch.base_receipt_tick
        reset = []
        for n in self.sensors:
            if n.energy > 0 and n.flag1 and self.depth.get(n.node_id) == depth:
                self.release(n.node_id, "base_reset")
                self.clear(n)
                reset.append(n.node_id)
        leftovers = None
        if depth >= max(self.depth.values()):
            leftovers = []
            for n in self.sensors:
                if n.energy > 0 and n.flag2:
                    self.clear(n)
                    leftovers.append(n.node_id)
            leftovers = tuple(leftovers)
            base = self.nodes[self.base]
            base.flag1 = base.flag2 = False
            epoch.completed_tick = self.tick
            self.flood = None
        self.records.append(ResetStep(self.tick, depth, tuple(reset), leftovers))

    # ------------------------------------------------------- the act pass

    def query(self, n: NodeState) -> None:
        """A Q sensor's status query: each hearer notes it heard a query,
        and a base that holds no alarm goes back to listening."""
        def hear(nb, _pkt):
            if nb.is_base and not nb.flag1 and nb.message != NETWORK_FINE:
                nb.message = NETWORK_FINE
                self.records.append(BaseListening(self.tick))
            self.note_heard(nb)

        pkt = make_query(n.node_id, loc=n.pos, energy=n.energy)
        self.broadcast("regular", n, pkt, self.links[n.node_id], hear)

    def forward(self, n: NodeState) -> None:
        """One greedy hop attempt by an alarm holder."""
        nid = n.node_id
        rec = self.held.get(nid)
        if rec is None:  # the record moved on with a lost confirmation
            rec = self.open_incident(nid, n.message)
        if rec.close_reason:
            return  # a closed alarm idles until a reset
        acks = []

        def hear(nb, _query):
            if nb.energy <= 0:
                return  # hearing the query emptied it
            self.note_heard(nb)
            if nb.flag1 and not nb.is_base:
                return  # busy with an alarm of its own
            ack = self.wire("ack", make_ack(nb.node_id, nb.energy, nb.pos))
            self.debit(nb, "ack_send")
            if self.lost() or n.energy <= 0:
                return  # the ack is lost, or its holder drained
            self.debit(n, "ack_recv")
            acks.append(ack)

        pkt = make_query(nid, flag1=True, loc=n.pos, energy=n.energy)
        self.broadcast("hop_query", n, pkt, self.links[nid], hear)
        for ack in acks:
            self.records.append(PacketEvent(self.tick, "ack", ack.src, nid, (nid,), 0))
        chosen, outcome = self.hand_on(n, rec, acks)
        hop = HopAttempt(self.tick, rec.incident_id, nid,
                         tuple((a.src, a.energy) for a in acks), chosen, outcome)
        rec.hops.append(hop)
        self.records.append(hop)
        if not rec.close_reason and outcome != "holder died" and len(rec.hops) >= len(self.nodes):
            self.close(rec, "hop_cap")

    def hand_on(self, n: NodeState, rec: IncidentRecord, acks) -> tuple[int | None, str]:
        """Hand the alarm to the eligible replier nearest the base, ties to
        the fuller battery, then the lower id; return the node chosen and
        how the round ended."""
        if n.energy <= 0:
            return None, "holder died"
        eligible = [a for a in acks if a.energy > self.sc.costs.threshold]
        if not eligible:
            return None, "no eligible replier"
        bx, by = self.nodes[self.base].pos
        chosen = min(eligible, key=lambda a: (math.hypot(a.loc[0] - bx, a.loc[1] - by),
                                              -a.energy, a.src)).src
        target = self.nodes[chosen]
        pkt = make_source(n.node_id, n.pos, n.energy, rec.message)
        self.debit(n, "source_send")
        heard = target.energy > 0 and not self.lost()
        self.unicast("source", pkt, n, target, heard)
        if not heard:
            return chosen, "lost"
        target.flag1 = True  # it acked, so it is free to take the alarm
        target.message = rec.message
        target.alarm_tick = self.tick
        del self.held[n.node_id]
        if target.is_base:
            self.records.append(BaseReceipt(self.tick, "alarm", rec.message))
            self.close(rec, "delivered")
        else:
            self.held[chosen] = rec
        confirmation = make_ack(chosen, target.energy, target.pos)
        self.debit(target, "reset_send")
        if self.lost() or n.energy <= 0:
            self.unicast("reset_ack", confirmation, target, n, False)
            return chosen, "confirmation lost"
        self.clear(n)
        n.alarm_tick = self.tick  # handed on: keeps its role this tick
        self.debit(n, "reset_recv")
        self.unicast("reset_ack", confirmation, target, n, True)
        return chosen, "confirmed"

    def rebroadcast(self, n: NodeState) -> None:
        """A flooded sensor shouts the alarm once per tick, unless it sits
        at the hop cap; each node not flooded yet joins one hop deeper."""
        epoch = self.flood
        if n.hop_depth >= epoch.hop_cap:
            return

        def hear(nb, pkt):
            if nb.flag2:
                return  # flooded already
            was_holding = nb.flag1
            nb.flag1 = nb.flag2 = True
            nb.message = pkt.message
            nb.hop_depth = pkt.hop_count + 1
            if nb.is_base:
                epoch.base_receipt_tick = self.tick
                self.records.append(BaseReceipt(self.tick, "flood", pkt.message))
                return
            if was_holding:
                self.release(nb.node_id, "escalated")
            nb.alarm_tick = self.tick
            epoch.infected_at.setdefault(nb.node_id, self.tick)

        pkt = make_source(n.node_id, n.pos, n.energy, n.message, hop_count=n.hop_depth,
                          devastating=True)
        self.broadcast("flood", n, pkt, self.links[n.node_id], hear, n.hop_depth)

    # ---------------------------------------------------- the closing pass

    def isolation_visit(self, n: NodeState) -> None:
        """A live, unflagged sensor that had neighbours at its last visit
        and has heard no query this tick or the last sends a disconnect
        alert."""
        if n.energy <= 0 or n.flag1:
            return
        t = self.tick
        connected = not self.heard[n.node_id].isdisjoint((t, t - 1))
        if self.had[n.node_id] and not connected:
            self.alert(n)
        self.had[n.node_id] = connected

    def alert(self, n: NodeState) -> None:
        """Heard directly by every node within ALERT_REACH radio ranges."""
        reach = ALERT_REACH * self.sc.topology.radio_range
        px, py = n.pos
        audience = [nb for nb in self.nodes.values()
                    if nb is not n and math.hypot(px - nb.pos[0], py - nb.pos[1]) <= reach]

        def hear(nb, pkt):
            if nb.is_base:
                self.records.append(BaseReceipt(self.tick, "alert", pkt.message))

        text = f"node number '{n.node_id}' became disconnected"
        pkt = make_source(n.node_id, n.pos, n.energy, text)
        self.broadcast("alert", n, pkt, audience, hear)


def _square(a, b) -> float:
    dx, dy = a[0] - b[0], a[1] - b[1]
    return dx * dx + dy * dy


def _hops_from(root: int, links) -> dict[int, int]:
    """Breadth-first hop counts from root over links, for each node reached."""
    hops = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for n in links[u]:
                if n.node_id not in hops:
                    hops[n.node_id] = hops[u] + 1
                    nxt.append(n.node_id)
        frontier = nxt
    return hops


def main(argv: list[str]) -> int:
    if argv != ["--all"]:
        print("usage: python tests/spec.py --all", file=sys.stderr)
        return 2
    import test_spec  # the engine side of the comparison lives in the tests

    ok = True
    for name, scenarios in test_spec.corpora(benchmark=True).items():
        runs, mismatch = 0, None
        for sc in scenarios:
            runs += 1
            mismatch = test_spec.first_mismatch(test_spec.engine_run(sc), spec_run(sc))
            if mismatch:
                break
        ok &= mismatch is None
        print(f"{name}: {runs} runs compared, "
              + ("equal" if mismatch is None else f"first mismatch in run {runs}: {mismatch}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
