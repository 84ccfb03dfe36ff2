"""The discrete-event simulation loop.

One tick is one protocol period: queries go out, replies come back,
modes swap.  Within a tick everything is sequential and deterministic:
sense events are applied first, then a pending reset wave advances one
hop, then nodes act in ascending id order, each handled by exactly one
of the three routines its flags select:

    flags (0,0)  regular step: Q nodes broadcast one status query
    flags (1,0)  alarm forwarding: one greedy hop attempt toward the base
    flags (1,1)  flood: rebroadcast the alarm to everyone in range

A closing pass then lets each live, unflagged sensor alert if it just
lost its neighbours and swap its Q/C role.  One rule holds a node back
in both passes: a sensor that took or handed on an alarm this tick
(``alarm_tick == tick``) neither acts on an alarm nor swaps its role
until the next tick.  Once a reset wave is under way no flooded node
rebroadcasts.  Packet loss, when enabled, is an independent coin flip
per (packet, receiver) pair drawn from a dedicated seeded generator, so
identical scenarios replay byte-identically.

One routine, ``_broadcast``, sends the four broadcasts: the regular
query, the hop query, the flood rebroadcast and the isolation alert.
It takes a note, its senders and each sender's candidates: the act pass
hands it a whole run of regular queries at once, and each other
broadcast has one sender.  It reads the note's causes and prices from
``record.NOTES`` once per call.  For each sender in turn it skips one
that an earlier sender of the call emptied, bills the sender, then
takes its candidates (``NodeState``s in ascending id order) under one
receive rule: a flagged sensor ignores a flag-clear packet, a
dead one (``energy <= 0``, which is what ``NodeState.alive`` means) is
skipped without a coin, and a live one draws its loss coin.  Each node
that hears is billed.  The regular query ends there, in the routine's
own loop: the hearer's ``heard_tick`` is stamped, and a base that holds
no alarm goes back to "Network is fine" in its place among the
receivers.  A hearer of a flag1 broadcast (hop query, flood, alert) is
handed to the caller before the next coin, so an ack's coin falls
between two neighbours' query coins.  The handover and its confirmation
draw their coins inline; the holder's ack and confirmation coins are
drawn before its own liveness is checked.  A flood rebroadcast builds
its packet only for a hearer that reads it.

Every debit names a ledger cause and costs that cause's entry in
``energy.PRICES``, which also spells out how one forwarding hop
comes to 6 + (acks heard) units for its holder.  ``_broadcast`` writes
its rows as ``EnergyLedger.debit`` writes one, with the same clamp:
five values appended to the ledger's flat ``cells``, no object per row.
It leaves the base's infinite balance untouched.  The hop plane's
point-to-point packets (ack, source, confirmation) go through
``EnergyLedger.debit``, which leaves that balance untouched too, so no
caller tests for the base before a debit.

The passes and the reset wave visit live sensors only.  ``_sensors``
holds them in id order; a death only notes that the list is stale, and
the end of ``step`` drops the dead once, after the last pass that reads
it.  A node that dies mid-tick stays in the list until then, so each
pass still skips a node with ``energy <= 0``.  Energy only falls and a
dead node draws no loss coin anywhere, so leaving it out changes nothing.

Flood epochs end through a reset wave: once the base hears the alarm,
rebroadcasting stops and a zero-cost control wave walks outward one hop
per tick, clearing flags, which returns every node to the Q/C role it
held before the alarm.  Overlapping devastating events join the epoch
in progress; a fresh epoch can begin once the wave completes.

The simulation writes no text, only the typed records of ``record``.
"""

from __future__ import annotations

import logging
import math
import random

from .energy import ISOLATION_MULTIPLIER, EnergyLedger, draw_initial_energy
from .node import (
    MODE_C,
    MODE_Q,
    NodeState,
    handle_query,
    handle_source,
    init_modes,
    isolation_check,
    reset_node,
    sense_and_classify,
    tick_transition,
)
from .packet import Packet, make_query, make_source
from .record import (
    NETWORK_FINE, NOTES, BaseListening, BaseReceipt, Death, FloodRecord, HopAttempt,
    IncidentRecord, PacketEvent, ResetStep, Sense, Trace,
)
from .scenario import Scenario, SenseEvent
from .topology import dist

log = logging.getLogger(__name__)

#: builds a NamedTuple row without its Python-level __new__ frame
_new_tuple = tuple.__new__


class Simulation:
    """Runs one scenario tick by tick; all state lives on this object.

    Every internal generator is keyed on ``str(scenario.seed)``.
    """

    def __init__(self, scenario: Scenario):
        self.sc = scenario
        self.topology = scenario.topology
        self.costs = scenario.costs

        topo = self.topology
        self.base_id = topo.base_id
        self.base_pos = topo.nodes[self.base_id]
        self.hop_cap = len(topo.nodes) // 2
        self.attempt_cap = len(topo.nodes)

        seed = str(scenario.seed)
        modes = init_modes(topo, seed)
        # built in ascending id order and never gains or loses a key, so
        # every loop over it visits nodes in id order, as the loss coins
        # and the trace require
        self.nodes: dict[int, NodeState] = {}
        for nid in sorted(topo.nodes):
            is_base = nid == self.base_id
            if is_base:
                energy: int | float = math.inf
            else:
                energy = draw_initial_energy(
                    seed, nid, self.costs.init_min, self.costs.init_max
                )
            self.nodes[nid] = NodeState(
                node_id=nid, pos=topo.nodes[nid], is_base=is_base,
                role=modes.get(nid, MODE_C), energy=energy,
            )
        # each node's neighbours in ascending id order, and the live
        # sensors in id order, so the tick loop never looks ids up, tests
        # is_base or visits the dead; step() drops a sensor from _sensors
        # at the end of the tick it died in, which _died marks
        state_of = self.nodes.__getitem__
        self._nbrs: dict[int, tuple[NodeState, ...]] = {
            nid: tuple(map(state_of, topo.neighbors(nid))) for nid in self.nodes
        }
        self._sensors = [n for n in self.nodes.values() if not n.is_base]
        self._sensors_stale = False
        self.ledger = EnergyLedger(self.nodes)
        self.loss_rng = random.Random(f"loss:{seed}")

        self.tick = 0
        self.trace = Trace(scenario, modes, {nid: n.energy for nid, n in self.nodes.items()})
        self._events_at: dict[int, list[SenseEvent]] = {}
        for ev in scenario.events:
            self._events_at.setdefault(ev.tick, []).append(ev)
        self._active_irregular: dict[int, IncidentRecord] = {}
        self.active_flood: FloodRecord | None = None
        # nodes the base cannot reach are absent
        self._base_depth = topo.base_hops
        self._base_ecc = max(self._base_depth.values())

    # ---------------------------------------------------------------- helpers

    def _event(self, note: str, src: int, dst: int, receivers: tuple[int, ...]) -> None:
        """Record one of the hop plane's point-to-point transmissions."""
        self.trace.records.append(_new_tuple(PacketEvent, (
            self.tick, note, src, dst, receivers, 0)))

    def _debit(self, node: NodeState, cause: str) -> None:
        """Charge a node the price of cause; a debit that empties it kills it."""
        if self.ledger.debit(self.tick, node, cause) and node.energy <= 0:
            self._died(node, cause)

    def _died(self, node: NodeState, cause: str) -> None:
        """Record the death of a node that a debit for cause just emptied."""
        self.trace.records.append(Death(self.tick, node.node_id, cause))
        self._sensors_stale = True
        log.debug("t=%d node %d died (%s)", self.tick, node.node_id, cause)

    def _dropped(self) -> bool:
        p = self.sc.loss_prob
        return p > 0 and self.loss_rng.random() < p

    def _broadcast(self, note: str, senders, candidates, hop: int = 0):
        """Send the broadcast named note from each sender in turn, to
        ``candidates[sender id]``; for a flag1 broadcast, yield each
        candidate that hears it, in candidate order.

        A sender that an earlier sender's broadcast emptied is skipped at
        its turn; every other sender is a live sensor.  The sender pays
        its send price first.  Each candidate then meets the receive
        rule: a flagged sensor ignores a flag-clear packet, a dead one is
        skipped without a coin, and a live one draws its loss coin.  One
        that hears pays the receive price (the base is left untouched)
        and dies if that empties it.  The regular query is handled here
        in full: each hearer's heard_tick is stamped, and a base that
        holds no alarm goes back to "Network is fine" in its place among
        the receivers, so nothing is yielded.  A hearer of a hop query,
        flood or alert is yielded before the next candidate's coin, since
        its caller acts on it first.  Each sender's PacketEvent follows
        its last candidate, so a caller must run the generator to its end.
        """
        _, flag1, _, send, recv, _, send_price, price = NOTES[note]
        tick = self.tick
        cells = self.ledger.cells
        records = self.trace.records
        p = self.sc.loss_prob
        coin = self.loss_rng.random
        for sender in senders:
            bal = sender.energy
            if bal <= 0:
                continue  # emptied by an earlier sender of this call
            nid = sender.node_id
            # a live sender and a positive price, so the clamped debit
            # moves energy; the rows are those EnergyLedger.debit would write
            taken = bal if bal < send_price else send_price
            bal -= taken
            sender.energy = bal
            cells.extend((tick, nid, send, taken, bal))
            if bal <= 0:
                self._died(sender, send)
            received = []
            for nb in candidates[nid]:
                if nb.flag1 and not flag1 and not nb.is_base:
                    continue
                bal = nb.energy
                if bal <= 0 or (p > 0 and coin() < p):
                    continue
                j = nb.node_id
                received.append(j)
                if not nb.is_base:
                    taken = bal if bal < price else price
                    bal -= taken
                    nb.energy = bal
                    cells.extend((tick, j, recv, taken, bal))
                    if bal <= 0:
                        self._died(nb, recv)
                elif not (flag1 or nb.flag1) and nb.message != NETWORK_FINE:
                    # a regular query puts a base back to listening; one
                    # that holds an alarm keeps its alarm text
                    nb.message = NETWORK_FINE
                    records.append(BaseListening(tick))
                if flag1:
                    yield nb
                else:
                    nb.heard_tick = tick
            records.append(_new_tuple(PacketEvent, (
                tick, note, nid, None, tuple(received), hop)))

    # -------------------------------------------------------------- incidents

    def _open_incident(self, origin: int, tick: int, message: str) -> IncidentRecord:
        rec = IncidentRecord(
            incident_id=len(self.trace.incidents) + 1, origin=origin,
            start_tick=tick, message=message,
        )
        self.trace.incidents.append(rec)
        self._active_irregular[origin] = rec
        log.debug("t=%d incident %d opened at node %d", tick, rec.incident_id, origin)
        return rec

    def _close_incident(self, rec: IncidentRecord, reason: str) -> None:
        """Finish a record but leave it bound to its still-S holder, so
        the node idles instead of reopening a fresh incident every tick."""
        rec.close_reason = reason
        log.debug("t=%d incident %d closed (%s)", self.tick, rec.incident_id, reason)

    def _close_held(self, nid: int, reason: str) -> None:
        """Close the open alarm nid holds, if any, and release the node."""
        rec = self._active_irregular.get(nid)
        if rec is not None and not rec.closed:
            self._close_incident(rec, reason)
            del self._active_irregular[nid]

    def _join_flood(self, origin: int, tick: int) -> None:
        epoch = self.active_flood
        if epoch is None:
            epoch = FloodRecord(origins=[(tick, origin)], hop_cap=self.hop_cap)
            self.active_flood = epoch
            self.trace.floods.append(epoch)
            log.debug("t=%d flood started at node %d", tick, origin)
        else:
            epoch.origins.append((tick, origin))
        epoch.infected_at.setdefault(origin, tick)

    def _apply_sense(self, ev: SenseEvent) -> None:
        node = self.nodes[ev.node]
        if not node.alive:
            self.trace.records.append(Sense(self.tick, ev.node, ev.reading, None))
            return
        before = (node.flag1, node.flag2)
        sense_and_classify(node, ev.reading)
        after = (node.flag1, node.flag2)
        if after == before:
            return
        self.trace.records.append(Sense(self.tick, ev.node, ev.reading, node.flag2))
        node.alarm_tick = self.tick
        if after == (True, True):
            self._close_held(ev.node, "escalated")
            self._join_flood(ev.node, self.tick)
        elif before == (False, False):
            self._open_incident(ev.node, self.tick, node.message)

    # ------------------------------------------------------------- tick loop

    def run(self) -> Trace:
        """Run the rest of the horizon and return the finished trace."""
        while self.tick < self.sc.horizon:
            self.step()
        self.trace.nodes = self.nodes
        return self.trace

    def step(self) -> None:
        """Advance one tick: sense events, the reset wave's next hop, the
        act pass, then the closing pass, in which each live, unflagged
        sensor alerts if its isolation check fires and then swaps its Q/C
        role, unless its own alert emptied it or it handed its alarm on.

        One closing visit per sensor equals an isolation pass followed by
        a transition pass.  The verdict reads only heard_tick, which no
        alert or swap writes; an alert picks receivers by energy, never
        by role; a swap writes only role.  So the same alerts fire with
        the same coins, debits and deaths, and every sensor alive at the
        tick's end ends in the same role.  One that a later alert empties
        has already swapped, but nothing reads a dead sensor's role.

        The act pass sends the regular queries in runs.  It collects the
        live Q sensors in id order and hands each run to step_regular just
        before the next flagged sensor acts, and the last run at the end
        of the pass.  A regular query flags no one and a flagged sensor
        ignores it, so each flagged sensor acts on the state it met when
        every query went out at its own turn, and every loss coin, ledger
        row and record keeps its place.  A Q sensor that an earlier query
        of its run empties is skipped inside _broadcast, as the pass
        skipped it at its turn.
        """
        tick = self.tick
        for ev in self._events_at.get(tick, ()):
            self._apply_sense(ev)

        # the base heard the flood on an earlier tick: the wave advances
        # and no flooded node rebroadcasts
        epoch = self.active_flood
        resetting = epoch is not None and epoch.base_receipt_tick is not None
        if resetting:
            self.base_reset()

        sensors = self._sensors
        queries = []  # the Q sensors since the last flagged one that acted
        for node in sensors:
            if node.energy <= 0:
                continue
            if node.flag1:  # flag2 never stands without flag1
                if node.alarm_tick == tick:
                    continue  # took the alarm this tick; acts from the next
                if node.flag2 and resetting:
                    continue  # a flooded node is silent once the wave is under way
                if queries:
                    self.step_regular(queries)
                    queries = []
                if not node.flag2:
                    self.run_irregular_transfer(node)
                else:
                    self.run_petrol_flow(node)
            elif node.role == MODE_Q:
                queries.append(node)
        if queries:
            self.step_regular(queries)

        for node in sensors:
            if node.energy <= 0 or node.flag1:
                continue
            if isolation_check(node, tick):
                self._broadcast_alert(node)
                if node.energy <= 0:
                    continue  # its own alert emptied it
            if node.alarm_tick != tick:  # else it handed its alarm on
                tick_transition(node)

        # an alarm whose holder died where its own round did not close it
        for nid, rec in self._active_irregular.items():
            if not rec.closed and self.nodes[nid].energy <= 0:
                self._close_incident(rec, "holder_died")

        if self._sensors_stale:
            self._sensors = [n for n in sensors if n.energy > 0]
            self._sensors_stale = False
        self.tick += 1

    # --------------------------------------------------------- regular step

    def step_regular(self, nodes: list[NodeState]) -> None:
        """A run of live Q sensors, in id order, each broadcast one status
        query; neighbours just listen.

        _broadcast sends the whole run in one run of its generator, which
        yields nothing for this note.  For each sender in turn it bills
        the sender and each listener, stamps each listener's heard_tick
        (handle_query's only effect for a flag-clear query, so no packet
        is built on this plane), sets a base that holds no alarm back to
        "Network is fine", and records the query.  A sender that an
        earlier query of the run emptied sends nothing, as if the act pass
        had reached it dead.  An S sensor is busy forwarding and does not
        listen.
        """
        for _ in self._broadcast("regular", nodes, self._nbrs):
            pass

    # ----------------------------------------------------- alarm forwarding

    def run_irregular_transfer(self, node: NodeState) -> None:
        """One greedy hop attempt: query, collect acks, hand the alarm on.

        Called once per tick while the node holds an open alarm; the
        alarm travels one accepted hop per tick until the base takes it.
        """
        nid = node.node_id
        rec = self._active_irregular.get(nid)
        if rec is None:
            # the confirmation back to the previous holder was lost and the
            # record moved on; the node still holds the alarm, so track it
            # as a fresh incident
            rec = self._open_incident(nid, self.tick, node.message)
        if rec.closed:
            return

        hop_pkt = make_query(nid, flag1=True, loc=node.pos, energy=node.energy)
        acks = []  # the ack packets the holder heard
        # each ack's loss coin is drawn between two neighbours' query
        # coins, and before the holder's liveness check
        for nb in self._broadcast("hop_query", (node,), self._nbrs):
            if nb.energy <= 0:
                continue  # hearing the query emptied it; the dead send no ack
            ack = handle_query(nb, hop_pkt, self.tick)
            if ack is None:
                continue
            self._debit(nb, "ack_send")
            # a lost ack, or a holder drained mid-round: the ack is unheard
            if self._dropped() or not node.alive:
                continue
            self._debit(node, "ack_recv")
            acks.append(ack)
        # _broadcast recorded the query when the round ended; its acks follow
        for ack in acks:
            self._event("ack", ack.src, nid, (nid,))

        chosen, outcome = self._hand_on(node, rec, acks)
        hop = _new_tuple(HopAttempt, (self.tick, rec.incident_id, nid,
                                      tuple((a.src, a.energy) for a in acks), chosen, outcome))
        rec.hops.append(hop)
        self.trace.records.append(hop)
        if (not rec.closed and outcome != "holder died"
                and len(rec.hops) >= self.attempt_cap):
            self._close_incident(rec, "hop_cap")  # the holder's last attempt is spent

    def _hand_on(self, node: NodeState, rec: IncidentRecord,
                 acks: list[Packet]) -> tuple[int | None, str]:
        """Hand the alarm to the eligible replier nearest the base; return
        the node chosen, if any, and how the round ended.  A handover the
        base takes closes the incident as delivered."""
        if not node.alive:
            return None, "holder died"
        eligible = [a for a in acks if a.energy > self.costs.threshold]
        if not eligible:
            return None, "no eligible replier"
        nid = node.node_id
        chosen = min(
            eligible, key=lambda a: (dist(a.loc, self.base_pos), -a.energy, a.src)
        ).src
        spkt = make_source(nid, node.pos, node.energy, rec.message)
        self._debit(node, "source_send")

        target = self.nodes[chosen]
        heard = target.energy > 0 and not self._dropped()
        self._event("source", nid, chosen, (chosen,) if heard else ())
        if not heard:
            return chosen, "lost"  # the holder keeps the alarm and retries

        # the chosen node acked this round, so it is not S and accepts
        handle_source(target, spkt)
        target.alarm_tick = self.tick
        if target.is_base:
            # handle_source has raised the base's flag1 and set its message
            self.trace.records.append(BaseReceipt(self.tick, "alarm", rec.message))
            self._close_held(nid, "delivered")
        else:
            del self._active_irregular[nid]
            self._active_irregular[chosen] = rec
        self._debit(target, "reset_send")
        if self._dropped() or not node.alive:
            self._event("reset_ack", chosen, nid, ())
            return chosen, "confirmation lost"
        reset_node(node)  # before the confirmation's price can empty it
        node.alarm_tick = self.tick  # handed on: keeps its role this tick
        self._debit(node, "reset_recv")
        self._event("reset_ack", chosen, nid, (nid,))
        return chosen, "confirmed"

    # ------------------------------------------------------------- flooding

    def run_petrol_flow(self, node: NodeState) -> None:
        """One tick's flood rebroadcast by one infected node.

        step() calls it for a flooded node that may act: one infected on
        an earlier tick, while the base has not yet heard the flood.  A
        packet never travels beyond the hop cap: nodes at cap depth are
        infected but stay silent.

        The packet is built for the first hearer that reads it, a sensor
        not yet flooded or the base on its first receipt, and carries the
        sender's balance from before it paid for the send.  Most hearers
        are flooded already, so most rebroadcasts build none.
        """
        epoch = self.active_flood
        if node.hop_depth >= epoch.hop_cap:
            return

        nid = node.node_id
        energy = node.energy  # before _broadcast bills the send
        pkt = None
        for nb in self._broadcast("flood", (node,), self._nbrs, node.hop_depth):
            # a second packet changes nothing for a flooded sensor, and the
            # base takes only the first
            if epoch.base_receipt_tick is not None if nb.is_base else nb.flag2:
                continue
            if pkt is None:
                pkt = make_source(nid, node.pos, energy, node.message,
                                  hop_count=node.hop_depth, devastating=True)
            was_s = nb.flag1
            handle_source(nb, pkt)
            if nb.is_base:
                epoch.base_receipt_tick = self.tick
                self.trace.records.append(BaseReceipt(self.tick, "flood", pkt.message))
                log.debug("t=%d flood reached the base from node %d", self.tick, nid)
                continue
            j = nb.node_id
            if was_s:
                # an alarm-forwarding node swept up by the flood
                self._close_held(j, "escalated")
            nb.alarm_tick = self.tick
            epoch.infected_at.setdefault(j, self.tick)

    def base_reset(self) -> None:
        """Advance the reset wave one hop outward from the base.

        The wave is control-plane bookkeeping and costs no energy; each
        tick it clears every S node at the next graph distance from the
        base.  When it has swept the whole component the epoch closes
        and the base goes back to listening.  step() calls it each tick
        after the one the base heard the flood in, before any debit of
        that tick, so ``_sensors`` holds exactly the live sensors.
        """
        epoch = self.active_flood
        depth = self.tick - epoch.base_receipt_tick
        targets = tuple(n.node_id for n in self._sensors
                        if n.flag1 and self._base_depth.get(n.node_id) == depth)
        for nid in targets:
            self._close_held(nid, "base_reset")
            reset_node(self.nodes[nid])

        leftovers = None  # until the wave's last hop
        if depth >= self._base_ecc:
            leftovers = tuple(n.node_id for n in self._sensors if n.flag2)
            for nid in leftovers:
                reset_node(self.nodes[nid])
            base = self.nodes[self.base_id]
            base.flag1 = base.flag2 = False
            epoch.completed_tick = self.tick
            self.active_flood = None
            log.debug("t=%d reset wave complete", self.tick)
        self.trace.records.append(ResetStep(self.tick, depth, targets, leftovers))

    # ------------------------------------------------------------ isolation

    def _broadcast_alert(self, node: NodeState) -> None:
        """Long-range disconnect alert: heard directly, never relayed."""
        nid = node.node_id
        reach = ISOLATION_MULTIPLIER * self.topology.radio_range
        audience = map(self.nodes.__getitem__, self.topology.within(nid, reach))
        for nb in self._broadcast("alert", (node,), {nid: audience}):
            if nb.is_base:
                text = f"node number '{nid}' became disconnected"
                self.trace.records.append(BaseReceipt(self.tick, "alert", text))
