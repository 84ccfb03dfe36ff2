"""The record of a run: the typed facts a simulation writes and every
report reads.

A run's ``Trace`` holds typed records only, each fact once, in the
order it happened: transmissions, deaths, base receipts, hop rounds,
senses, reset-wave hops and the base's returns to listening, beside
each incident's and each flood epoch's lifecycle.  The simulation
writes no text: it appends typed records to ``Trace.records``, and
``Trace.render`` alone turns them, with the scenario and the initial
and final node states, into ``trace.txt``.  ``NOTES`` tells, by its
note, what each transmission is: its packet, its causes and their
prices, and its trace label.

This module imports neither the simulation nor the report writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .energy import PRICES
from .node import MODE_C, MODE_Q, NodeState
from .numtext import fmt_ids, fmt_num
from .packet import PacketKind
from .scenario import Scenario

NETWORK_FINE = "Network is fine"


class HopAttempt(NamedTuple):
    """One tick's forwarding round by one alarm holder, and its outcome:
    "holder died", "no eligible replier", "lost" (the handover went
    unheard), "confirmation lost" or "confirmed"."""

    tick: int
    incident: int  # the incident_id
    holder: int
    repliers: tuple[tuple[int, float], ...]  # (node id, reported energy)
    chosen: int | None
    outcome: str

    @property
    def replies(self) -> int:
        return len(self.repliers)


#: the hop outcomes in which the chosen node took the alarm
HANDED_ON = ("confirmation lost", "confirmed")


@dataclass
class IncidentRecord:
    """Lifecycle of one irregular alarm from sensing to base delivery."""

    incident_id: int
    origin: int
    start_tick: int
    message: str
    hops: list[HopAttempt] = field(default_factory=list)
    close_reason: str = ""  # empty while the alarm is open

    @property
    def closed(self) -> bool:
        return bool(self.close_reason)

    @property
    def path(self) -> list[int]:
        """The origin, then each node the alarm was handed on to."""
        return [self.origin] + [h.chosen for h in self.hops if h.outcome in HANDED_ON]

    @property
    def delivery_tick(self) -> int | None:
        """The tick the base took the alarm, in the record's last round."""
        return self.hops[-1].tick if self.close_reason == "delivered" else None

    @property
    def comparisons(self) -> int:
        """Comparisons spent choosing next hops: two per reply per round.

        Each candidate costs one threshold check plus one distance check
        against the running best among the eligible repliers.  The
        holder's own distance is not compared: a handover need not bring
        the alarm closer to the base.
        """
        return sum(2 * h.replies for h in self.hops)


@dataclass
class FloodRecord:
    """One flood epoch: origins, infection spread, and the reset wave."""

    origins: list[tuple[int, int]]  # (tick, node)
    hop_cap: int
    infected_at: dict[int, int] = field(default_factory=dict)
    base_receipt_tick: int | None = None
    completed_tick: int | None = None


class PacketEvent(NamedTuple):
    """One transmission: who sent which note, and who actually received it."""

    tick: int
    note: str
    src: int
    dst: int | None  # None for broadcasts
    receivers: tuple[int, ...]
    hop: int  # the packet's hop count; only a flood's is above 0


class Death(NamedTuple):
    """A node emptied by a debit for cause."""

    tick: int
    node: int
    cause: str


class BaseReceipt(NamedTuple):
    """A message the base heard, via "alarm", "flood" or "alert"."""

    tick: int
    via: str
    text: str


class Sense(NamedTuple):
    """A reading that raised a node's flags, leaving it S with flag2 as
    given, or that a dead node ignored (flag2 None)."""

    tick: int
    node: int
    reading: float
    flag2: bool | None


class ResetStep(NamedTuple):
    """One hop of a reset wave: the flagged sensors it cleared at depth,
    then the flooded ones its last hop swept up (else None)."""

    tick: int
    depth: int
    reset: tuple[int, ...]
    leftovers: tuple[int, ...] | None


class BaseListening(NamedTuple):
    """A regular query set the base's message back to "Network is fine"."""

    tick: int


class Note(NamedTuple):
    """What each transmission with a note is: its packet, the ledger causes
    of its sender and of each hearer, with their prices, and its line's label."""

    kind: PacketKind
    flag1: bool
    flag2: bool
    send: str
    recv: str | None  # None where the sender pays both radio ends
    label: str | None  # None for the hop plane: its HopAttempt line tells the round
    send_price: int
    recv_price: int  # 0 without a receive cause


#: every transmission by its note; a flagged sensor hears only flag1 broadcasts
NOTES = {
    note: Note(kind, flag1, flag2, send, recv, label, PRICES[send], PRICES[recv] if recv else 0)
    for note, kind, flag1, flag2, send, recv, label in (
        ("regular", PacketKind.QUERY, False, False, "query_send", "query_recv", "query"),
        ("hop_query", PacketKind.QUERY, True, False, "hop_query", "hop_query_recv", None),
        ("flood", PacketKind.SOURCE, True, True, "flood_send", "flood_recv", "flood"),
        ("alert", PacketKind.SOURCE, True, False, "alert_send", "alert_recv", "isolation alert"),
        ("ack", PacketKind.ACK, False, False, "ack_send", "ack_recv", None),
        ("source", PacketKind.SOURCE, True, False, "source_send", None, None),
        ("reset_ack", PacketKind.ACK, False, False, "reset_send", "reset_recv", None),
    )
}
#: the trace line of a base receipt, by the way the base heard it
_RECEIPT_LINE = {"alarm": "base received alarm: {!r}",
                 "flood": "base received flood alarm: {!r}", "alert": "base: {}"}
#: the trace line of a hop round, by its outcome, given the round and the
#: incident's path so far
_HOP_LINE = {
    "holder died": "hop src={0.holder} replies={0.replies} -> stalled ({0.outcome})",
    "no eligible replier": "hop src={0.holder} replies={0.replies} -> stalled ({0.outcome})",
    "lost": "hop src={0.holder} -> {0.chosen} lost, retrying",
    "confirmation lost": "hop src={0.holder} -> {0.chosen} (confirmation lost)",
    "confirmed": "hop src={0.holder} -> {0.chosen} replies={0.replies} path={1}",
}


@dataclass
class Trace:
    """Everything a run produced, in deterministic order.

    ``records`` holds typed records only, each fact once, in the order
    they happened: ``PacketEvent``, ``Death``, ``BaseReceipt``,
    ``HopAttempt`` (the same objects as each incident's ``hops``),
    ``Sense``, ``ResetStep`` and ``BaseListening``; ``packet_events``,
    ``deaths`` and ``base_inbox`` are views of it.  ``render`` alone
    writes trace text, its ``end:`` line from the final node states that
    ``run`` hands to ``nodes``.  No per-tick copy of node state is kept;
    a caller that wants one steps the Simulation and reads its nodes.
    """

    scenario: Scenario
    modes: dict[int, str]  # each sensor's initial Q/C role
    initial_energy: dict[int, int | float]  # whole units; math.inf for the base
    records: list[PacketEvent | Death | BaseReceipt | HopAttempt | Sense | ResetStep
                  | BaseListening] = field(default_factory=list)
    incidents: list[IncidentRecord] = field(default_factory=list)
    floods: list[FloodRecord] = field(default_factory=list)
    nodes: dict[int, NodeState] = field(default_factory=dict)  # final states, in id order

    @property
    def base(self) -> NodeState:
        """The base station's final state."""
        return self.nodes[self.scenario.topology.base_id]

    @property
    def packet_events(self) -> list[PacketEvent]:
        """Every transmission, in the order it was sent."""
        return [r for r in self.records if type(r) is PacketEvent]

    @property
    def deaths(self) -> list[tuple[int, int]]:
        """(tick, node) of every death, in the order they happened."""
        return [(r.tick, r.node) for r in self.records if type(r) is Death]

    @property
    def base_inbox(self) -> list[tuple[int, str]]:
        """(tick, text) of every message the base heard, in order."""
        return [(r.tick, r.text) for r in self.records if type(r) is BaseReceipt]

    def render(self) -> str:
        """The text of ``trace.txt``: three ``init:`` lines, then the
        ``t=NNN`` lines of the records in order (query, flood and
        isolation-alert broadcasts, deaths, base receipts, hop rounds,
        senses, reset-wave steps, the base's return to listening; the
        hop plane's transmissions print none), then ``end: balances``.

        The ``t=NNN`` head is formatted once per tick.  A broadcast
        line's text after it is formatted once per (note, src, hop,
        receivers) and reused within this call, since a sender with the
        same audience repeats it tick after tick.
        """
        sc = self.scenario
        topo = sc.topology
        w, h = topo.field_size
        q = sorted(n for n, m in self.modes.items() if m == MODE_Q)
        c = sorted(n for n, m in self.modes.items() if m == MODE_C)
        lines = [
            f"init: field={fmt_num(w)}x{fmt_num(h)} range={fmt_num(topo.radio_range)}"
            f" nodes={len(topo.nodes)} base={topo.base_id} seed={sc.seed}"
            f" loss={fmt_num(sc.loss_prob)}",
            f"init: modes Q={fmt_ids(q)} C={fmt_ids(c)}",
            "init: energy "
            + " ".join(f"{n}={fmt_num(e)}" for n, e in self.initial_energy.items()),
        ]
        paths = [[rec.origin] for rec in self.incidents]  # each incident's path so far
        tails: dict[tuple[str, int, int, tuple[int, ...]], str] = {}
        tick = None
        for r in self.records:
            if r.tick != tick:  # records come in tick order: once per tick
                tick = r.tick
                head = f"t={tick:>3} "
            # most records are transmissions, and most of those print nothing
            if type(r) is PacketEvent:
                label = NOTES[r.note].label
                if label is not None:
                    key = (r.note, r.src, r.hop, r.receivers)
                    tail = tails.get(key)
                    if tail is None:
                        hop = f" hop={r.hop}" if r.note == "flood" else ""
                        tail = tails[key] = f"{label} src={r.src}{hop} recv={fmt_ids(r.receivers)}"
                    lines.append(head + tail)
                continue
            if type(r) is Death:
                lines.append(f"{head}node {r.node} died ({r.cause})")
            elif type(r) is BaseReceipt:
                lines.append(head + _RECEIPT_LINE[r.via].format(r.text))
            elif type(r) is HopAttempt:  # incidents are numbered from 1
                rec = self.incidents[r.incident - 1]
                path = paths[r.incident - 1]
                if r.outcome in HANDED_ON:
                    path.append(r.chosen)
                lines.append(head + _HOP_LINE[r.outcome].format(r, fmt_ids(path)))
                if rec.close_reason == "hop_cap" and r is rec.hops[-1]:
                    lines.append(f"{head}incident {r.incident} undelivered (hop cap)")
            elif type(r) is Sense:
                sensed = f"{head}sense node={r.node} reading={fmt_num(r.reading)}"
                if r.flag2 is None:
                    lines.append(f"{sensed} ignored (dead)")
                else:
                    lines.append(f"{sensed} -> flags=(1,{int(r.flag2)}) mode=S")
            elif type(r) is ResetStep:
                lines.append(f"{head}reset-wave depth={r.depth} reset={fmt_ids(r.reset)}")
                if r.leftovers:
                    lines.append(f"{head}reset-wave cleanup reset={fmt_ids(r.leftovers)}")
                if r.leftovers is not None:
                    lines.append(f"{head}reset-wave complete")
            else:  # BaseListening
                lines.append(f"{head}base: {NETWORK_FINE!r}")
        if self.nodes:
            lines.append("end: balances " + " ".join(
                f"{n}={fmt_num(s.energy)}" for n, s in self.nodes.items()))
        return "\n".join(lines) + "\n"
