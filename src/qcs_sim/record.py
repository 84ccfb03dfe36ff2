"""The record of a run: the typed facts a simulation writes and every
report reads.

A run's ``Trace`` holds typed records only, each fact once, in the
order it happened: transmissions, deaths, base receipts, hop rounds,
senses, reset-wave hops and the base's returns to listening, beside
each incident's and each flood epoch's lifecycle.  Nothing here
formats text: the simulation appends typed records to
``Trace.records``, and ``metrics`` renders every report from them,
``trace.txt`` included.  ``NOTES`` tells, by its note, what each
transmission is: its packet, its causes and their prices.

This module imports neither the simulation nor the report writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .energy import PRICES
from .node import NodeState
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
    close_tick: int | None = None  # the tick close_reason was set

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
    """What each transmission with a note is: its packet, and the ledger
    causes of its sender and of each hearer, with their prices."""

    kind: PacketKind
    flag1: bool
    flag2: bool
    send: str
    recv: str | None  # None where the sender pays both radio ends
    send_price: int
    recv_price: int  # 0 without a receive cause


#: every transmission by its note; a flagged sensor hears only flag1 broadcasts
NOTES = {
    note: Note(kind, flag1, flag2, send, recv, PRICES[send], PRICES[recv] if recv else 0)
    for note, kind, flag1, flag2, send, recv in (
        ("regular", PacketKind.QUERY, False, False, "query_send", "query_recv"),
        ("hop_query", PacketKind.QUERY, True, False, "hop_query", "hop_query_recv"),
        ("flood", PacketKind.SOURCE, True, True, "flood_send", "flood_recv"),
        ("alert", PacketKind.SOURCE, True, False, "alert_send", "alert_recv"),
        ("ack", PacketKind.ACK, False, False, "ack_send", "ack_recv"),
        ("source", PacketKind.SOURCE, True, False, "source_send", None),
        ("reset_ack", PacketKind.ACK, False, False, "reset_send", "reset_recv"),
    )
}


@dataclass
class Trace:
    """Everything a run produced, in deterministic order.

    ``records`` holds typed records only, each fact once, in the order
    they happened: ``PacketEvent``, ``Death``, ``BaseReceipt``,
    ``HopAttempt`` (the same objects as each incident's ``hops``),
    ``Sense``, ``ResetStep`` and ``BaseListening``; ``packet_events``,
    ``deaths`` and ``base_inbox`` are views of it.  ``nodes`` is the
    run's node map, the very dict the simulation steps, so its states
    are final once ``run`` returns.  No per-tick copy of node state is
    kept; a caller that wants one steps the Simulation and reads its
    nodes.
    """

    scenario: Scenario
    modes: dict[int, str]  # each sensor's initial Q/C role
    initial_energy: dict[int, int | float]  # whole units; math.inf for the base
    nodes: dict[int, NodeState]  # the run's node states, in id order
    records: list[PacketEvent | Death | BaseReceipt | HopAttempt | Sense | ResetStep
                  | BaseListening] = field(default_factory=list)
    incidents: list[IncidentRecord] = field(default_factory=list)
    floods: list[FloodRecord] = field(default_factory=list)

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
