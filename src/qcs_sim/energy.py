"""Energy accounting.

Radio work is billed twice over, in two independent currencies:

* abstract units, 1 per short (24-byte) packet event and 2 per long
  (64-byte) one, with processing cost folded in, used by all protocol
  logic and for node lifetime; ``PRICES`` prices every ledger cause;
* millijoules, from transmission time at a fixed current and voltage,
  for physically meaningful reporting.

Sending and receiving the same packet cost the same amount.  The base
station has an infinite supply and is never charged: the engine's
broadcast routine skips it, and ``EnergyLedger.debit`` leaves an
infinite balance untouched and writes no row for it.

The ledger stores its rows as flat cells, five values per row in column
order, so a run keeps no row object per send or receive; ``entries``
reads them back as ``LedgerEntry`` rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple

from .packet import ENERGY_INF_WIRE, QUERY_ACK_SIZE, SOURCE_SIZE

if TYPE_CHECKING:
    from .node import NodeState


#: seconds on air per packet size
_TX_SECONDS = {QUERY_ACK_SIZE: 0.020, SOURCE_SIZE: 0.040}

_CURRENT_MA = 18.7
_VOLTAGE_V = 2.6


def joules(size_bytes: int) -> float:
    """Physical energy in millijoules for one event of a packet this size."""
    try:
        t = _TX_SECONDS[size_bytes]
    except KeyError:
        raise ValueError(f"no transmission time defined for {size_bytes}-byte packets") from None
    return t * _CURRENT_MA * _VOLTAGE_V


def lifetime(initial_energy: float, e1: float, ep: float = 0) -> int:
    """Whole regular periods a node survives at a constant per-period cost.

    e1 is the radio cost of one period, ep any processing surcharge not
    already folded into e1.
    """
    for name, value in (("initial_energy", initial_energy), ("e1", e1), ("ep", ep)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
        if value < 0:
            raise ValueError(f"{name} cannot be negative, got {value}")
    per_tick = e1 + ep
    if per_tick <= 0:
        raise ValueError("per-period cost e1 + ep must be positive")
    return math.floor(initial_energy / per_tick)


def draw_initial_energy(seed: int | str, node_id: int, lo: int, hi: int) -> int:
    """Deterministic per-node starting charge, uniform over [lo, hi]."""
    if lo > hi:
        raise ValueError("empty energy range")
    return random.Random(f"energy:{seed}:{node_id}").randint(lo, hi)


#: units for one short (24-byte) packet event; a long one costs twice that
QUERY_COST = 1

#: how many times the radio range a disconnect alert reaches
ISOLATION_MULTIPLIER = 2

_LONG = 2 * QUERY_COST

#: Units charged for each ledger cause.  One forwarding hop bills its
#: holder 6 + (acks heard) short units: 1 for hop_query, 1 per ack_recv,
#: 4 for source_send (both radio ends of the long transfer) and 1 for
#: reset_recv.  The accepting node pays only reset_send.  A disconnect
#: alert is a long packet sent ISOLATION_MULTIPLIER times as far, at that
#: multiple of the long price.
PRICES: dict[str, int] = {
    "query_send": QUERY_COST,
    "query_recv": QUERY_COST,
    "hop_query": QUERY_COST,
    "hop_query_recv": QUERY_COST,
    "ack_send": QUERY_COST,
    "ack_recv": QUERY_COST,
    "source_send": 2 * _LONG,
    "reset_send": QUERY_COST,
    "reset_recv": QUERY_COST,
    "flood_send": _LONG,
    "flood_recv": _LONG,
    "alert_send": ISOLATION_MULTIPLIER * _LONG,
    "alert_recv": _LONG,
}


@dataclass(frozen=True)
class CostModel:
    """Per-scenario energy settings: the handover floor and battery range."""

    threshold: int = 500
    init_min: int = 3000
    init_max: int = 5000

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold cannot be negative")
        if not 0 < self.init_min <= self.init_max:
            raise ValueError("initial energy range must satisfy 0 < min <= max")
        if self.threshold >= self.init_min:
            raise ValueError("threshold must sit below the lowest starting energy")
        if self.init_max >= ENERGY_INF_WIRE:
            raise ValueError(f"init_max {self.init_max} does not fit the 32-bit energy"
                             f" field (at most {ENERGY_INF_WIRE - 1})")


class LedgerEntry(NamedTuple):
    """One debit row, as ``EnergyLedger.entries`` reads it from the cells."""

    tick: int
    node_id: int
    cause: str
    debit: int
    balance: float


#: values per row in EnergyLedger.cells, one per LedgerEntry field
ROW_CELLS = len(LedgerEntry._fields)

# builds a LedgerEntry from its values without the Python-level __new__ frame
_new_row = tuple.__new__


@dataclass
class EnergyLedger:
    """An append-only record of every debit, charged against node balances.

    A node's balance is its ``NodeState.energy``; the ledger writes it
    when a debit moves energy and reads it back through ``balance``.
    ``cells`` holds the rows flat, five values per row in column order:
    tick, node_id, cause, debit, balance.  ``debit`` bills the hop
    plane's point-to-point packets; ``Simulation._broadcast`` bills every
    broadcast without calling it and extends ``cells`` with the rows
    ``debit`` would write.
    """

    nodes: dict[int, NodeState]
    cells: list[int | str | float] = field(default_factory=list)
    _rows: list[LedgerEntry] = field(default_factory=list, init=False, repr=False,
                                     compare=False)

    @property
    def entries(self) -> list[LedgerEntry]:
        """Every row as a LedgerEntry, in the order it was written.

        A view to read, not to change: the list is kept and grown from
        the rows it already holds, so a caller that reads it after every
        debit costs one LedgerEntry per row, not one per row per read.
        """
        rows = self._rows
        done = ROW_CELLS * len(rows)
        if done < len(self.cells):
            it = iter(self.cells[done:])
            rows.extend(map(_new_row, repeat(LedgerEntry), zip(*[it] * ROW_CELLS)))
        return rows

    def balance(self, node_id: int) -> float:
        return self.nodes[node_id].energy

    def debit(self, tick: int, node: NodeState, cause: str) -> int:
        """Charge node the price of cause, clamped at zero; return the
        amount taken.

        Infinite balances (the base station) are left untouched, and a
        row is recorded only when some energy actually moved.
        """
        bal = node.energy
        if bal == math.inf:
            return 0
        price = PRICES[cause]
        taken = bal if bal < price else price
        if taken == 0:
            return 0
        bal -= taken
        node.energy = bal
        self.cells.extend((tick, node.node_id, cause, taken, bal))
        return taken

    def total_consumed(self) -> int:
        return sum(self.cells[3::ROW_CELLS])
