"""Discrete-event simulator for a duty-cycled wireless sensor network.

Sensor nodes alternate between querying (Q) and checked/listening (C)
roles each time period.  Alarms are forwarded hop by hop toward a base
station by greedy geographic choice among acknowledging neighbors, and
catastrophic alarms flood the whole network until the base station
resets it.  Packets are encoded bit-exactly (24-byte query/ack, 64-byte
source) and every energy debit is tracked in a per-node ledger, both in
abstract units and in a millijoule model.
"""

from .topology import Topology, Position, dist
from .packet import (
    Packet,
    PacketKind,
    PacketError,
    Flags,
    encode,
    decode,
    peek_flags,
    make_query,
    make_ack,
    make_source,
    affected_message,
)
from .node import (
    MODE_Q,
    MODE_C,
    MODE_S,
    NodeState,
    IRREGULAR_LEVEL,
    DEVASTATING_LEVEL,
    init_modes,
    sense_and_classify,
    tick_transition,
    handle_query,
    handle_source,
    reset_node,
    isolation_check,
)
from .energy import (
    CostModel,
    EnergyLedger,
    joules,
    lifetime,
    draw_initial_energy,
)
from .scenario import Scenario, SenseEvent, parse_scenario, load_scenario, sweep_scenario
from .layouts import default16_topology, default16_scenario_text
from .record import Trace, IncidentRecord, FloodRecord
from .engine import Simulation
