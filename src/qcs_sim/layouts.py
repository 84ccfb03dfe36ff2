"""Bundled demonstration layout: 15 sensors and one base on a 300x500 field.

The geometry is deliberately sparse (sensor degrees 1 to 4) and was
chosen so that every maximal independent set of its adjacency graph
has between 6 and 8 of the 15 sensors; the greedy Q/C initialization
therefore always puts 40-53% of the sensors into Q mode, whatever the
seed.  The test suite verifies this exhaustively.

With a 110-unit radio range, nodes 75 units apart (orthogonally or
diagonally on the underlying 75-unit grid) hear each other and nodes
150 or more apart do not.
"""

from __future__ import annotations

from .numtext import fmt_num
from .topology import Position, Topology


RADIO_RANGE = 110.0
FIELD = (300.0, 500.0)
BASE_ID = 16

POSITIONS: dict[int, Position] = {
    1: (0.0, 0.0),
    2: (225.0, 0.0),
    3: (0.0, 75.0),
    4: (75.0, 75.0),
    5: (150.0, 75.0),
    6: (300.0, 150.0),
    7: (150.0, 150.0),
    8: (0.0, 300.0),
    9: (75.0, 300.0),
    10: (225.0, 225.0),
    11: (300.0, 300.0),
    12: (150.0, 375.0),
    13: (300.0, 375.0),
    14: (75.0, 450.0),
    15: (225.0, 450.0),
    16: (150.0, 450.0),
}


def default16_topology() -> Topology:
    """The bundled layout as a ready Topology."""
    return Topology(
        nodes=dict(POSITIONS),
        base_id=BASE_ID,
        radio_range=RADIO_RANGE,
        field_size=FIELD,
    )


def default16_scenario_text(*, seed: int = 0, horizon: int = 20,
                            loss_prob: float = 0.0,
                            events: tuple[tuple[int, int, float], ...] = ()) -> str:
    """Render a complete scenario file for the bundled layout.

    events is a sequence of (tick, node, reading) triples; costs are
    left at their defaults.
    """
    lines = [
        "# 16-node demonstration network",
        "[field]",
        f"width = {fmt_num(FIELD[0])}",
        f"height = {fmt_num(FIELD[1])}",
        f"radio_range = {fmt_num(RADIO_RANGE)}",
        "",
        "[nodes]",
    ]
    for nid in sorted(POSITIONS):
        x, y = POSITIONS[nid]
        suffix = " base" if nid == BASE_ID else ""
        lines.append(f"{nid} {fmt_num(x)} {fmt_num(y)}{suffix}")
    lines += ["", "[events]"]
    for tick, node, reading in events:
        lines.append(f"{tick} {node} {fmt_num(reading)}")
    lines += [
        "",
        "[sim]",
        f"seed = {seed}",
        f"horizon = {horizon}",
        f"loss_prob = {fmt_num(loss_prob)}",
        "",
    ]
    return "\n".join(lines)
