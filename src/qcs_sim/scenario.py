"""Scenario files: one text file describes a whole simulation run.

Sections, INI style with # comments:

    [field]       width, height, radio_range
    [nodes]       one ``id x y [base]`` line per node
    [costs]       threshold, init_min, init_max (all optional)
    [events]      one ``tick node reading`` line per injected reading
    [sim]         seed, horizon, loss_prob

Only [field] and [nodes] are mandatory; everything else falls back to
the documented defaults.  An unknown or repeated section or key is an
error, and every number must be finite.  This is the only module that
reads scenario text.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .energy import CostModel
from .node import DEVASTATING_LEVEL, IRREGULAR_LEVEL
from .numtext import parse_num
from .topology import NodeId, Position, Topology


DEFAULT_HORIZON = 20
SECTIONS = ("field", "nodes", "costs", "events", "sim")


@dataclass(frozen=True)
class SenseEvent:
    tick: int
    node: int
    reading: float


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    costs: CostModel
    seed: int | str  # a sweep derives a string key from the file's int
    horizon: int
    loss_prob: float
    events: tuple[SenseEvent, ...]

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must lie in [0, 1]")
        for ev in self.events:
            if ev.node not in self.topology.nodes:
                raise ValueError(f"event targets unknown node {ev.node}")
            if ev.node == self.topology.base_id:
                raise ValueError("events cannot target the base station")
            if not 0 <= ev.tick < self.horizon:
                raise ValueError(
                    f"event tick {ev.tick} outside the horizon [0, {self.horizon})"
                )


def split_sections(text: str) -> dict[str, list[str]]:
    """Break INI-style text into {section: [payload lines]}.

    Lines starting with '#' or ';' are comments.  Raises ValueError on
    content outside any section, a malformed header, and a section that
    is unknown or appears twice.
    """
    sections: dict[str, list[str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ValueError(f"line {lineno}: malformed section header {line!r}")
            current = line[1:-1].strip().lower()
            if current not in SECTIONS:
                raise ValueError(f"line {lineno}: unknown section [{current}]")
            if current in sections:
                raise ValueError(f"line {lineno}: repeated section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content before any [section]: {line!r}")
        sections[current].append(line)
    return sections


def parse_kv(lines: list[str], section: str, allowed) -> dict[str, str]:
    """The ``key = value`` lines of a section; a key not in allowed, or
    given twice, is an error."""
    out = {}
    for line in lines:
        if "=" not in line:
            raise ValueError(f"[{section}] expects key = value lines, got {line!r}")
        k, _, v = line.partition("=")
        k = k.strip().lower()
        if k not in allowed:
            raise ValueError(f"[{section}] has unknown key {k!r}")
        if k in out:
            raise ValueError(f"[{section}] repeats key {k!r}")
        out[k] = v.strip()
    return out


def load_layout(sections: dict[str, list[str]]) -> Topology:
    """Build a Topology from the [field] and [nodes] sections.

    [field] carries width, height and radio_range.  Each [nodes] line is
    ``id x y`` with an optional trailing ``base`` marker on exactly one
    line.  Duplicate ids, zero or multiple bases, and positions outside
    the field are rejected.
    """
    if "field" not in sections or "nodes" not in sections:
        raise ValueError("a scenario needs [field] and [nodes] sections")
    fv = parse_kv(sections["field"], "field", ("width", "height", "radio_range"))
    try:
        width = parse_num(fv["width"], "[field] width")
        height = parse_num(fv["height"], "[field] height")
        radio_range = parse_num(fv.get("radio_range", "110"), "[field] radio_range")
    except KeyError as e:
        raise ValueError(f"[field] missing {e.args[0]}") from None

    nodes: dict[NodeId, Position] = {}
    base_ids = []
    for line in sections["nodes"]:
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"[nodes] line needs 'id x y [base]', got {line!r}")
        try:
            nid = int(parts[0])
        except ValueError:
            raise ValueError(f"[nodes] line has a non-integer id: {line!r}") from None
        x = parse_num(parts[1], f"[nodes] x in {line!r}")
        y = parse_num(parts[2], f"[nodes] y in {line!r}")
        if nid in nodes:
            raise ValueError(f"duplicate node id {nid}")
        if len(parts) == 4:
            if parts[3].lower() != "base":
                raise ValueError(f"[nodes] trailing token must be 'base', got {parts[3]!r}")
            base_ids.append(nid)
        nodes[nid] = (x, y)
    if len(base_ids) != 1:
        raise ValueError(f"expected exactly one base node, found {len(base_ids)}")
    return Topology(
        nodes=nodes,
        base_id=base_ids[0],
        radio_range=radio_range,
        field_size=(width, height),
    )


def _int_field(kv: dict[str, str], key: str, default: int, section: str) -> int:
    raw = kv.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a validated Scenario."""
    sections = split_sections(text)
    topology = load_layout(sections)

    kv = parse_kv(sections.get("costs", []), "costs",
                  {f.name for f in fields(CostModel)})
    # keys left out keep the CostModel defaults
    costs = CostModel(**{key: _int_field(kv, key, 0, "costs") for key in kv})

    events = []
    for line in sections.get("events", []):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"[events] line needs 'tick node reading', got {line!r}")
        try:
            tick, node = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"[events] line has non-integer fields: {line!r}") from None
        reading = parse_num(parts[2], f"[events] reading in {line!r}")
        events.append(SenseEvent(tick, node, reading))

    kv = parse_kv(sections.get("sim", []), "sim", ("seed", "horizon", "loss_prob"))
    loss = kv.get("loss_prob")
    return Scenario(
        topology=topology,
        costs=costs,
        seed=_int_field(kv, "seed", 0, "sim"),
        horizon=_int_field(kv, "horizon", DEFAULT_HORIZON, "sim"),
        loss_prob=0.0 if loss is None else parse_num(loss, "[sim] loss_prob"),
        events=tuple(events),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file; errors carry the offending path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise ValueError(f"cannot read scenario file {p}: {e}") from None
    try:
        return parse_scenario(text)
    except ValueError as e:
        raise ValueError(f"{p}: {e}") from None


def sweep_scenario(sc: Scenario, i: int, node: int) -> Scenario:
    """Run i of an incident sweep over sc, counted from 1: its own derived
    seed, one irregular (not devastating) reading at node on tick 0, and
    a horizon long enough for the alarm to cross the network."""
    return replace(
        sc, seed=f"{sc.seed}:sweep:{i}", horizon=max(sc.horizon, len(sc.topology.nodes) + 2),
        events=(SenseEvent(0, node, (IRREGULAR_LEVEL + DEVASTATING_LEVEL) / 2),),
    )
