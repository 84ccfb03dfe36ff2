"""Scenario files: one text file describes a whole simulation run.

Sections, INI style with # comments:

    [field]       width, height, radio_range
    [nodes]       one ``id x y [base]`` line per node
    [costs]       threshold, init_min, init_max (all optional)
    [thresholds]  irregular, devastating sensor levels
    [events]      one ``tick node reading`` line per injected reading
    [sim]         seed, horizon, loss_prob

Only [field] and [nodes] are mandatory; everything else falls back to
the documented defaults.  An unknown section or key is an error, and
every number must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .energy import CostModel
from .node import Thresholds
from .numtext import parse_num
from .topology import Topology, load_layout, parse_kv, split_sections


DEFAULT_HORIZON = 20
SECTIONS = ("field", "nodes", "costs", "thresholds", "events", "sim")


@dataclass(frozen=True)
class SenseEvent:
    tick: int
    node: int
    reading: float


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    costs: CostModel
    thresholds: Thresholds
    seed: int
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

    def with_overrides(self, *, seed: int | None = None, horizon: int | None = None,
                       loss_prob: float | None = None) -> "Scenario":
        """Copy with command-line overrides applied."""
        out = self
        if seed is not None:
            out = replace(out, seed=seed)
        if horizon is not None:
            out = replace(out, horizon=horizon)
        if loss_prob is not None:
            out = replace(out, loss_prob=loss_prob)
        return out


def _int_field(kv: dict[str, str], key: str, default: int, section: str) -> int:
    raw = kv.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _float_field(kv: dict[str, str], key: str, default: float, section: str) -> float:
    raw = kv.get(key)
    return default if raw is None else parse_num(raw, f"[{section}] {key}")


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a validated Scenario."""
    sections = split_sections(text)
    for name in sections:
        if name not in SECTIONS:
            raise ValueError(f"unknown section [{name}]")
    topology = load_layout(text)

    kv = parse_kv(sections.get("costs", []), "costs",
                  {f.name for f in fields(CostModel)})
    # keys left out keep the CostModel defaults
    costs = CostModel(**{key: _int_field(kv, key, 0, "costs") for key in kv})

    kv = parse_kv(sections.get("thresholds", []), "thresholds",
                  ("irregular", "devastating"))
    thresholds = Thresholds(
        irregular_level=_float_field(kv, "irregular", 50.0, "thresholds"),
        devastating_level=_float_field(kv, "devastating", 90.0, "thresholds"),
    )

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
    seed = _int_field(kv, "seed", 0, "sim")
    horizon = _int_field(kv, "horizon", DEFAULT_HORIZON, "sim")
    loss_prob = _float_field(kv, "loss_prob", 0.0, "sim")

    return Scenario(
        topology=topology,
        costs=costs,
        thresholds=thresholds,
        seed=seed,
        horizon=horizon,
        loss_prob=loss_prob,
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
