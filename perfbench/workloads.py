"""Benchmark workloads: scenario text as a pure function of (workload, seed).

A workload seed expands into a fixed list of realizations, scenario seeds
``seed + 1000 * j``, and a benchmark run cycles through them, one
``qcs-sim`` call at a time.  How much work a call does depends on random
loss and on where readings come from, so the median over realizations
keeps one draw from standing for the workload.
The scenario seed sets the scenario's ``[sim] seed`` and the node each
injected reading comes from; the program under test sees only the
generated scenario file.

Calls are kept well under two seconds so each realization repeats many
times in a run (see run.py).  Geometry keeps every coordinate a multiple
of 5 m inside 0..4095 and node ids inside 1..255, so the scenarios fit
the paper's wire format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

IRREGULAR_READING = 70    # above the default irregular level (50)
DEVASTATING_READING = 95  # above the default devastating level (90)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    realizations: int
    sweep_ids: tuple[int, ...] | None  # None: one long run, else one --sweep call

    def scenario_seeds(self, seed: int) -> list[int]:
        return [seed + 1000 * j for j in range(self.realizations)]

    def scenario_text(self, scenario_seed: int, repo: Path) -> str:
        return _GENERATORS[self.name](scenario_seed, repo)

    def cli_args(self, scenario: Path, out: Path) -> list[str]:
        args = ["--scenario", str(scenario), "--out", str(out)]
        if self.sweep_ids is not None:
            args += ["--sweep", ",".join(str(i) for i in self.sweep_ids)]
        return args


def _grid_nodes(rows: int, cols: int, dx: int, dy: int, base_id: int) -> list[str]:
    """Row-major ids from 1; node (r, c) sits at (c*dx, r*dy)."""
    lines = []
    for r in range(rows):
        for c in range(cols):
            nid = r * cols + c + 1
            tag = " base" if nid == base_id else ""
            lines.append(f"{nid} {c * dx} {r * dy}{tag}")
    return lines


def _scenario(width: int, height: int, radio_range: int, nodes: list[str],
              events: list[tuple[int, int, int]], seed: int, horizon: int,
              loss: float, costs: tuple[str, ...] = ()) -> str:
    return "\n".join([
        "[field]",
        f"width = {width}",
        f"height = {height}",
        f"radio_range = {radio_range}",
        "",
        "[nodes]",
        *nodes,
        "",
        "[costs]",
        *costs,
        "",
        "[events]",
        *(f"{t} {n} {r}" for t, n, r in events),
        "",
        "[sim]",
        f"seed = {seed}",
        f"horizon = {horizon}",
        f"loss_prob = {loss}",
        "",
    ])


def _grid225_lifetime(seed: int, repo: Path) -> str:
    # 15x15 at 75 m with a 110 m range: the diagonal (106 m) is in range,
    # two steps (150 m) are not, so every node has up to 8 neighbours.
    # The base is the corner at the origin; both readings come from the
    # 3x3 block at the far corner.  Batteries are a twentieth of the
    # default (150..250 units, handover threshold 25), so the whole
    # lifetime, from the first death near t=30 to most nodes dead by
    # t=100, fits in a call short enough to repeat many times in a run.
    # The flood comes at t=25, while every node is still alive.
    rng = random.Random(f"grid225_lifetime:{seed}")
    far = [r * 15 + c + 1 for r in range(12, 15) for c in range(12, 15)]
    alarm, flood = rng.choice(far), rng.choice(far)
    return _scenario(
        1050, 1050, 110, _grid_nodes(15, 15, 75, 75, base_id=1),
        [(1, alarm, IRREGULAR_READING), (25, flood, DEVASTATING_READING)],
        seed, horizon=100, loss=0.05,
        costs=("init_min = 150", "init_max = 250", "threshold = 25"),
    )


def _sweep16_paper(seed: int, repo: Path) -> str:
    # The checked-in paper network with only its [sim] seed replaced.
    text = (repo / "scenarios" / "default16.scn").read_text(encoding="utf-8")
    out, replaced = [], False
    for line in text.splitlines():
        if line.split("=")[0].strip() == "seed":
            line, replaced = f"seed = {seed}", True
        out.append(line)
    if not replaced:
        raise ValueError("scenarios/default16.scn has no [sim] seed line")
    return "\n".join(out) + "\n"


_GENERATORS = {
    "grid225_lifetime": _grid225_lifetime,
    "sweep16_paper": _sweep16_paper,
}

# default_seed 7 makes realization 0 of sweep16_paper the checked-in file.
WORKLOADS = {
    w.name: w for w in (
        Workload("grid225_lifetime", default_seed=1, realizations=4, sweep_ids=None),
        Workload("sweep16_paper", default_seed=7, realizations=16,
                 sweep_ids=tuple(range(1, 16))),
    )
}
