"""Shared helpers: random connected layouts and brute-force oracles.

The oracles here deliberately recompute everything from first
principles (pairwise distances, BFS, linear scans) so that the engine's
incremental bookkeeping is checked against an independent answer.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from qcs_sim import CostModel, Scenario, Topology
from qcs_sim.record import NOTES
from qcs_sim.scenario import SenseEvent

GRID = 16  # integer coordinates stay exactly representable on the wire
SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(**extra: str) -> dict[str, str]:
    """The environment for a child Python that must import qcs_sim from src/."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def random_connected_topology(
    rng: random.Random,
    n_min: int = 5,
    n_max: int = 24,
    radio_range: float = 110.0,
) -> Topology:
    """Grow a random connected layout with integer coordinates.

    Each new node lands within radio range of some existing node, so the
    result is connected by construction; a final check guards against
    rounding pushing a link just out of range.
    """
    while True:
        n = rng.randint(n_min, n_max)
        width, height = 1200.0, 1200.0
        pts: dict[int, tuple[float, float]] = {}
        ids = list(range(1, n + 1))
        for nid in ids:
            if not pts:
                x = rng.randint(20, 60) * GRID
                y = rng.randint(20, 60) * GRID
            else:
                ax, ay = pts[rng.choice(list(pts))]
                for _ in range(50):
                    ang = rng.uniform(0, 2 * math.pi)
                    rad = rng.uniform(0.3, 0.9) * radio_range
                    x = round((ax + rad * math.cos(ang)) / GRID) * GRID
                    y = round((ay + rad * math.sin(ang)) / GRID) * GRID
                    if 0 <= x <= width and 0 <= y <= height:
                        break
                else:
                    x, y = ax, ay
            pts[nid] = (float(x), float(y))
        base_id = rng.choice(ids)
        topo = Topology(
            nodes=pts, base_id=base_id,
            radio_range=radio_range, field_size=(width, height),
        )
        if topo.is_connected():
            return topo


def make_scenario(
    topo: Topology,
    *,
    seed: int = 0,
    horizon: int = 20,
    loss_prob: float = 0.0,
    events: tuple[SenseEvent, ...] = (),
    costs: CostModel | None = None,
) -> Scenario:
    return Scenario(
        topology=topo,
        costs=costs if costs is not None else CostModel(),
        seed=seed,
        horizon=horizon,
        loss_prob=loss_prob,
        events=events,
    )


# ------------------------------------------------------------------ oracles

def brute_adjacency(
    pts: dict[int, tuple[float, float]], radio_range: float
) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {nid: set() for nid in pts}
    items = sorted(pts)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            dx = pts[a][0] - pts[b][0]
            dy = pts[a][1] - pts[b][1]
            if math.sqrt(dx * dx + dy * dy) <= radio_range:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def is_independent(adj: dict[int, set[int]], chosen: set[int]) -> bool:
    return all(adj[a].isdisjoint(chosen) for a in chosen)


def is_maximal_independent(
    adj: dict[int, set[int]], chosen: set[int], universe: set[int]
) -> bool:
    """Independent, and no node outside could join without a conflict."""
    if not is_independent(adj, chosen):
        return False
    for nid in universe - chosen:
        if adj[nid].isdisjoint(chosen):
            return False
    return True


def bfs_hops(adj: dict[int, set[int]], src: int) -> dict[int, int]:
    dist = {src: 0}
    q = deque([src])
    while q:
        cur = q.popleft()
        for nb in adj[cur]:
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                q.append(nb)
    return dist


@dataclass
class Samples:
    """Per-tick state the engine does not keep, read around each step."""

    modes: list[dict[int, str]]                 # every node's mode, per tick
    flooded: list[tuple[int, frozenset[int]]]   # (tick, flooded sensors)


def ledger_csv_reference(ledger) -> bytes:
    """ledger.csv as one formatted line per LedgerEntry of the ledger's
    entries view; every debit and balance must be a whole int."""
    lines = ["tick,node_id,cause,debit,balance"]
    for e in ledger.entries:
        assert type(e.debit) is int and type(e.balance) is int, e
        lines.append(",".join(map(str, e)))
    return ("\n".join(lines) + "\n").encode()


def run_sampled(sim):
    """Step sim to its horizon while sampling, then let run() close the trace.

    A tick's modes are read before its step.  That is the state its
    nodes act on unless a sense event or a reset-wave hop lands in the
    tick, and audit_regular_window admits no such tick.  The flooded
    set, the sensors in S with flag2 raised, is read after every step
    that leaves a flood epoch active.  Returns (trace, Samples).
    """
    seen = Samples([], [])
    while sim.tick < sim.sc.horizon:
        seen.modes.append({nid: n.mode for nid, n in sim.nodes.items()})
        sim.step()
        if sim.active_flood is not None:
            seen.flooded.append((sim.tick - 1, frozenset(
                n.node_id for n in sim.nodes.values()
                if not n.is_base and n.mode == "S" and n.flag2
            )))
    return sim.run(), seen


def audit_regular_window(sim, trace, modes_by_tick, t0: int, t1: int) -> None:
    """Assert ticks [t0, t1) behave like pure status polling.

    modes_by_tick is run_sampled's per-tick modes.  Checks, against the
    trace, the ledger and those modes: every packet is a
    flag-clear query, each Q sensor sends exactly one per tick, the
    receiver set is exactly the live neighborhood, roles alternate
    tick to tick, and each node's per-tick debit equals one unit for
    its own query plus one per query heard.
    """
    topo = sim.topology
    assert not any(t < t1 for t, _ in trace.deaths)  # all hands still alive

    by_tick: dict[int, list] = {}
    for ev in trace.packet_events:
        if t0 <= ev.tick < t1:
            by_tick.setdefault(ev.tick, []).append(ev)

    debit: dict[tuple[int, int], int] = {}
    for e in sim.ledger.entries:
        if t0 <= e.tick < t1:
            debit[(e.tick, e.node_id)] = debit.get((e.tick, e.node_id), 0) + e.debit

    for t in range(t0, t1):
        modes = modes_by_tick[t]
        assert all(m in "QC" for n, m in modes.items() if n != topo.base_id)
        q_nodes = {n for n, m in modes.items()
                   if m == "Q" and n != topo.base_id}
        events = by_tick.get(t, [])
        assert {ev.src for ev in events} == q_nodes
        assert len(events) == len(q_nodes)
        heard: dict[int, int] = {}
        for ev in events:
            assert ev.note == "regular"
            assert not NOTES[ev.note].flag1 and not NOTES[ev.note].flag2
            assert set(ev.receivers) == set(topo.neighbors(ev.src))
            for r in ev.receivers:
                heard[r] = heard.get(r, 0) + 1
        for nid in topo.sensor_ids():
            want = (1 if nid in q_nodes else 0) + heard.get(nid, 0)
            assert debit.get((t, nid), 0) == want, (t, nid)
        if t > t0:
            prev = modes_by_tick[t - 1]
            for nid in topo.sensor_ids():
                assert modes[nid] != prev[nid], (t, nid)


def oracle_hop_choice(topo, threshold: int | float, repliers) -> int | None:
    """Independent recomputation of the greedy handover target."""
    from qcs_sim.topology import dist

    base_pos = topo.nodes[topo.base_id]
    best = None
    best_key = None
    for nid, energy in repliers:
        if not energy > threshold:
            continue
        key = (dist(topo.nodes[nid], base_pos), -energy, nid)
        if best_key is None or key < best_key:
            best_key = key
            best = nid
    return best
