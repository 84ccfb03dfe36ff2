"""Release gate: the eleven binding checks, one test each.

Run with ``pytest tests/test_acceptance.py -v`` to get a single
pass/fail line per criterion.  Tolerances and time budgets are pinned
in the asserts; randomized suites use fixed seeds so every run checks
the same cases.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from pathlib import Path

import pytest

from qcs_sim import (
    MODE_Q,
    Simulation,
    default16_scenario_text,
    default16_topology,
    init_modes,
    joules,
    lifetime,
    parse_scenario,
)
from qcs_sim.cli import main as cli_main
from qcs_sim.packet import Flags, Packet, PacketKind, decode, encode
from qcs_sim.record import NOTES
from qcs_sim.scenario import SenseEvent

from conftest import (
    audit_regular_window,
    bfs_hops,
    brute_adjacency,
    is_maximal_independent,
    make_scenario,
    oracle_hop_choice,
    random_connected_topology,
    run_sampled,
)

SCN = Path(__file__).resolve().parents[1] / "scenarios" / "default16.scn"


def _random_packet(rng: random.Random) -> Packet:
    kind = rng.choice(list(PacketKind))
    flag1 = rng.random() < 0.5
    flag2 = flag1 and rng.random() < 0.5
    cap = 52 if kind == PacketKind.SOURCE else 12
    return Packet(
        kind=kind,
        flags=Flags(flag1, flag2),
        src=rng.randint(0, 255),
        hop_count=rng.randint(0, 255),
        loc=(rng.randint(0, 4095) + rng.randint(0, 15) / 16,
             rng.randint(0, 4095) + rng.randint(0, 15) / 16),
        energy=rng.choice([math.inf, rng.randint(0, 2 ** 32 - 2)]),
        message="".join(rng.choice("abcdefXYZ 012") for _ in
                        range(rng.randint(0, cap))),
    )


def _incident_runs(seed: int, count: int):
    """Yield (scenario, trace, sim) for single-alarm randomized runs."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        topo = random_connected_topology(rng)
        origin = rng.choice(topo.sensor_ids())
        sc = make_scenario(
            topo, seed=rng.randint(0, 99999),
            horizon=len(topo.nodes) + 6,
            events=(SenseEvent(1, origin, 70.0),),
        )
        sim = Simulation(sc)
        tr = sim.run()
        made += len(tr.incidents)
        yield sc, tr, sim


def test_criterion_01_packet_sizes_and_roundtrip():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        pkt = _random_packet(rng)
        raw = encode(pkt)
        want = 64 if pkt.kind == PacketKind.SOURCE else 24
        assert len(raw) == want
        assert decode(raw) == pkt
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_millijoule_model():
    assert math.isclose(joules(24), 0.9724, rel_tol=1e-9)
    assert math.isclose(joules(64), 1.9448, rel_tol=1e-9)
    assert joules(64) == 2 * joules(24)


def test_criterion_03_lifetime_formula():
    assert lifetime(3000, 1, 0) == 3000
    assert lifetime(5000, 1, 0) == 5000


def test_criterion_04_s_mode_cost_identity():
    t0 = time.perf_counter()
    hop_causes = ("hop_query", "ack_recv", "source_send", "reset_recv")
    incidents = 0
    hops_checked = 0
    for sc, tr, sim in _incident_runs(seed=104, count=100):
        rows = defaultdict(lambda: defaultdict(int))
        for e in sim.ledger.entries:
            rows[(e.tick, e.node_id)][e.cause] += e.debit
        for rec in tr.incidents:
            incidents += 1
            for hop in rec.hops:
                if hop.outcome != "confirmed":
                    continue
                got = rows[(hop.tick, hop.holder)]
                assert got["hop_query"] == 1
                assert got["ack_recv"] == hop.replies
                assert got["source_send"] == 4
                assert got["reset_recv"] == 1
                assert sum(got[c] for c in hop_causes) == 6 + hop.replies
                hops_checked += 1
    assert incidents >= 100
    assert hops_checked >= 100
    assert time.perf_counter() - t0 < 5.0


def test_criterion_05_init_is_maximal_independent_set():
    t0 = time.perf_counter()
    topo16 = default16_topology()
    adj16 = brute_adjacency(topo16.nodes, topo16.radio_range)
    sensors16 = set(topo16.sensor_ids())
    for seed in range(100):
        modes = init_modes(topo16, seed)
        q = {nid for nid, m in modes.items() if m == MODE_Q}
        assert is_maximal_independent(adj16, q, sensors16)
        frac = len(q) / len(sensors16)
        assert 0.40 <= frac <= 0.60, (seed, frac)
    rng = random.Random(105)
    for _ in range(100):
        topo = random_connected_topology(rng, n_min=5, n_max=64)
        adj = brute_adjacency(topo.nodes, topo.radio_range)
        modes = init_modes(topo, rng.randint(0, 10 ** 6))
        q = {nid for nid, m in modes.items() if m == MODE_Q}
        assert is_maximal_independent(adj, q, set(topo.sensor_ids()))
    assert time.perf_counter() - t0 < 10.0


def test_criterion_06_silence_law_and_alternation():
    text = default16_scenario_text(seed=7, horizon=20, loss_prob=0.0)
    sim = Simulation(parse_scenario(text))
    tr, seen = run_sampled(sim)
    assert all(NOTES[ev.note].kind == PacketKind.QUERY and ev.note == "regular"
               for ev in tr.packet_events)
    audit_regular_window(sim, tr, seen.modes, 0, 20)


def test_criterion_07_greedy_oracle_equivalence():
    t0 = time.perf_counter()
    incidents = 0
    for sc, tr, sim in _incident_runs(seed=107, count=200):
        topo = sc.topology
        for rec in tr.incidents:
            incidents += 1
            path = [rec.origin]
            for hop in rec.hops:
                want = oracle_hop_choice(topo, sc.costs.threshold,
                                         hop.repliers)
                assert hop.chosen == want, (hop.tick, hop.holder)
                if hop.outcome in ("confirmation lost", "confirmed"):
                    path.append(hop.chosen)
            assert rec.path == path
    assert incidents >= 200

    # deterministic tie-break probes: distance ties fall to the richer
    # node, and dead ties fall to the lower id
    from qcs_sim import CostModel, Topology, draw_initial_energy

    nodes = {5: (200.0, 50.0), 2: (120.0, 100.0), 3: (120.0, 0.0),
             9: (0.0, 50.0)}
    topo = Topology(nodes=nodes, base_id=9, radio_range=110.0,
                    field_size=(300.0, 200.0))
    ev = (SenseEvent(0, 5, 70.0),)
    sc = make_scenario(topo, seed=1, horizon=3, events=ev,
                       costs=CostModel(init_min=1000, init_max=1000))
    assert Simulation(sc).run().incidents[0].hops[0].chosen == 2
    lo, hi = CostModel().init_min, CostModel().init_max
    for seed in range(50):
        if (draw_initial_energy(str(seed), 3, lo, hi)
                >= draw_initial_energy(str(seed), 2, lo, hi) + 2):
            break
    sc2 = make_scenario(topo, seed=seed, horizon=3, events=ev)
    assert Simulation(sc2).run().incidents[0].hops[0].chosen == 3
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_comparisons_scaling(tmp_path):
    out = tmp_path / "sweep"
    rc = cli_main(["--scenario", str(SCN), "--out", str(out),
                   "--sweep", "13,12,15,2,14,8,9"])
    assert rc == 0
    rows = [line.split(",") for line in
            (out / "paths.csv").read_text().splitlines()[1:]]
    measured = [(int(n), int(c)) for _, n, c in rows]
    assert len(measured) == 7
    by_len: dict[int, list[int]] = defaultdict(list)
    for n, c in measured:
        by_len[n].append(c)
    lens = sorted(by_len)
    for shorter, longer in zip(lens, lens[1:]):
        assert max(by_len[shorter]) <= min(by_len[longer])
    ratios = sorted(c / n for n, c in measured)
    assert all(1.0 <= r <= 8.0 for r in ratios)
    median = ratios[len(ratios) // 2]
    assert 2.0 <= median <= 4.0


def test_criterion_09_flood_equals_bfs_ball():
    t0 = time.perf_counter()
    # reference layout: ball equality, receipt at graph distance, clean reset
    text = default16_scenario_text(seed=7, horizon=32,
                                   events=((2, 4, 95.0),))
    sim = Simulation(parse_scenario(text))
    tr, seen = run_sampled(sim)
    fl = tr.floods[0]
    topo = default16_topology()
    hops = bfs_hops(brute_adjacency(topo.nodes, topo.radio_range), 4)
    assert fl.base_receipt_tick == 2 + hops[topo.base_id]
    for t, s_set in seen.flooded:
        if t > fl.base_receipt_tick:
            break
        r = min(t - 2, fl.hop_cap)
        ball = {n for n, d in hops.items()
                if d <= r and n != topo.base_id}
        assert set(s_set) == ball, t
    done = fl.completed_tick
    assert done is not None
    assert all(n.mode in "QC" for n in sim.nodes.values())
    audit_regular_window(sim, tr, seen.modes, done + 1, 32)

    # randomized layouts, including sources whose cap hides the base
    rng = random.Random(109)
    for _ in range(15):
        rtopo = random_connected_topology(rng)
        origin = rng.choice(rtopo.sensor_ids())
        sc = make_scenario(rtopo, seed=rng.randint(0, 999),
                           horizon=2 * len(rtopo.nodes) + 6,
                           events=(SenseEvent(1, origin, 95.0),))
        rsim = Simulation(sc)
        rtr, rseen = run_sampled(rsim)
        rfl = rtr.floods[0]
        rhops = bfs_hops(brute_adjacency(rtopo.nodes, rtopo.radio_range),
                         origin)
        d_base = rhops[rtopo.base_id]
        if d_base <= rfl.hop_cap:
            assert rfl.base_receipt_tick == 1 + d_base
        else:
            assert rfl.base_receipt_tick is None
        stop = (rfl.base_receipt_tick
                if rfl.base_receipt_tick is not None else 10 ** 9)
        for t, s_set in rseen.flooded:
            if t > stop:
                break
            r = min(t - 1, rfl.hop_cap)
            ball = {nid for nid, d in rhops.items()
                    if d <= r and nid != rtopo.base_id}
            assert set(s_set) == ball, (t, origin)
        if rfl.completed_tick is not None:
            assert not any(n.mode == "S" for n in rsim.nodes.values())
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_end_to_end_reference_alarm():
    text = default16_scenario_text(seed=7, horizon=20,
                                   events=((2, 10, 70.0),))
    sim = Simulation(parse_scenario(text))
    tr = sim.run()
    assert tr.incidents[0].delivery_tick is not None
    want = "Affected NODE is ->NODE10 At Location (225 225)"
    assert tr.base_inbox[-1][1] == want
    base = tr.base
    assert base.message == want
    assert base.energy == math.inf
    assert base.pos == (150.0, 450.0)
    assert (base.flag1, base.flag2, base.mode) == (True, False, "S")


def test_criterion_11_byte_identical_reruns(tmp_path):
    names = ("trace.txt", "ledger.csv", "energy_diff.csv",
             "paths.csv", "summary.txt")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--scenario", str(SCN), "--out", str(a)]) == 0
    assert cli_main(["--scenario", str(SCN), "--out", str(b)]) == 0
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    sa, sb = tmp_path / "sa", tmp_path / "sb"
    sweep = ["--sweep", "13,2,9"]
    assert cli_main(["--scenario", str(SCN), "--out", str(sa)] + sweep) == 0
    assert cli_main(["--scenario", str(SCN), "--out", str(sb)] + sweep) == 0
    sweep_names = ("trace.txt", "energy_diff.csv", "paths.csv", "summary.txt",
                   "ledger_irregular1.csv", "ledger_irregular2.csv",
                   "ledger_irregular3.csv")
    for name in sweep_names:
        assert (sa / name).read_bytes() == (sb / name).read_bytes(), name
