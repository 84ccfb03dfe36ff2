"""Geometry, adjacency, and layout-file parsing."""

from __future__ import annotations

import math
import random

import pytest

from qcs_sim import CostModel, Simulation, Topology, default16_topology, parse_scenario
from qcs_sim.energy import ISOLATION_MULTIPLIER
from qcs_sim.packet import PacketKind, affected_message, message_cap
from qcs_sim.record import PacketEvent
from qcs_sim.topology import dist

from conftest import brute_adjacency, make_scenario, random_connected_topology


def test_dist_is_euclidean():
    assert dist((0, 0), (3, 4)) == 5.0
    assert dist((1, 1), (1, 1)) == 0.0


def test_neighbors_sorted_and_symmetric():
    topo = default16_topology()
    for nid in topo.nodes:
        nbrs = topo.neighbors(nid)
        assert list(nbrs) == sorted(nbrs)
        for j in nbrs:
            assert nid in topo.neighbors(j)


def test_link_boundary_is_inclusive():
    topo = Topology(
        nodes={1: (0.0, 0.0), 2: (110.0, 0.0), 3: (221.0, 0.0)},
        base_id=1,
        radio_range=110.0,
        field_size=(300.0, 200.0),
    )
    assert topo.neighbors(1) == (2,)   # exactly at range: linked
    assert topo.neighbors(3) == ()     # one unit past range: not linked
    # the links come from the positions alone; no caller can hand them in
    with pytest.raises(TypeError):
        Topology(nodes=topo.nodes, base_id=1, radio_range=110.0,
                 field_size=(300.0, 200.0), _adj={1: (3,), 2: (), 3: (1,)})


def test_adjacency_matches_brute_force():
    rng = random.Random(1)
    for _ in range(25):
        topo = random_connected_topology(rng)
        want = brute_adjacency(topo.nodes, topo.radio_range)
        for nid in topo.nodes:
            assert set(topo.neighbors(nid)) == want[nid]


def exact_adjacency(
    nodes: dict[int, tuple[float, float]], radio_range: float
) -> dict[int, tuple[int, ...]]:
    """Every pair tested once in id order by the squared-distance rule."""
    rr = radio_range * radio_range
    ids = sorted(nodes)
    near: dict[int, list[int]] = {i: [] for i in ids}
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            dx = nodes[i][0] - nodes[j][0]
            dy = nodes[i][1] - nodes[j][1]
            if dx * dx + dy * dy <= rr:
                near[i].append(j)
                near[j].append(i)
    return {i: tuple(js) for i, js in near.items()}


def assert_exact_adjacency(nodes, radio_range, field_size=(64.0, 64.0)):
    topo = Topology(nodes=nodes, base_id=min(nodes), radio_range=radio_range,
                    field_size=field_size)
    want = exact_adjacency(nodes, radio_range)
    for nid in nodes:
        assert topo.neighbors(nid) == want[nid], (nid, radio_range)


def random_fine_layout(rng: random.Random, n: int, side: int) -> dict[int, tuple[float, float]]:
    """n nodes on the 1/16 grid of a side x side field, each redrawn
    until its alarm text fits the wire."""
    cap = message_cap(PacketKind.SOURCE)
    nodes = {}
    for nid in range(1, n + 1):
        while True:
            pos = (rng.randint(0, 16 * side) / 16, rng.randint(0, 16 * side) / 16)
            if len(affected_message(nid, pos).encode("utf-8")) <= cap:
                break
        nodes[nid] = pos
    return nodes


@pytest.mark.parametrize("radio_range, side", [(3.0, 24), (2.3, 24), (0.5, 8), (0.05, 3)])
def test_adjacency_matches_the_squared_rule_exactly(radio_range, side):
    # 0.05 is below the 1/16 grid step, so only nodes at one position link
    rng = random.Random(f"adjacency:{radio_range}")
    for n in (2, 17, 90, 170, 255, 255):
        assert_exact_adjacency(random_fine_layout(rng, n, side), radio_range,
                               field_size=(float(side), float(side)))


def test_adjacency_at_the_boundary_and_on_shared_positions():
    # exactly the range apart along x only: dx * dx == rr links
    assert_exact_adjacency({1: (0.0, 0.0), 2: (3.0, 0.0), 3: (6.0, 0.0)}, 3.0)
    # node 2 is the first at dx * dx == rr and is out of range; the scan
    # must go on to node 3, at the same x and in range
    assert_exact_adjacency({1: (0.0, 1.0), 2: (3.0, 0.0), 3: (3.0, 1.0)}, 3.0)
    # nodes sharing an x, and two nodes at one position
    column = {i: (5.0, float(i)) for i in range(1, 8)}
    assert_exact_adjacency({**column, 8: (5.0, 3.0), 9: (7.5, 3.0)}, 2.5)
    assert_exact_adjacency({1: (5.0, 5.0), 2: (5.0, 5.0), 3: (5.0625, 5.0)}, 0.05)


@pytest.mark.parametrize("reach, side", [(6.0, 24), (4.6, 24), (1.0, 8), (0.1, 3)])
def test_within_matches_the_all_nodes_scan(reach, side):
    # the nodes within a reach of a node are the receivers of its
    # lossless alert; batteries big enough that no alert empties one
    rng = random.Random(f"within:{reach}")
    costs = CostModel(threshold=0, init_min=10_000_000, init_max=10_000_000)
    for n in (2, 17, 90, 170, 255):
        nodes = random_fine_layout(rng, n, side)
        topo = Topology(nodes=nodes, base_id=min(nodes),
                        radio_range=reach / ISOLATION_MULTIPLIER,
                        field_size=(float(side), float(side)))
        sim = Simulation(make_scenario(topo, costs=costs))
        r = ISOLATION_MULTIPLIER * topo.radio_range
        for nid in topo.sensor_ids():
            p = nodes[nid]
            want = tuple(j for j in sorted(nodes) if j != nid and dist(p, nodes[j]) <= r)
            sim._broadcast_alert(sim.nodes[nid])
            ev = [e for e in sim.trace.records if isinstance(e, PacketEvent)][-1]
            assert (ev.note, ev.src, ev.receivers) == ("alert", nid, want), (nid, reach)


def test_sensor_ids_exclude_base():
    topo = default16_topology()
    assert topo.base_id == 16
    assert 16 not in topo.sensor_ids()
    assert len(topo.sensor_ids()) == 15


def test_is_connected():
    topo = default16_topology()
    assert topo.is_connected()
    split = Topology(
        nodes={1: (0.0, 0.0), 2: (50.0, 0.0), 3: (500.0, 500.0)},
        base_id=1,
        radio_range=110.0,
        field_size=(600.0, 600.0),
    )
    assert not split.is_connected()


def test_default16_is_the_published_shape():
    topo = default16_topology()
    assert topo.field_size == (300.0, 500.0)
    assert topo.radio_range == 110.0
    assert topo.nodes[16] == (150.0, 450.0)
    assert topo.neighbors(16) == (12, 14, 15)


def test_rejects_base_missing():
    with pytest.raises(ValueError):
        Topology(nodes={1: (0.0, 0.0)}, base_id=9,
                 radio_range=100.0, field_size=(10.0, 10.0))


def test_rejects_node_outside_field():
    with pytest.raises(ValueError):
        Topology(nodes={1: (0.0, 0.0), 2: (50.0, 5.0)}, base_id=1,
                 radio_range=100.0, field_size=(40.0, 40.0))


def test_rejects_node_id_above_one_byte():
    with pytest.raises(ValueError, match=r"node id 300 does not fit the 8-bit src field"):
        Topology(nodes={1: (0.0, 0.0), 300: (50.0, 0.0)}, base_id=300,
                 radio_range=100.0, field_size=(60.0, 10.0))
    Topology(nodes={1: (0.0, 0.0), 255: (50.0, 0.0)}, base_id=255,
             radio_range=100.0, field_size=(60.0, 10.0))


def test_rejects_node_the_wire_cannot_carry():
    # a layout built without scenario text gets the same wire checks
    with pytest.raises(ValueError, match=r"node 2 at \(33.3, 0.0\): coordinate 33.3 not"):
        Topology(nodes={1: (0.0, 0.0), 2: (33.3, 0.0)}, base_id=1,
                 radio_range=100.0, field_size=(60.0, 10.0))
    with pytest.raises(ValueError, match=r"node 12: its alarm text of 53 bytes"):
        Topology(nodes={1: (0.0, 0.0), 12: (1234.5, 2345.5)}, base_id=1,
                 radio_range=100.0, field_size=(3000.0, 3000.0))


def test_rejects_nonpositive_range():
    with pytest.raises(ValueError):
        Topology(nodes={1: (0.0, 0.0)}, base_id=1,
                 radio_range=0.0, field_size=(10.0, 10.0))


@pytest.mark.parametrize("radio_range", [math.nan, math.inf, -math.inf])
def test_rejects_nonfinite_range(radio_range):
    want = f"radio_range must be positive and finite, not {radio_range}"
    with pytest.raises(ValueError, match=want):
        Topology(nodes={1: (0.0, 0.0)}, base_id=1,
                 radio_range=radio_range, field_size=(10.0, 10.0))


LAYOUT = """\
; comment line
[field]
width = 300
height = 500
radio_range = 110

[nodes]
# id x y
1 0 0
2 225 0
16 150 450 base
"""


def test_load_layout_parses_nodes_and_field():
    topo = parse_scenario(LAYOUT).topology
    assert topo.base_id == 16
    assert topo.nodes[2] == (225.0, 0.0)
    assert topo.field_size == (300.0, 500.0)
    assert topo.radio_range == 110.0


def test_load_layout_radio_range_defaults_to_110():
    text = "[field]\nwidth = 300\nheight = 500\n[nodes]\n1 0 0 base\n"
    assert parse_scenario(text).topology.radio_range == 110.0


@pytest.mark.parametrize("bad", [
    "[field]\nwidth = 300\nheight = 500\n[nodes]\n1 0 0\n",         # no base
    "[field]\nwidth = 9\nheight = 9\n[nodes]\n1 0 0 base\n2 1 1 base\n",
    "[field]\nwidth = 9\nheight = 9\n[nodes]\n1 0 0 base\n1 2 2\n",  # dup id
    "[field]\nwidth = 9\nheight = 9\n[nodes]\n1 0 base\n",           # short row
    "[field]\nwidth = 9\nheight = 9\n[nodes]\n1 0 0 tower\n",        # bad tag
    "stray text\n[field]\nwidth = 9\nheight = 9\n[nodes]\n1 0 0 base\n",
    "[field]\nwidth = 9\n[nodes]\n1 0 0 base\n",                     # no height
])
def test_load_layout_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scenario(bad)
