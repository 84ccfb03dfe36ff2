"""Static network geometry: node positions, radio range, adjacency.

Coordinates are plain floats in field units.  Radio links compare
squared distances, so a pair sitting exactly at the radio range is
linked the same way on every platform (no sqrt rounding).  The alert
reach (``within``) compares ``dist``, a ``math.hypot``, and its
docstring argues why that is exact too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .packet import PacketError, PacketKind, affected_message, encode_coord, message_cap

Position = tuple[float, float]
NodeId = int


def dist(a: Position, b: Position) -> float:
    """Euclidean distance between two positions."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class Topology:
    """Immutable-by-convention map of node positions plus the base station.

    nodes: id -> (x, y), ids positive ints, exactly one of them the base.
    radio_range: symmetric reach; a pair at exactly this distance is in range.
    field_size: (width, height); all positions must lie inside.
    Every node must fit the wire: an 8-bit id, coordinates the 16-bit
    fields carry, and an alarm text that fits a source packet.
    """

    nodes: dict[NodeId, Position]
    base_id: NodeId
    radio_range: float
    field_size: tuple[float, float]

    def __post_init__(self):
        if self.base_id not in self.nodes:
            raise ValueError(f"base id {self.base_id} not among nodes")
        if not 0 < self.radio_range < math.inf:
            raise ValueError(f"radio_range must be positive and finite, not {self.radio_range!r}")
        w, h = self.field_size
        cap = message_cap(PacketKind.SOURCE)
        for nid, (x, y) in self.nodes.items():
            if not isinstance(nid, int) or nid < 1:
                raise ValueError(f"node id must be a positive int, got {nid!r}")
            if nid > 0xFF:
                raise ValueError(f"node id {nid} does not fit the 8-bit src field (1..255)")
            if not (0 <= x <= w and 0 <= y <= h):
                raise ValueError(f"node {nid} at ({x}, {y}) lies outside the {w}x{h} field")
            try:
                encode_coord(x), encode_coord(y)
            except PacketError as err:
                raise ValueError(f"node {nid} at ({x}, {y}): {err}") from None
            size = len(affected_message(nid, (x, y)).encode("utf-8"))
            if size > cap:
                raise ValueError(f"node {nid}: its alarm text of {size} bytes"
                                 f" exceeds the {cap}-byte message field")
        self._adj = self._build_adjacency()

    def _build_adjacency(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Link each pair whose squared distance is at most the range's.

        Nodes are visited in (x, y, id) order, and each scans its
        successors only until the first with ``dx * dx > rr``.  The stop
        is exact: along the scan dx = x - xi never shrinks, rounding and
        squaring are monotone, so fl(dx * dx) never shrinks either, and a
        linked pair needs fl(dx * dx) <= fl(dx * dx + dy * dy) <= rr.
        Swapping a pair's ends only negates dx and dy, so each pair gets
        the same verdict as a test in any other order; sorting each list
        leaves it ascending by id.
        """
        rr = self.radio_range * self.radio_range
        order = sorted((x, y, i) for i, (x, y) in self.nodes.items())
        near: dict[NodeId, list[NodeId]] = {i: [] for i in sorted(self.nodes)}
        for a, (xi, yi, i) in enumerate(order):
            mine = near[i]
            for x, y, j in order[a + 1:]:  # a C-level copy: cheaper than indexing
                dx = x - xi
                dx2 = dx * dx
                if dx2 > rr:
                    break
                dy = y - yi
                if dx2 + dy * dy <= rr:
                    mine.append(j)
                    near[j].append(i)
        return {i: tuple(sorted(js)) for i, js in near.items()}

    def neighbors(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """Ids within radio range of node_id (boundary inclusive), ascending."""
        return self._adj[node_id]

    @cached_property
    def _by_x(self) -> tuple[list[NodeId], dict[NodeId, int]]:
        """Node ids in position order, so x never falls along the list,
        and each id's place in it; found once and shared, like base_hops."""
        order = sorted(self.nodes, key=self.nodes.__getitem__)
        return order, {i: k for k, i in enumerate(order)}

    def within(self, node_id: NodeId, reach: float) -> tuple[NodeId, ...]:
        """Ids of the other nodes with ``dist(p, q) <= reach``, ascending.

        The scan walks outward from node_id in x order and stops on each
        side at the first node with ``|dx| > reach``.  The stop is exact:
        ``dist`` is ``math.hypot(dx, dy)`` with the same dx, whose true
        value is at least ``|dx|``; CPython 3.10 and later compute hypot
        to under 1 ulp, and ``|dx|`` is itself a float, so the computed
        distance is never below ``|dx|`` either.  Along each side ``|dx|``
        never shrinks, since rounding is monotone, so every node beyond
        the stop is out of reach too.
        """
        order, place = self._by_x
        k = place[node_id]
        nodes = self.nodes
        p = nodes[node_id]
        found = []
        for side in (order[k + 1:], reversed(order[:k])):
            for j in side:
                q = nodes[j]
                if abs(p[0] - q[0]) > reach:
                    break
                if dist(p, q) <= reach:
                    found.append(j)
        return tuple(sorted(found))

    def sensor_ids(self) -> list[NodeId]:
        """All node ids except the base, ascending."""
        return [i for i in sorted(self.nodes) if i != self.base_id]

    @cached_property
    def base_hops(self) -> dict[NodeId, int]:
        """Hop count from the base to every node it reaches, breadth first;
        found once and shared, so callers must not change it."""
        hops = {self.base_id: 0}
        frontier = [self.base_id]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in hops:
                        hops[v] = d
                        nxt.append(v)
            frontier = nxt
        return hops

    def is_connected(self) -> bool:
        """Whether the base reaches every node over the in-range graph."""
        return len(self.base_hops) == len(self.nodes)
