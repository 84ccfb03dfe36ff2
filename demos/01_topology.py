"""Building a field layout and reading its radio adjacency.

The bundled 16-node layout places sensors on a 300x500 field with a
110-unit radio range; two nodes are linked when they sit within range
of each other.  Run this to see the neighbor lists and hop distances
the other demos build on.
"""

from qcs_sim import default16_topology, parse_scenario

topo = default16_topology()

print(f"field {topo.field_size[0]:.0f}x{topo.field_size[1]:.0f}, "
      f"radio range {topo.radio_range:.0f}, base station node {topo.base_id}")
print(f"connected: {topo.is_connected()}")
print()

print("adjacency")
for nid in sorted(topo.nodes):
    tag = " (base)" if nid == topo.base_id else ""
    nbrs = ",".join(str(j) for j in topo.neighbors(nid))
    x, y = topo.nodes[nid]
    print(f"  node {nid:>2} at ({x:>3.0f},{y:>3.0f}){tag}: {nbrs}")
print()

# hop distance to the base, breadth first
hops = topo.base_hops
print("hops to base")
for nid in sorted(hops):
    print(f"  node {nid:>2}: {hops[nid]}")
print()

# the same structure can come from the [field] and [nodes] of scenario text
text = """\
[field]
width = 200
height = 100
radio_range = 110

[nodes]
1 0 0
2 100 0
3 200 0 base
"""
small = parse_scenario(text).topology
print(f"parsed layout: {len(small.nodes)} nodes, "
      f"node 2 hears {small.neighbors(2)}")
