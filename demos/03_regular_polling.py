"""Quiet-network behavior: alternating roles and the polling cost law.

Roughly half the sensors start as Q (query) nodes, chosen as a maximal
independent set so no two Q nodes are in radio range and every C node
can hear at least one.  Each tick every Q node broadcasts one status
query and everyone swaps roles, so each node pays one unit for its own
query plus one per query heard.
"""

from collections import defaultdict

from qcs_sim import Simulation, default16_scenario_text, parse_scenario

sc = parse_scenario(default16_scenario_text(seed=7, horizon=20))
sim = Simulation(sc)
# step by hand to see each sensor's role at the start of every tick
roles = []
while sim.tick < sc.horizon:
    roles.append({nid: n.mode for nid, n in sim.nodes.items()})
    sim.step()
trace = sim.run()

q0 = sorted(n for n, m in roles[0].items() if m == "Q")
print(f"initial Q set ({len(q0)} of 15 sensors): {q0}")
print()

print("roles by tick (sensors 1..15)")
for t in (0, 1, 2, 3):
    row = " ".join(roles[t][n] for n in range(1, 16))
    print(f"  t={t}: {row}")
print()

print("tick 0 queries")
for ev in trace.packet_events:
    if ev.tick > 0:
        break
    heard = ",".join(str(r) for r in ev.receivers)
    print(f"  node {ev.src:>2} -> heard by {heard}")
print()

# the ledger backs the cost law: one unit sent, one per query heard
per_node = defaultdict(lambda: defaultdict(int))
for e in sim.ledger.entries:
    if e.tick == 0:
        per_node[e.node_id][e.cause] += e.debit
print("tick 0 debits")
for nid in sorted(per_node):
    parts = ", ".join(f"{c}={v}" for c, v in sorted(per_node[nid].items()))
    print(f"  node {nid:>2}: {parts}")
print()

print(f"base station after 20 quiet ticks: {trace.base.message!r}")
total = sim.ledger.total_consumed()
print(f"network spent {total} units, {total / 20:.1f} per tick")
