"""An irregular reading travels hop by hop to the base station.

Node 10's reading crosses the irregular threshold at tick 2.  Each
tick the alarm holder broadcasts a flagged query, collects acks with
each neighbor's energy and position, and hands the original alarm to
the eligible replier nearest the base.  The handover costs the holder
6 + (acks heard) units and ends with a RESET that restores its old
role.
"""

from qcs_sim import Simulation, default16_scenario_text, parse_scenario
from qcs_sim.metrics import render_base_record

sc = parse_scenario(default16_scenario_text(
    seed=7, horizon=20, events=((2, 10, 70.0),),
))
sim = Simulation(sc)
trace = sim.run()

rec = trace.incidents[0]
print(f"incident {rec.incident_id}: origin node {rec.origin}, "
      f"sensed at t={rec.start_tick}")
print(f"alarm text: {rec.message!r}")
print()

print("hop by hop")
for hop in rec.hops:
    repliers = ", ".join(f"{j}@{e:.0f}" for j, e in hop.repliers)
    dest = "base" if hop.chosen == sc.topology.base_id else f"node {hop.chosen}"
    print(f"  t={hop.tick}: node {hop.holder:>2} heard [{repliers}] "
          f"-> {dest}")
print()

print(f"path: {' -> '.join(str(n) for n in rec.path)}")
print(f"delivered at t={rec.delivery_tick} after "
      f"{len(rec.hops)} hops, {rec.comparisons} comparisons")
print()

# every hop's cost itemizes to 6 + acks heard
print("holder costs")
for hop in rec.hops:
    rows = [e for e in sim.ledger.entries
            if e.tick == hop.tick and e.node_id == hop.holder]
    items = ", ".join(f"{e.cause}={e.debit}" for e in rows)
    total = sum(e.debit for e in rows)
    print(f"  t={hop.tick} node {hop.holder:>2}: {items} "
          f"(total {total} = 6 + {hop.replies})")
print()

print("base station record")
print("\n".join(render_base_record(trace.base)))
