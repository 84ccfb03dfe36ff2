"""A devastating reading floods the whole network.

When node 4 senses a reading past the devastating threshold it stops
forwarding politely and starts shouting: every infected node
rebroadcasts the alarm each tick, so the set of alarmed nodes grows
as a breadth-first ball around the origin.  Hop counts are capped at
half the network size; nodes at the cap stay silent so the flood dies
out instead of echoing forever.  Once the base hears the alarm it
runs a reset wave outward, one graph layer per tick, until everyone
is back to normal polling.
"""

from qcs_sim import Simulation, default16_scenario_text, parse_scenario

sc = parse_scenario(default16_scenario_text(
    seed=7, horizon=32, events=((2, 4, 95.0),),
))
sim = Simulation(sc)
# step by hand to see which sensors are in S at the end of every tick,
# and who is alarmed at the end of every flood tick
in_s = {}
alarmed = []
while sim.tick < sc.horizon:
    sim.step()
    tick = sim.tick - 1
    in_s[tick] = {nid for nid, n in sim.nodes.items()
                  if n.mode == "S" and not n.is_base}
    if sim.active_flood is not None:
        alarmed.append((tick, sorted(
            nid for nid in in_s[tick] if sim.nodes[nid].flag2)))
trace = sim.run()

flood = trace.floods[0]
print(f"flood origins: {flood.origins}")
print(f"hop cap: {flood.hop_cap} (half of {len(sc.topology.nodes)} nodes)")
print()

print("alarmed set by tick (breadth-first ball around node 4)")
for tick, members in alarmed:
    print(f"  t={tick:>2}: {len(members):>2} alarmed  {members}")
print()

receipt = flood.base_receipt_tick
print(f"base heard the flood at t={receipt} "
      f"(graph distance from node 4 to base is {receipt - flood.origins[0][0]})")

never = sorted(set(sc.topology.sensor_ids()) - set(flood.infected_at))
print(f"never infected: {never} (outside the ball when broadcasts stopped)")
print()

print("reset wave, one graph layer per tick")
# the wave resets every S node it reaches, so the nodes that leave S in a
# tick are that tick's step of the wave
for tick in range(receipt + 1, flood.completed_tick + 1):
    left = sorted(in_s[tick - 1] - in_s[tick])
    print(f"  t={tick:>2}: depth {tick - receipt} -> nodes {left}")
print()

print(f"flood completed at t={flood.completed_tick}; "
      f"base message cleared, polling resumes")
s_left = [nid for nid, n in sim.nodes.items() if n.mode == "S"]
print(f"alarmed nodes at end of run: {s_left!r}")
