"""Energy accounting: the price table, lifetime math, and sweep reports.

Runs one forwarding incident per origin node, collects the hop and
comparison counts, and prints the same table the command line tool
writes to paths.csv.  Also shows the radio cost model in millijoules
and the battery lifetime formula.
"""

import tempfile
from pathlib import Path

from qcs_sim import (
    PacketKind,
    Simulation,
    default16_scenario_text,
    joules,
    lifetime,
    parse_scenario,
    sweep_scenario,
)
from qcs_sim.energy import PRICES
from qcs_sim.metrics import write_paths_csv

# radio prices: a short packet event costs 1 unit, a long one 2; the
# table prices every ledger cause, so one forwarding hop costs its holder
# hop_query + acks * ack_recv + source_send + reset_recv = 6 + acks
print("price table")
for cause, units in PRICES.items():
    print(f"  {cause:>14}: {units} unit{'s' if units > 1 else ''}")
for kind in (PacketKind.QUERY, PacketKind.SOURCE):
    print(f"  one {kind.size}B packet event = {joules(kind.size):.4f} mJ")
print()

# a battery of E units polling at e1 per period lasts floor(E/(e1+ep))
print("lifetime: battery 4000, polling cost 1/period ->",
      lifetime(4000.0, 1.0), "periods")
print("          with standby drain 0.25 ->",
      lifetime(4000.0, 1.0, 0.25), "periods")
print()

# one incident per origin, fresh network each time, each run derived the
# way the command line's --sweep derives it
origins = (13, 12, 15, 2, 14, 8, 9)
base_sc = parse_scenario(default16_scenario_text(seed=7, horizon=20))
rows = []
print("sweep: one forwarding incident per origin")
print(f"  {'origin':>6} {'path':>4} {'hops':>4} {'comparisons':>11} "
      f"{'ratio':>6}")
for i, origin in enumerate(origins, start=1):
    trace = Simulation(sweep_scenario(base_sc, i, origin)).run()
    rec = trace.incidents[0]
    nodes = len(rec.path)
    rows.append((f"irregular{i}", nodes, rec.comparisons))
    ratio = rec.comparisons / nodes
    print(f"  {origin:>6} {nodes:>4} {len(rec.hops):>4} "
          f"{rec.comparisons:>11} {ratio:>6.2f}")
print()

# the same table, serialized the way the CLI writes paths.csv
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "paths.csv"
    write_paths_csv(out, rows)
    print("paths.csv")
    print(out.read_text(encoding="utf-8"))
