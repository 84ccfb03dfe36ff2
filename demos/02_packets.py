"""The three packet kinds on the wire.

Query and Ack frames are 24 bytes, Source frames 64; the first header
byte carries the kind tag and the two alarm flags, so a receiver can
dispatch on urgency without parsing the body.  Costs follow the sizes:
one energy unit per short frame event, two per long one, and the
physical model prices a short send at 0.9724 mJ.  The price table
turns that into the units each ledger cause charges.
"""

import math

from qcs_sim import (
    PacketKind,
    decode,
    encode,
    joules,
    make_ack,
    make_query,
    make_source,
    peek_flags,
)
from qcs_sim.energy import PRICES


def show(label, pkt):
    raw = encode(pkt)
    head = " ".join(f"{b:02x}" for b in raw[:4])
    body = " ".join(f"{b:02x}" for b in raw[4:12])
    print(f"{label}: {len(raw)} bytes")
    print(f"  header  {head}")
    print(f"  body    {body} ... ({len(raw) - 12} more)")
    kind, flags = peek_flags(raw)
    print(f"  peeked  kind={kind.name} flag1={int(flags.flag1)} "
          f"flag2={int(flags.flag2)}")
    print(f"  decoded src={pkt.src} loc={pkt.loc} energy={pkt.energy} "
          f"message={pkt.message!r}")
    assert decode(raw) == pkt
    print()


show("status query", make_query(4, loc=(75.0, 75.0), energy=4507))
show("alarm query", make_query(10, flag1=True, loc=(225.0, 225.0),
                               energy=3210))
show("ack with credentials", make_ack(11, 3528, (300.0, 300.0)))
show("alarm handover",
     make_source(10, (225.0, 225.0), 3204,
                 "Affected NODE is ->NODE10 At Location (225 225)"))
show("devastating flood",
     make_source(4, (75.0, 75.0), 4496,
                 "Affected NODE is ->NODE4 At Location (75 75)",
                 hop_count=2, devastating=True))

# the base station reports unbounded energy; the wire uses a sentinel
inf_ack = make_ack(16, math.inf, (150.0, 450.0))
print(f"infinite energy on the wire: {encode(inf_ack)[8:12].hex()}")
print()

print("frame sizes")
for kind in PacketKind:
    print(f"  {kind.name:<6} {kind.size} bytes, {joules(kind.size):.4f} mJ per event")
print()

print("price table (units per ledger cause)")
for cause, units in PRICES.items():
    print(f"  {cause:<14} {units}")
