"""Wire format: fixed sizes, header layout, field codecs, guard rails."""

from __future__ import annotations

import math
import random

import pytest

from qcs_sim.packet import (
    HEADER_SIZE,
    QUERY_ACK_SIZE,
    SOURCE_SIZE,
    Flags,
    Packet,
    PacketError,
    PacketKind,
    affected_message,
    decode,
    encode,
    make_ack,
    make_query,
    make_source,
    peek_flags,
)


def test_sizes_are_fixed():
    assert HEADER_SIZE == 4
    assert len(encode(make_query(1))) == QUERY_ACK_SIZE == 24
    assert len(encode(make_ack(2, 100, (0, 0)))) == 24
    assert len(encode(make_source(3, (0, 0), 100, "x"))) == SOURCE_SIZE == 64


def test_header_byte_layout():
    pkt = make_source(5, (1.0, 2.0), 77, "hello", hop_count=9,
                      devastating=True)
    raw = encode(pkt)
    # byte 0: 0 0 0 0 k k f1 f2
    assert raw[0] == (PacketKind.SOURCE << 2) | (1 << 1) | 1
    assert raw[1] == 5       # source id
    assert raw[2] == 9       # hop count
    assert raw[3] == 0       # reserved
    q = encode(make_query(7))
    assert q[0] == (PacketKind.QUERY << 2)
    a = encode(make_ack(8, 10, (0, 0)))
    assert a[0] == (PacketKind.ACK << 2)


def test_roundtrip_preserves_everything():
    rng = random.Random(42)
    for _ in range(300):
        kind = rng.choice(list(PacketKind))
        flag1 = rng.random() < 0.5
        flag2 = flag1 and rng.random() < 0.5
        loc = (rng.randint(0, 4095) + rng.randint(0, 15) / 16,
               rng.randint(0, 4095) + rng.randint(0, 15) / 16)
        energy = rng.choice([math.inf, rng.randint(0, 2 ** 32 - 2)])
        cap = 52 if kind == PacketKind.SOURCE else 12
        msg = "".join(rng.choice("abcXYZ 0123") for _ in range(rng.randint(0, cap)))
        pkt = Packet(kind=kind, flags=Flags(flag1, flag2),
                     src=rng.randint(0, 255), hop_count=rng.randint(0, 255),
                     loc=loc, energy=energy, message=msg)
        assert decode(encode(pkt)) == pkt


def test_coordinates_encode_in_sixteenths():
    pkt = make_ack(1, 0, (3.25, 7.5))
    out = decode(encode(pkt))
    assert out.loc == (3.25, 7.5)
    raw = encode(pkt)
    x16 = int.from_bytes(raw[4:6], "big")
    assert x16 == 52  # 3.25 * 16


def test_unrepresentable_coordinate_rejected():
    with pytest.raises(PacketError):
        encode(make_ack(1, 0, (0.1, 0.0)))
    with pytest.raises(PacketError):
        encode(make_ack(1, 0, (4096.0, 0.0)))  # beyond u16 sixteenths


def test_energy_infinity_uses_sentinel():
    raw = encode(make_ack(1, math.inf, (0, 0)))
    assert raw[8:12] == b"\xff\xff\xff\xff"
    assert decode(raw).energy == math.inf
    raw2 = encode(make_ack(1, 2 ** 32 - 2, (0, 0)))
    assert decode(raw2).energy == 2 ** 32 - 2


def test_energy_must_be_integral_or_inf():
    with pytest.raises(PacketError):
        encode(make_ack(1, 10.5, (0, 0)))
    with pytest.raises(PacketError):
        encode(make_ack(1, -1, (0, 0)))


def test_message_padding_strips_cleanly():
    pkt = make_source(1, (0, 0), 5, "short")
    raw = encode(pkt)
    assert raw[12:].rstrip(b"\x00") == b"short"
    assert decode(raw).message == "short"
    empty = decode(encode(make_query(1)))
    assert empty.message == ""


def test_message_limits():
    encode(make_source(1, (0, 0), 5, "a" * 52))  # fits exactly
    with pytest.raises(PacketError):
        encode(make_source(1, (0, 0), 5, "a" * 53))
    with pytest.raises(PacketError):
        encode(Packet(PacketKind.ACK, Flags(), 1, 0, (0, 0), 5, "b" * 13))
    with pytest.raises(PacketError):
        encode(make_source(1, (0, 0), 5, "nul\x00byte"))


def test_flag2_requires_flag1():
    with pytest.raises(PacketError):
        Flags(flag1=False, flag2=True)
    assert make_query(1, flag1=True).flags == Flags(True, False)
    assert make_source(1, (0, 0), 5, "m", devastating=True).flags == Flags(True, True)
    assert make_ack(1, 5, (0, 0)).flags == Flags()


def _typed(pkt: Packet) -> list[tuple[type, object]]:
    """Each field's type and value in order: QUERY == 0 as an IntEnum, so
    a swap of kind and a zero hop count shows only in the types."""
    return [(type(v), v) for v in pkt]


def test_builders_fill_each_field_in_its_place():
    """Every field holds a different value, so a builder that put any
    two positional fields in each other's place fails here."""
    loc = (1.5, 2.5)
    built = {
        "make_query": (make_query(7, flag1=True, loc=loc, energy=50),
                       Packet(kind=PacketKind.QUERY, flags=Flags(True), src=7,
                              hop_count=0, loc=loc, energy=50, message="")),
        "make_ack": (make_ack(7, 50, loc),
                     Packet(kind=PacketKind.ACK, flags=Flags(), src=7,
                            hop_count=0, loc=loc, energy=50, message="")),
        "make_source": (make_source(7, loc, 50, "m", hop_count=9, devastating=True),
                        Packet(kind=PacketKind.SOURCE, flags=Flags(True, True), src=7,
                               hop_count=9, loc=loc, energy=50, message="m")),
    }
    sent = Packet(kind=PacketKind.SOURCE, flags=Flags(True), src=7, hop_count=9,
                  loc=loc, energy=50, message="m")
    built["decode"] = (decode(encode(sent)), sent)
    for name, (got, want) in built.items():
        assert _typed(got) == _typed(want), name
        assert type(got) is Packet, name
        with pytest.raises(AttributeError):
            got.src = 8


def test_decode_rejects_bad_input():
    good = bytearray(encode(make_query(1)))
    with pytest.raises(PacketError):
        decode(bytes(good[:-1]))            # truncated
    with pytest.raises(PacketError):
        decode(bytes(good) + b"\x00")       # oversize
    tag3 = bytearray(good)
    tag3[0] = 3 << 2
    with pytest.raises(PacketError):
        decode(bytes(tag3))                 # unknown kind
    resv = bytearray(good)
    resv[0] |= 0x80
    with pytest.raises(PacketError):
        decode(bytes(resv))                 # reserved bits set
    fl = bytearray(good)
    fl[0] = (PacketKind.QUERY << 2) | 1     # flag2 without flag1
    with pytest.raises(PacketError):
        decode(bytes(fl))
    # a source-kind tag on a 24-byte body is a length error
    wrongkind = bytearray(good)
    wrongkind[0] = PacketKind.SOURCE << 2 | 2
    with pytest.raises(PacketError):
        decode(bytes(wrongkind))
    byte3 = bytearray(good)
    byte3[3] = 1
    with pytest.raises(PacketError):
        decode(bytes(byte3))                # reserved byte 3 set
    utf = bytearray(good)
    utf[12] = 0xFF
    with pytest.raises(PacketError):
        decode(bytes(utf))                  # message not UTF-8
    nul = bytearray(good)
    nul[13] = ord("a")
    with pytest.raises(PacketError):
        decode(bytes(nul))                  # NUL before the padding


def test_peek_flags_reads_only_header():
    pkt = make_source(9, (5, 6), 70, "alarm", devastating=True)
    kind, flags = peek_flags(encode(pkt)[:4])
    assert kind == PacketKind.SOURCE
    assert flags == Flags(True, True)
    kind2, flags2 = peek_flags(encode(make_query(1)))
    assert (kind2, flags2.flag1, flags2.flag2) == (PacketKind.QUERY, False, False)
    with pytest.raises(PacketError):
        peek_flags(b"\x01")


def test_src_and_hop_must_fit_a_byte():
    with pytest.raises(PacketError):
        encode(make_query(256))
    with pytest.raises(PacketError):
        encode(make_source(1, (0, 0), 5, "x", hop_count=300))


def test_alarm_text_format():
    assert (affected_message(10, (225.0, 225.0))
            == "Affected NODE is ->NODE10 At Location (225 225)")
    assert (affected_message(3, (75.5, 0.0))
            == "Affected NODE is ->NODE3 At Location (75.5 0)")


def test_roundtrip_throughput():
    # encoding must stay cheap: a thousand roundtrips well under a second
    import time
    pkts = [make_source(i % 200, (i % 100, i % 50), i, f"msg{i}")
            for i in range(1000)]
    t0 = time.perf_counter()
    for pkt in pkts:
        assert decode(encode(pkt)) == pkt
    assert time.perf_counter() - t0 < 1.0
