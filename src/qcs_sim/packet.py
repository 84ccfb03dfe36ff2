"""Bit-exact packet codec.

Every packet is a fixed-width big-endian record:

    header, 4 bytes:
        byte 0   low nibble: 2-bit kind tag, flag1 bit, flag2 bit
        byte 1   sender node id (unsigned 8-bit)
        byte 2   hop count (unsigned 8-bit, meaningful for flood sources)
        byte 3   reserved, zero
    body:
        x, y     two unsigned 16-bit fixed-point field units (1/16 step)
        energy   unsigned 32-bit, 0xFFFFFFFF encodes the base's infinite supply
        message  zero-padded text, 12 bytes for query/ack, 52 for source

Totals: query/ack 24 bytes, source 64 bytes.  The flags are readable
from the first four bytes alone, so a receiver can dispatch on them
without decoding the body.

In memory a ``Packet`` is an immutable ``NamedTuple`` of those fields.
Its builders (``make_query``, ``make_ack``, ``make_source`` and
``decode``) build it positionally with ``tuple.__new__``, without the
Python-level ``__new__`` frame of a keyword call: an alarm-forwarding
round builds its query, one ack per replier and its handover.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

from .numtext import fmt_num


HEADER_SIZE = 4
QUERY_ACK_SIZE = 24
SOURCE_SIZE = 64

ENERGY_INF_WIRE = 0xFFFFFFFF

_COORD_STEP = 16  # fixed-point denominator for 16-bit coordinates


class PacketError(ValueError):
    """Raised on malformed packets or unencodable field values."""


class PacketKind(IntEnum):
    QUERY = 0
    ACK = 1
    SOURCE = 2

    @property
    def size(self) -> int:
        """Wire size in bytes: sources are long, queries and acks short."""
        return SOURCE_SIZE if self == PacketKind.SOURCE else QUERY_ACK_SIZE


#: the kinds read once: a module global is cheaper than the enum class's
#: attribute on every packet the builders make
_QUERY, _ACK, _SOURCE = PacketKind.QUERY, PacketKind.ACK, PacketKind.SOURCE


@dataclass(frozen=True)
class Flags:
    """flag1 marks an irregular alarm, flag2 a devastating one.

    flag2 never appears without flag1; a devastating situation is a
    special case of an irregular one.
    """

    flag1: bool = False
    flag2: bool = False

    def __post_init__(self):
        if self.flag2 and not self.flag1:
            raise PacketError("flag2 set without flag1")


class Packet(NamedTuple):
    kind: PacketKind
    flags: Flags
    src: int
    hop_count: int
    loc: tuple[float, float]
    energy: float  # non-negative int-valued, or math.inf for the base
    message: str = ""


#: builds a Packet from its seven fields in order, without a __new__ frame
_new_packet = tuple.__new__


def message_cap(kind: PacketKind) -> int:
    return kind.size - HEADER_SIZE - 8  # after x, y and energy: 12 or 52


def encode_coord(v: float) -> int:
    scaled = v * _COORD_STEP
    iv = round(scaled)
    if iv != scaled:
        raise PacketError(f"coordinate {v} not representable in 1/{_COORD_STEP} units")
    if not 0 <= iv <= 0xFFFF:
        raise PacketError(f"coordinate {v} out of the encodable range")
    return iv


def _encode_energy(e: float) -> int:
    if e == math.inf:
        return ENERGY_INF_WIRE
    if not isinstance(e, int) or isinstance(e, bool):
        raise PacketError(f"finite energy must be an int, got {e!r}")
    if not 0 <= e < ENERGY_INF_WIRE:
        raise PacketError(f"energy {e} out of the encodable range")
    return e


def encode(p: Packet) -> bytes:
    """Serialize a packet; the result is 24 or 64 bytes by kind."""
    if not 0 <= p.src <= 0xFF:
        raise PacketError(f"node id {p.src} does not fit the 8-bit src field")
    if not 0 <= p.hop_count <= 0xFF:
        raise PacketError(f"hop count {p.hop_count} does not fit 8 bits")
    msg = p.message.encode("utf-8")
    cap = message_cap(p.kind)
    if len(msg) > cap:
        raise PacketError(f"message of {len(msg)} bytes exceeds the {cap}-byte field")
    if b"\x00" in msg:
        raise PacketError("message must not contain NUL bytes")
    b0 = (int(p.kind) << 2) | (int(p.flags.flag1) << 1) | int(p.flags.flag2)
    header = struct.pack(">BBBB", b0, p.src, p.hop_count, 0)
    body = struct.pack(
        ">HHI",
        encode_coord(p.loc[0]),
        encode_coord(p.loc[1]),
        _encode_energy(p.energy),
    )
    return header + body + msg.ljust(cap, b"\x00")


def peek_flags(data: bytes) -> tuple[PacketKind, Flags]:
    """Read kind and flags from the first 4 bytes without touching the body."""
    if len(data) < HEADER_SIZE:
        raise PacketError(f"need at least {HEADER_SIZE} bytes, got {len(data)}")
    b0 = data[0]
    if b0 & 0xF0:
        raise PacketError(f"reserved header bits set in byte 0 ({b0:#04x})")
    tag = (b0 >> 2) & 0b11
    try:
        kind = PacketKind(tag)
    except ValueError:
        raise PacketError(f"unknown packet kind tag {tag}") from None
    return kind, Flags(bool(b0 & 0b10), bool(b0 & 0b01))


def decode(data: bytes) -> Packet:
    """Parse wire bytes back into a Packet; inverse of encode for valid input."""
    kind, flags = peek_flags(data)
    expected = kind.size
    if len(data) != expected:
        raise PacketError(f"{kind.name} packet must be {expected} bytes, got {len(data)}")
    src = data[1]
    hop = data[2]
    if data[3]:
        raise PacketError(f"reserved header byte 3 is not zero ({data[3]:#04x})")
    x16, y16, e32 = struct.unpack(">HHI", data[4:12])
    energy = math.inf if e32 == ENERGY_INF_WIRE else e32
    msg = data[12:].rstrip(b"\x00")
    if b"\x00" in msg:
        raise PacketError("message holds a NUL byte before its padding")
    try:
        message = msg.decode("utf-8")
    except UnicodeDecodeError as err:
        raise PacketError(f"message is not valid UTF-8: {err.reason}") from None
    return _new_packet(Packet, (kind, flags, src, hop, (x16 / _COORD_STEP, y16 / _COORD_STEP),
                                energy, message))


def affected_message(node_id: int, loc: tuple[float, float]) -> str:
    """Alarm text naming the originally affected node and its location."""
    return f"Affected NODE is ->NODE{node_id} At Location ({fmt_num(loc[0])} {fmt_num(loc[1])})"


#: the three legal flag pairs, built once; Flags is frozen, so packets share them
_FLAGS = {(False, False): Flags(), (True, False): Flags(True), (True, True): Flags(True, True)}


def make_query(src: int, flag1: bool = False, loc: tuple[float, float] = (0.0, 0.0),
               energy: float = 0) -> Packet:
    return _new_packet(Packet, (_QUERY, _FLAGS[flag1, False], src, 0, loc, energy, ""))


def make_ack(src: int, energy: float, loc: tuple[float, float]) -> Packet:
    return _new_packet(Packet, (_ACK, _FLAGS[False, False], src, 0, loc, energy, ""))


def make_source(src: int, loc: tuple[float, float], energy: float, message: str,
                hop_count: int = 0, devastating: bool = False) -> Packet:
    return _new_packet(Packet, (_SOURCE, _FLAGS[True, bool(devastating)], src,
                                hop_count, loc, energy, message))
