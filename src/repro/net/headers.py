"""Wire formats for the demonstration protocols.

Ethernet, IPv4 and UDP each have one wire implementation, a prebound
``struct.Struct`` with a packer and a field reader (``pack_ip``/
``read_ip`` and the ETH and UDP pairs).  Every per-frame route reads and
writes these headers through them, as ints and ``bytes``.  The value
classes over them (``EthHeader``, ``IpHeader``, ``UdpHeader``) are built
only where a person or an ICMP error reads a header: ``repr``,
``parse_frame``, ICMP error quotes and echo replies.

The other headers are value classes with ``pack()`` / ``unpack()`` over
``struct``.  The MFLOW header is our rendering of the paper's
flow-control protocol: a sequence number for ordered-but-unreliable
delivery, a timestamp for RTT measurement ("MFLOW can measure the
round-trip latency by putting a timestamp in its header"), and the
advertised window ("MFLOW advertises the maximum sequence number that it
is willing to receive").
"""

from __future__ import annotations

import struct
from typing import ClassVar, Tuple

from .addresses import EthAddr, IpAddr
from .checksum import internet_checksum

# Ethertypes / protocol numbers
ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806
IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

# IP flags
IP_FLAG_MORE_FRAGMENTS = 0x1
IP_FLAG_DONT_FRAGMENT = 0x2

#: The flags in place in the flags/fragment-offset word, and the offset.
IP_MF = IP_FLAG_MORE_FRAGMENTS << 13
IP_DF = IP_FLAG_DONT_FRAGMENT << 13
IP_OFFSET_MASK = 0x1FFF

_ETH = struct.Struct("!6s6sH")
_IP = struct.Struct("!BBHHHBBHII")
_UDP = struct.Struct("!HHHH")

ETH_SIZE = _ETH.size
IP_SIZE = _IP.size
UDP_SIZE = _UDP.size

#: ``pack_eth(dst, src, ethertype)`` and ``read_eth(data, offset=0)``,
#: the MACs as 6-byte ``bytes``.
pack_eth, read_eth = _ETH.pack, _ETH.unpack_from
#: ``pack_udp(sport, dport, length, checksum)`` and its reader.
pack_udp, read_udp = _UDP.pack, _UDP.unpack_from

IpFields = Tuple[int, int, int, int, int, int, int]


def pack_ip(total_length: int, ident: int, flags_frag: int, ttl: int,
            proto: int, src: int, dst: int) -> bytes:
    """The 20-byte IPv4 header (no options) with its checksum.

    *flags_frag* is the flags/fragment-offset word (:data:`IP_MF`,
    :data:`IP_DF`, :data:`IP_OFFSET_MASK`); *src* and *dst* are the
    addresses as ints.  The arguments are :func:`read_ip`'s fields in
    its order, so ``pack_ip(*read_ip(header))`` re-packs a header.
    """
    head = _IP.pack(0x45, 0, total_length, ident, flags_frag, ttl, proto,
                    0, src, dst)
    return head[:10] + internet_checksum(head).to_bytes(2, "big") \
        + head[12:]


def read_ip(data: bytes, offset: int = 0) -> IpFields:
    """``(total_length, ident, flags_frag, ttl, proto, src, dst)`` of
    the IPv4 header at *offset*, the addresses as ints.

    Raises ``ValueError`` when the version nibble is not 4.
    """
    (ver_ihl, _tos, total_length, ident, flags_frag, ttl, proto, _cksum,
     src, dst) = _IP.unpack_from(data, offset)
    if ver_ihl >> 4 != 4:
        raise ValueError(f"not an IPv4 header (version {ver_ihl >> 4})")
    return total_length, ident, flags_frag, ttl, proto, src, dst


class EthHeader:
    """Ethernet II: dst(6) src(6) ethertype(2)."""

    SIZE: ClassVar[int] = ETH_SIZE

    __slots__ = ("dst", "src", "ethertype")

    def __init__(self, dst: EthAddr, src: EthAddr, ethertype: int):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype

    def pack(self) -> bytes:
        return pack_eth(self.dst.to_bytes(), self.src.to_bytes(),
                        self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthHeader":
        dst, src, ethertype = read_eth(data)
        return cls(EthAddr(dst), EthAddr(src), ethertype)

    def __repr__(self) -> str:
        return f"Eth({self.src}->{self.dst} type=0x{self.ethertype:04x})"


class IpHeader:
    """IPv4 without options: 20 bytes."""

    SIZE: ClassVar[int] = IP_SIZE

    __slots__ = ("total_length", "ident", "flags", "frag_offset", "ttl",
                 "proto", "src", "dst")

    def __init__(self, total_length: int, ident: int, proto: int,
                 src: IpAddr, dst: IpAddr, ttl: int = 64,
                 flags: int = 0, frag_offset: int = 0):
        self.total_length = total_length
        self.ident = ident
        self.flags = flags
        self.frag_offset = frag_offset  # in 8-byte units, per the RFC
        self.ttl = ttl
        self.proto = proto
        self.src = src
        self.dst = dst

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & IP_FLAG_MORE_FRAGMENTS)

    @property
    def dont_fragment(self) -> bool:
        """True when the sender forbids in-flight fragmentation (the
        DF bit path-MTU discovery rides on, RFC 1191)."""
        return bool(self.flags & IP_FLAG_DONT_FRAGMENT)

    @property
    def is_fragment(self) -> bool:
        """True for any packet that is part of a fragmented datagram."""
        return self.more_fragments or self.frag_offset != 0

    def pack(self) -> bytes:
        return pack_ip(self.total_length, self.ident,
                       (self.flags << 13) | (self.frag_offset
                                             & IP_OFFSET_MASK),
                       self.ttl, self.proto, self.src.to_int(),
                       self.dst.to_int())

    @classmethod
    def unpack(cls, data: bytes) -> "IpHeader":
        total_length, ident, flags_frag, ttl, proto, src, dst = \
            read_ip(data)
        return cls(total_length, ident, proto, IpAddr(src), IpAddr(dst),
                   ttl=ttl, flags=flags_frag >> 13,
                   frag_offset=flags_frag & IP_OFFSET_MASK)

    def __repr__(self) -> str:
        frag = f" frag@{self.frag_offset * 8}{'+' if self.more_fragments else ''}" \
            if self.is_fragment else ""
        return f"Ip({self.src}->{self.dst} proto={self.proto}{frag})"


class UdpHeader:
    """UDP: sport(2) dport(2) length(2) checksum(2)."""

    SIZE: ClassVar[int] = UDP_SIZE

    __slots__ = ("sport", "dport", "length", "checksum")

    def __init__(self, sport: int, dport: int, length: int, checksum: int = 0):
        self.sport = sport
        self.dport = dport
        self.length = length
        self.checksum = checksum

    def pack(self) -> bytes:
        return pack_udp(self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UdpHeader":
        return cls(*read_udp(data))

    def __repr__(self) -> str:
        return f"Udp({self.sport}->{self.dport} len={self.length})"


class IcmpHeader:
    """ICMP echo: type(1) code(1) cksum(2) id(2) seq(2)."""

    FORMAT: ClassVar[str] = "!BBHHH"
    SIZE: ClassVar[int] = struct.calcsize(FORMAT)

    ECHO_REQUEST = 8
    ECHO_REPLY = 0
    #: Destination Unreachable; with :data:`CODE_FRAG_NEEDED` it is the
    #: "Fragmentation Needed and DF set" error PMTUD listens for.  Per
    #: RFC 1191 the next-hop MTU rides in the last two header bytes —
    #: the field this simplified header calls ``seq``.
    DEST_UNREACH = 3
    CODE_FRAG_NEEDED = 4
    #: Time Exceeded (TTL expired in transit at a forwarding hop).
    TIME_EXCEEDED = 11

    #: How much of the offending datagram an ICMP error quotes: the IP
    #: header plus the first 8 payload bytes (RFC 792).
    ERROR_QUOTE_BYTES = 8

    __slots__ = ("icmp_type", "code", "ident", "seq")

    def __init__(self, icmp_type: int, ident: int, seq: int, code: int = 0):
        self.icmp_type = icmp_type
        self.code = code
        self.ident = ident
        self.seq = seq

    def pack(self) -> bytes:
        without = struct.pack(self.FORMAT, self.icmp_type, self.code, 0,
                              self.ident, self.seq)
        cksum = internet_checksum(without)
        return without[:2] + struct.pack("!H", cksum) + without[4:]

    @classmethod
    def unpack(cls, data: bytes) -> "IcmpHeader":
        icmp_type, code, _cksum, ident, seq = struct.unpack(
            cls.FORMAT, data[:cls.SIZE])
        return cls(icmp_type, ident, seq, code=code)

    def __repr__(self) -> str:
        kind = {8: "echo-req", 0: "echo-reply", 3: "dest-unreach",
                11: "time-exceeded"}.get(self.icmp_type,
                                         str(self.icmp_type))
        return f"Icmp({kind} id={self.ident} seq={self.seq})"


class TcpHeader:
    """Simplified TCP: sport(2) dport(2) seq(4) ack(4) flags(2) win(2)
    cksum(2).

    Unlike UDP's optional checksum, the TCP checksum is mandatory: it
    covers the header and the segment payload, so in-flight corruption is
    detected at the receiver and the damaged segment dies there — forcing
    the sender's retransmission machinery to repair the stream.
    """

    FORMAT: ClassVar[str] = "!HHIIHHH"
    SIZE: ClassVar[int] = struct.calcsize(FORMAT)

    FLAG_SYN = 0x02
    FLAG_ACK = 0x10
    FLAG_FIN = 0x01

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window",
                 "checksum")

    def __init__(self, sport: int, dport: int, seq: int, ack: int = 0,
                 flags: int = 0, window: int = 8192, checksum: int = 0):
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window
        self.checksum = checksum

    def _pack_with(self, checksum: int) -> bytes:
        return struct.pack(self.FORMAT, self.sport, self.dport, self.seq,
                           self.ack, self.flags, self.window, checksum)

    def pack(self, payload: bytes = b"") -> bytes:
        """Pack with the checksum computed over header + *payload*."""
        self.checksum = internet_checksum(self._pack_with(0) + payload)
        return self._pack_with(self.checksum)

    def verify(self, payload: bytes = b"") -> bool:
        """True when the embedded checksum matches header + *payload*."""
        return internet_checksum(self._pack_with(0) + payload) \
            == self.checksum

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        sport, dport, seq, ack, flags, window, checksum = struct.unpack(
            cls.FORMAT, data[:cls.SIZE])
        return cls(sport, dport, seq, ack=ack, flags=flags, window=window,
                   checksum=checksum)

    def __repr__(self) -> str:
        return f"Tcp({self.sport}->{self.dport} seq={self.seq} ack={self.ack})"


class MflowHeader:
    """MFLOW: seq(4) timestamp_us(4) window(2) flags(1) pad(1).

    ``flags`` bit 0 marks a window-advertisement (no payload); bit 1 marks
    the first packet of a video frame (ALF framing aid).
    """

    FORMAT: ClassVar[str] = "!IIHBB"
    SIZE: ClassVar[int] = struct.calcsize(FORMAT)

    FLAG_WINDOW_ADV = 0x1
    FLAG_FRAME_START = 0x2

    __slots__ = ("seq", "timestamp_us", "window", "flags")

    def __init__(self, seq: int, timestamp_us: int, window: int = 0,
                 flags: int = 0):
        self.seq = seq & 0xFFFFFFFF
        self.timestamp_us = timestamp_us & 0xFFFFFFFF
        self.window = window
        self.flags = flags

    @property
    def is_window_adv(self) -> bool:
        return bool(self.flags & self.FLAG_WINDOW_ADV)

    @property
    def is_frame_start(self) -> bool:
        return bool(self.flags & self.FLAG_FRAME_START)

    def pack(self) -> bytes:
        return struct.pack(self.FORMAT, self.seq, self.timestamp_us,
                           self.window, self.flags, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "MflowHeader":
        seq, ts, window, flags, _pad = struct.unpack(cls.FORMAT,
                                                     data[:cls.SIZE])
        return cls(seq, ts, window=window, flags=flags)

    def __repr__(self) -> str:
        kind = "wadv" if self.is_window_adv else "data"
        return f"Mflow({kind} seq={self.seq} win={self.window})"
