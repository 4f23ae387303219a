"""Whole-packet build/parse helpers.

Remote host agents and tests need to construct complete frames without
walking a path; these helpers pack the header stack in one call and parse
it back.  The kernels under test never use them on the receive side —
they run their real protocol routers.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .addresses import EthAddr, IpAddr
from .headers import (
    ETHERTYPE_IP,
    EthHeader,
    IcmpHeader,
    IP_DF,
    IP_SIZE,
    IpHeader,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    MflowHeader,
    TcpHeader,
    UDP_SIZE,
    UdpHeader,
    pack_eth,
    pack_ip,
    pack_udp,
)

def _next_ident(counter=itertools.count(1)) -> int:
    return next(counter) & 0xFFFF


def _eth(dst_mac: EthAddr, src_mac: EthAddr) -> bytes:
    return pack_eth(dst_mac.to_bytes(), src_mac.to_bytes(), ETHERTYPE_IP)


def build_udp_frame(src_mac: EthAddr, dst_mac: EthAddr,
                    src_ip: IpAddr, dst_ip: IpAddr,
                    sport: int, dport: int, payload: bytes,
                    ttl: int = 64, df: bool = False) -> bytes:
    """Build a complete ETH/IP/UDP frame."""
    udp = pack_udp(sport, dport, UDP_SIZE + len(payload), 0)
    ip = pack_ip(IP_SIZE + UDP_SIZE + len(payload), _next_ident(),
                 IP_DF if df else 0, ttl, IPPROTO_UDP, src_ip.to_int(),
                 dst_ip.to_int())
    return _eth(dst_mac, src_mac) + ip + udp + payload


def build_mflow_frame(src_mac: EthAddr, dst_mac: EthAddr,
                      src_ip: IpAddr, dst_ip: IpAddr,
                      sport: int, dport: int,
                      seq: int, timestamp_us: float, payload: bytes,
                      window: int = 0, flags: int = 0) -> bytes:
    """Build ETH/IP/UDP/MFLOW — the video source's data packet."""
    mflow = MflowHeader(seq, int(timestamp_us), window=window,
                        flags=flags).pack()
    return build_udp_frame(src_mac, dst_mac, src_ip, dst_ip,
                           sport, dport, mflow + payload)


def build_tcp_frame(src_mac: EthAddr, dst_mac: EthAddr,
                    src_ip: IpAddr, dst_ip: IpAddr,
                    sport: int, dport: int,
                    seq: int, ack: int, payload: bytes = b"",
                    flags: int = TcpHeader.FLAG_ACK) -> bytes:
    """Build a complete ETH/IP/TCP frame."""
    tcp = TcpHeader(sport, dport, seq=seq, ack=ack, flags=flags).pack(payload)
    ip = pack_ip(IP_SIZE + len(tcp) + len(payload), _next_ident(), 0, 64,
                 IPPROTO_TCP, src_ip.to_int(), dst_ip.to_int())
    return _eth(dst_mac, src_mac) + ip + tcp + payload


def build_icmp_echo(src_mac: EthAddr, dst_mac: EthAddr,
                    src_ip: IpAddr, dst_ip: IpAddr,
                    ident: int, seq: int,
                    reply: bool = False, payload: bytes = b"",
                    ttl: int = 64, df: bool = False) -> bytes:
    """Build an ICMP echo request (or reply) frame.

    ``df=True`` builds the PMTUD probe variant: an oversized DF echo
    that a small-MTU hop must refuse with Fragmentation Needed.
    """
    icmp_type = IcmpHeader.ECHO_REPLY if reply else IcmpHeader.ECHO_REQUEST
    icmp = IcmpHeader(icmp_type, ident, seq).pack() + payload
    ip = pack_ip(IP_SIZE + len(icmp), _next_ident(), IP_DF if df else 0,
                 ttl, IPPROTO_ICMP, src_ip.to_int(), dst_ip.to_int())
    return _eth(dst_mac, src_mac) + ip + icmp


class ParsedPacket(NamedTuple):
    """A convenience view of a parsed frame (tests and host agents)."""

    eth: EthHeader
    ip: Optional[IpHeader]
    udp: Optional[UdpHeader]
    icmp: Optional[IcmpHeader]
    mflow: Optional[MflowHeader]
    tcp: Optional[TcpHeader]
    payload: bytes


def parse_frame(frame: bytes, expect_mflow: bool = False) -> ParsedPacket:
    """Parse a frame's header stack as far as it goes."""
    eth = EthHeader.unpack(frame)
    rest = frame[EthHeader.SIZE:]
    ip = udp = icmp = mflow = tcp = None
    if eth.ethertype == ETHERTYPE_IP and len(rest) >= IpHeader.SIZE:
        ip = IpHeader.unpack(rest)
        rest = rest[IpHeader.SIZE:]
        if ip.proto == IPPROTO_UDP and len(rest) >= UdpHeader.SIZE:
            udp = UdpHeader.unpack(rest)
            rest = rest[UdpHeader.SIZE:]
            if expect_mflow and len(rest) >= MflowHeader.SIZE:
                mflow = MflowHeader.unpack(rest)
                rest = rest[MflowHeader.SIZE:]
        elif ip.proto == IPPROTO_ICMP and len(rest) >= IcmpHeader.SIZE:
            icmp = IcmpHeader.unpack(rest)
            rest = rest[IcmpHeader.SIZE:]
        elif ip.proto == IPPROTO_TCP and len(rest) >= TcpHeader.SIZE:
            tcp = TcpHeader.unpack(rest)
            # Trim link padding beyond the IP total length.
            payload_len = max(0, ip.total_length - IpHeader.SIZE
                              - TcpHeader.SIZE)
            rest = rest[TcpHeader.SIZE:TcpHeader.SIZE + payload_len]
    return ParsedPacket(eth, ip, udp, icmp, mflow, tcp, rest)
