"""The bytes on the wire of a fixed three-hop scenario, pinned.

Every frame every segment of ``build_three_hop`` carries is recorded, in
order, across a run that exercises each forwarding outcome: 1400-byte
datagrams fragmented at r1 (PMTUD off), a DF datagram refused with
Fragmentation Needed, a TTL-2 datagram that expires at r2, a datagram to
an unrouted address, and a ping to a router port.

Two things are asserted.  Every IPv4 header on the wire, and every IPv4
header an ICMP error quotes, carries a valid checksum: no receiver in
the stack verifies it, so a packer that got it wrong would keep every
delivery digest right.  And the ordered frames hash to a recorded
digest, so a rewrite of a header codec or of the forward route that
moves a single byte fails here by name.
"""

import hashlib
import itertools

import pytest

from repro.api import SimWorld
from repro.experiments.multihop_exp import build_three_hop
from repro.net import (
    ETHERTYPE_IP,
    IcmpHeader,
    IPPROTO_ICMP,
    IpAddr,
    build_icmp_echo,
    build_udp_frame,
    verify_checksum,
)
from repro.net import ip as ip_module
from repro.net import packets as packets_module
from repro.net import udp as udp_module
from repro.net.segment import EtherSegment

#: blake2b-128 of the ordered ``(segment, frame)`` records below.
WIRE_DIGEST = "0e8b49a5e417e34cdf0d6d66254232ec"

PAYLOAD = bytes(range(256)) * 5 + bytes(120)
DATAGRAMS = 3


@pytest.fixture
def wire(monkeypatch):
    """Run the scenario; return its ``(segment name, frame)`` records."""
    # The IP idents and ephemeral UDP ports come from process-wide
    # counters; restart them so the bytes do not depend on what ran
    # earlier in the process.
    monkeypatch.setattr(udp_module, "_ephemeral_ports",
                        itertools.count(49152))
    counter16 = itertools.count(1)
    monkeypatch.setattr(ip_module, "_next_ident16",
                        lambda: next(counter16) & 0xFFFF)
    counter = itertools.count(1)
    monkeypatch.setattr(packets_module, "_next_ident",
                        lambda: next(counter) & 0xFFFF)
    topo = build_three_hop(SimWorld(seed=1))
    names = {id(segment): name for name, segment in topo.segments.items()}
    records = []
    transmit = EtherSegment.transmit

    def recording(segment, frame, src):
        records.append((names[id(segment)], bytes(frame)))
        return transmit(segment, frame, src)

    monkeypatch.setattr(EtherSegment, "transmit", recording)
    pp = topo.provision("sender", "receiver", pmtud=False)
    world = topo.world
    for _ in range(DATAGRAMS):
        pp.send(PAYLOAD)
        world.run_for(10_000.0)
    sender = topo.hosts["sender"]
    r1_mac = topo.routers["r1"].ports["a"].device.mac
    src_ip = sender.ip.addr
    injected = [
        # DF and too big for the 600-byte middle link: Frag Needed at r1.
        build_udp_frame(sender.device.mac, r1_mac, src_ip, pp.dst_ip,
                        pp.sport, pp.dport, PAYLOAD, df=True),
        # TTL 2: r1 forwards it with TTL 1, r2 answers Time Exceeded.
        build_udp_frame(sender.device.mac, r1_mac, src_ip, pp.dst_ip,
                        pp.sport, pp.dport, b"ttl" * 20, ttl=2),
        # No route at r1: Destination Unreachable.
        build_udp_frame(sender.device.mac, r1_mac, src_ip,
                        IpAddr("10.0.3.77"), pp.sport, pp.dport,
                        b"lost" * 10),
        # An echo request to r1's own port: r1 replies itself.
        build_icmp_echo(sender.device.mac, r1_mac, src_ip,
                        IpAddr("10.0.1.254"), 0x77, 1, payload=b"p" * 32),
    ]
    for frame in injected:
        sender.device.send(frame)
        world.run_for(10_000.0)
    assert pp.received_payloads() == [PAYLOAD] * DATAGRAMS
    assert topo.routers["r1"].drop_ledger() == {"df_mtu": 1, "no_route": 1}
    assert topo.routers["r2"].drop_ledger() == {"ttl_expired": 1}
    assert topo.routers["r1"].fwd.echo_requests == 1
    return records


def test_every_ipv4_header_on_the_wire_checksums(wire):
    headers = 0
    for _segment, frame in wire:
        if int.from_bytes(frame[12:14], "big") != ETHERTYPE_IP:
            continue
        ip = frame[14:34]
        assert verify_checksum(ip), ip.hex()
        headers += 1
        icmp = frame[34:]
        if ip[9] == IPPROTO_ICMP and icmp[0] in (
                IcmpHeader.DEST_UNREACH, IcmpHeader.TIME_EXCEEDED):
            quoted = icmp[IcmpHeader.SIZE:IcmpHeader.SIZE + 20]
            assert verify_checksum(quoted), quoted.hex()
            headers += 1
    # 3 datagrams x (1 + 3 + 3 fragments) = 21; the DF datagram and its
    # error, 2; the TTL-2 datagram and its error, each on both links, 4;
    # the unrouted datagram and its error, 2; the ping and its reply, 2.
    # Plus the header each of those four error frames quotes.
    assert len(wire) == 31
    assert headers == 31 + 4


def test_the_wire_bytes_match_the_recorded_digest(wire):
    digest = hashlib.blake2b(digest_size=16)
    for segment, frame in wire:
        digest.update(segment.encode() + len(frame).to_bytes(2, "big"))
        digest.update(frame)
    assert digest.hexdigest() == WIRE_DIGEST
