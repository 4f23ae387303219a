"""The forwarding tier: ForwardRouter data path + RouterKernel appliance.

One router, two ports, two hosts.  Frames arriving on a port are
classified at interrupt time onto that port's forwarding path; the
path's thread does the TTL/route/rewrite work and transmits out the
egress adapter — fragmenting for a smaller egress MTU, or refusing DF
packets with ICMP Fragmentation Needed.
"""

import pytest

from repro.kernel import RouterKernel
from repro.core import BWD
from repro.net import EthAddr, IcmpHeader, IpAddr, RouteTable, build_icmp_echo, build_udp_frame, parse_frame
from repro.sim import SimWorld
from .conftest import RecordingRemote

HOST_A_MAC = "02:00:00:00:0a:01"
HOST_A_IP = IpAddr("10.0.1.1")
HOST_B_MAC = "02:00:00:00:0b:01"
HOST_B_IP = IpAddr("10.0.2.1")
PORT_A_IP = IpAddr("10.0.1.254")
PORT_B_IP = IpAddr("10.0.2.254")


class Net:
    """One router between two segments, one recording host on each."""

    def __init__(self, mtu_a: int = 1500, mtu_b: int = 1500):
        self.world = SimWorld(seed=3)
        self.seg_a = self.world.new_segment(bandwidth_mbps=100.0,
                                            latency_us=10.0)
        self.seg_b = self.world.new_segment(bandwidth_mbps=100.0,
                                            latency_us=10.0)
        self.host_a = RecordingRemote(self.world.engine, mac=HOST_A_MAC,
                                      ip=HOST_A_IP)
        self.host_b = RecordingRemote(self.world.engine, mac=HOST_B_MAC,
                                      ip=HOST_B_IP)
        self.seg_a.attach(self.host_a)
        self.seg_b.attach(self.host_b)
        self.kernel = RouterKernel(self.world, name="R")
        self.port_a = self.kernel.add_port("a", self.seg_a, PORT_A_IP,
                                           mtu=mtu_a)
        self.port_b = self.kernel.add_port("b", self.seg_b, PORT_B_IP,
                                           mtu=mtu_b)
        self.kernel.add_route("10.0.1.0", 24, "a")
        self.kernel.add_route("10.0.2.0", 24, "b")
        self.kernel.boot()
        self.fwd = self.kernel.fwd

    def a_to_b_frame(self, payload=b"hello", ttl=64, df=False):
        return build_udp_frame(self.host_a.mac, self.port_a.device.mac,
                               self.host_a.ip, HOST_B_IP,
                               5000, 7000, payload, ttl=ttl, df=df)

    def run(self, us=100_000.0):
        self.world.run_for(us)


@pytest.fixture
def net():
    return Net()


class TestRouteTable:
    def test_longest_prefix_wins(self):
        table = RouteTable()
        table.add("0.0.0.0", 0, "default")
        table.add("10.0.0.0", 8, "coarse")
        table.add("10.0.2.0", 24, "net")
        table.add("10.0.2.9", 32, "host")
        assert table.lookup("10.0.2.9").port == "host"
        assert table.lookup("10.0.2.77").port == "net"
        assert table.lookup("10.9.9.9").port == "coarse"
        assert table.lookup("192.168.0.1").port == "default"
        # The forward route looks up the int its header reader returns.
        assert table.lookup(IpAddr("10.0.2.9").to_int()).port == "host"
        assert table.lookup(0xC0A80001).port == "default"

    def test_no_match_returns_none(self):
        table = RouteTable()
        table.add("10.0.2.0", 24, "net")
        assert table.lookup("10.0.3.1") is None

    @pytest.mark.parametrize("prefix_len", [33, -1])
    def test_a_bad_prefix_length_is_refused_at_add(self, prefix_len):
        """Refused where the route is built, not raised later out of a
        lookup on a forwarding thread."""
        table = RouteTable()
        table.add("10.0.2.0", 24, "net")
        with pytest.raises(ValueError, match="bad prefix length"):
            table.add("10.0.0.0", prefix_len, "x")
        assert len(table) == 1
        assert table.lookup("10.0.0.1") is None
        assert table.lookup("10.0.2.9").port == "net"


class TestForwarding:
    def test_forwards_and_decrements_ttl(self, net):
        net.host_a.send(net.a_to_b_frame(payload=b"payload-bytes"))
        net.run()
        assert len(net.host_b.frames) == 1
        parsed = parse_frame(net.host_b.frames[0])
        assert parsed.ip.ttl == 63
        assert parsed.payload == b"payload-bytes"
        assert parsed.eth.src == net.port_b.device.mac
        assert parsed.eth.dst == net.host_b.mac
        assert net.fwd.forwarded == 1

    def test_ttl_expiry_sends_time_exceeded(self, net):
        net.host_a.send(net.a_to_b_frame(ttl=1))
        net.run()
        assert net.host_b.frames == []
        assert net.fwd.ttl_drops == 1
        assert len(net.host_a.frames) == 1
        parsed = parse_frame(net.host_a.frames[0])
        assert parsed.icmp.icmp_type == IcmpHeader.TIME_EXCEEDED
        assert parsed.ip.src == PORT_A_IP
        assert net.kernel.drop_ledger().get("ttl_expired") == 1

    def test_no_route_sends_unreachable(self, net):
        frame = build_udp_frame(net.host_a.mac, net.port_a.device.mac,
                                net.host_a.ip, IpAddr("10.0.9.9"),
                                5000, 7000, b"lost")
        net.host_a.send(frame)
        net.run()
        assert net.fwd.no_route_drops == 1
        assert net.fwd.unreachable_sent == 1
        parsed = parse_frame(net.host_a.frames[0])
        assert parsed.icmp.icmp_type == IcmpHeader.DEST_UNREACH
        assert parsed.icmp.code == 0
        assert net.kernel.drop_ledger().get("no_route") == 1

    def test_arp_miss_is_ledgered(self, net):
        frame = build_udp_frame(net.host_a.mac, net.port_a.device.mac,
                                net.host_a.ip, IpAddr("10.0.2.77"),  # no such host
                                5000, 7000, b"ghost")
        net.host_a.send(frame)
        net.run()
        assert net.fwd.arp_miss_drops == 1
        assert net.kernel.drop_ledger().get("arp_miss") == 1
        assert net.host_b.frames == []


class TestEgressFragmentation:
    def test_fragments_for_smaller_egress_mtu(self):
        net = Net(mtu_a=1500, mtu_b=600)
        payload = bytes(i % 256 for i in range(1200))
        net.host_a.send(net.a_to_b_frame(payload=payload))
        net.run()
        assert net.fwd.fragments_created >= 2
        frames = [parse_frame(f) for f in net.host_b.frames]
        assert all(len(f) <= 14 + 600 for f in net.host_b.frames)
        assert all(p.ip.is_fragment for p in frames)
        # Reassemble by offset: the datagram survives byte-identically.
        pieces = {}
        for raw in net.host_b.frames:
            parsed = parse_frame(raw)
            body = raw[34:34 + parsed.ip.total_length - 20]
            pieces[parsed.ip.frag_offset * 8] = body
        assembled = b"".join(pieces[k] for k in sorted(pieces))
        # First fragment carries the UDP header; strip it to compare.
        assert assembled[8:] == payload
        last = max(pieces)
        for offset, body in pieces.items():
            parsed_mf = offset != last
            # every non-final fragment length is a multiple of 8
            if parsed_mf:
                assert len(body) % 8 == 0

    def test_df_refusal_reports_next_hop_mtu(self):
        net = Net(mtu_a=1500, mtu_b=600)
        payload = bytes(i % 256 for i in range(1200))
        net.host_a.send(net.a_to_b_frame(payload=payload, df=True))
        net.run()
        assert net.host_b.frames == []
        assert net.fwd.frag_needed_sent == 1
        parsed = parse_frame(net.host_a.frames[0])
        assert parsed.icmp.icmp_type == IcmpHeader.DEST_UNREACH
        assert parsed.icmp.code == IcmpHeader.CODE_FRAG_NEEDED
        # RFC 1191: the constricting hop's MTU travels in the seq field.
        assert parsed.icmp.seq == net.port_b.eth.payload_mtu()
        # The error quotes the offending IP header + first 8 bytes.
        quoted = parsed.payload
        assert len(quoted) >= 20 + 8
        assert parse_frame(net.host_a.frames[0]).ip.dst == HOST_A_IP
        assert net.kernel.drop_ledger().get("df_mtu") == 1


class TestErrorSuppression:
    def test_no_error_about_non_first_fragment(self):
        net = Net(mtu_a=1500, mtu_b=600)
        # A non-first fragment with TTL 1: RFC 1122 forbids erroring it.
        from repro.net.headers import (EthHeader, IP_FLAG_MORE_FRAGMENTS,
                                       IpHeader)
        header = IpHeader(20 + 64, 42, 17, net.host_a.ip, HOST_B_IP,
                          ttl=1, flags=IP_FLAG_MORE_FRAGMENTS,
                          frag_offset=16)
        frame = (EthHeader(net.port_a.device.mac, net.host_a.mac,
                           0x0800).pack() + header.pack() + b"z" * 64)
        net.host_a.send(frame)
        net.run()
        assert net.fwd.ttl_drops == 1
        assert net.fwd.errors_suppressed == 1
        assert net.host_a.frames == []


class TestRouterLocalDelivery:
    def test_router_port_answers_ping(self, net):
        frame = build_icmp_echo(net.host_a.mac, net.port_a.device.mac,
                                net.host_a.ip, PORT_A_IP,
                                ident=9, seq=4, payload=b"gw-probe")
        net.host_a.send(frame)
        net.run()
        assert net.fwd.echo_requests == 1
        parsed = parse_frame(net.host_a.frames[0])
        assert parsed.icmp.icmp_type == IcmpHeader.ECHO_REPLY
        assert parsed.icmp.ident == 9
        assert parsed.icmp.seq == 4
        assert parsed.payload == b"gw-probe"

    def test_non_echo_local_traffic_absorbed(self, net):
        frame = build_udp_frame(net.host_a.mac, net.port_a.device.mac,
                                net.host_a.ip, PORT_A_IP,
                                5000, 7000, b"to-the-router")
        net.host_a.send(frame)
        net.run()
        assert net.fwd.local_delivered == 1
        assert net.host_a.frames == []


class TestKernelPlumbing:
    def test_one_forwarding_path_per_port(self, net):
        assert len(net.kernel.paths()) == 2
        for path in net.kernel.paths():
            assert path.routers() == ["FWD", "ETH-a"] \
                or path.routers() == ["FWD", "ETH-b"]

    def test_ports_must_precede_boot(self, net):
        with pytest.raises(RuntimeError):
            net.kernel.add_port("c", net.seg_a, "10.0.1.253")

    def test_ports_share_one_cache_but_not_a_broadcast_flow(self, net):
        """One broadcast UDP frame offered on each port lands on each
        port's own forwarding path: a group-addressed destination is the
        same bytes on every port, so it must never key a cache entry."""
        frame = build_udp_frame(net.host_a.mac, EthAddr.BROADCAST,
                                net.host_a.ip, HOST_B_IP, 5000, 7000, b"all")
        net.kernel.rx_burst([frame], entry=net.port_a.eth)
        net.kernel.rx_burst([frame], entry=net.port_b.eth)
        for port in (net.port_a, net.port_b):
            assert len(port.path.input_queue(BWD)) == 1
        assert len(net.kernel.flow_cache) == 0
        assert net.kernel.flow_cache.hits == 0

    def test_stats_shape(self, net):
        stats = net.kernel.stats()
        assert stats["forwarded"] == 0
        assert "unclassified_drops" in stats
        assert "inq_overflow_drops" in stats
