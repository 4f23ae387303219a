"""The Figure 3 web-server graph serving clients from a warm connection
pool, and concurrent clients from a connection-path group."""

import pytest

from repro.core import Attrs, BWD, Msg, PA_NET_PARTICIPANTS, RouterGraph
from repro.fs import ScsiRouter, UfsRouter, VfsRouter
from repro.http import HttpRouter
from repro.multipath import PathGroup, PathPool
from repro.net import (
    ArpRouter,
    EthAddr,
    EthRouter,
    IpAddr,
    IpHeader,
    IpRouter,
    TcpHeader,
    TcpRouter,
    parse_frame,
)
from repro.net.common import PA_LOCAL_PORT
from repro.net.headers import IPPROTO_TCP

SERVER_IP, SERVER_MAC = "10.0.0.1", "02:00:00:00:00:01"
CLIENTS = {
    "10.0.0.9": "02:00:00:00:00:09",
    "10.0.0.10": "02:00:00:00:00:0a",
}


@pytest.fixture
def web():
    graph = RouterGraph()
    graph.add(HttpRouter("HTTP"))
    graph.add(TcpRouter("TCP"))
    graph.add(IpRouter("IP", addr=SERVER_IP))
    graph.add(ArpRouter("ARP"))
    graph.add(EthRouter("ETH", mac=SERVER_MAC))
    graph.add(VfsRouter("VFS"))
    graph.add(UfsRouter("UFS"))
    graph.add(ScsiRouter("SCSI", sectors=1024))
    graph.connect("HTTP.net", "TCP.up")
    graph.connect("HTTP.files", "VFS.up")
    graph.connect("TCP.down", "IP.up")
    graph.connect("IP.down", "ETH.up")
    graph.connect("IP.res", "ARP.resolver")
    graph.connect("ARP.down", "ETH.up")
    graph.connect("VFS.mounts", "UFS.up")
    graph.connect("UFS.disk", "SCSI.ops")
    graph.boot()
    graph.router("UFS").fs.write_file("index.html", b"<h1>paths</h1>")
    graph.router("VFS").mount("/", "UFS")
    for ip, mac in CLIENTS.items():
        graph.router("ARP").add_entry(ip, mac)
    wire = []
    graph.router("ETH").transmit = lambda msg: wire.append(msg.to_bytes())
    return graph, wire


def segment(graph, client_ip, payload, sport=51000, seq=0):
    tcp = TcpHeader(sport, 80, seq=seq,
                    flags=TcpHeader.FLAG_ACK).pack(payload)
    ip = IpHeader(20 + len(tcp) + len(payload), 7, IPPROTO_TCP,
                  IpAddr(client_ip), graph.router("IP").addr).pack()
    eth = (EthAddr(SERVER_MAC).to_bytes()
           + EthAddr(CLIENTS[client_ip]).to_bytes() + b"\x08\x00")
    return Msg(eth + ip + tcp + payload)


def get(graph, conn, client_ip, target="/index.html", seq=0):
    request = f"GET {target} HTTP/1.0\r\n\r\n".encode()
    conn.deliver(segment(graph, client_ip, request, seq=seq), BWD)
    return len(request)


class TestInjectedRequest:
    def test_reply_goes_to_the_frames_ip_source(self, web):
        """A request injected straight into a connection path skips the
        classifier, which records ``ip_src``; IP's receive stage records
        it from the frame instead, so the reply goes to the frame's
        source, not to the path's participant."""
        graph, wire = web
        conn = graph.router("HTTP").connection_path_for(("10.0.0.9", 51000))
        get(graph, conn, "10.0.0.10")
        assert b"200 OK" in wire[-1]
        parsed = parse_frame(wire[-1])
        assert str(parsed.ip.dst) == "10.0.0.10"
        assert parsed.eth.dst == EthAddr(CLIENTS["10.0.0.10"])


class TestConnectionPool:
    def test_reconnect_reuses_the_parked_path(self, web):
        graph, wire = web
        http = graph.router("HTTP")
        http.use_connection_pool(PathPool(http))
        client = ("10.0.0.9", 51000)
        conn = http.connection_path_for(client)
        sent = get(graph, conn, client[0])
        assert b"200 OK" in wire[-1]
        assert http.release_connection(conn)  # parked, not deleted
        assert conn.state == "established"
        again = http.connection_path_for(client)
        assert again is conn  # the warm path, not a re-create
        # A reused connection continues the byte stream, so the next
        # request picks up where the previous one left off.
        get(graph, again, client[0], seq=sent)
        assert b"200 OK" in wire[-1]
        assert http._connection_pool.hits == 1

    def test_without_pool_release_deletes(self, web):
        graph, _wire = web
        http = graph.router("HTTP")
        conn = http.connection_path_for(("10.0.0.9", 51000))
        assert not http.release_connection(conn)
        assert conn.state == "deleted"

    def test_different_clients_get_different_paths(self, web):
        graph, _wire = web
        http = graph.router("HTTP")
        http.use_connection_pool(PathPool(http))
        a = http.connection_path_for(("10.0.0.9", 51000))
        http.release_connection(a)
        b = http.connection_path_for(("10.0.0.10", 51000))
        assert b is not a  # different invariants, different bucket


class TestConnectionGroup:
    def test_concurrent_clients_served_by_group_members(self, web):
        """A pooled connection-path group on port 80: each client's
        requests ride whichever member the policy picks, and responses
        still reach the right client (the reply address comes from the
        request's meta, not the path's invariants)."""
        graph, wire = web
        http = graph.router("HTTP")
        group = PathGroup("round_robin")
        pool = PathPool(http)
        pool.prewarm(Attrs({PA_NET_PARTICIPANTS: ("10.0.0.9", 51000),
                            PA_LOCAL_PORT: 80}), count=2)
        for _ in range(2):
            group.add(pool.acquire(
                Attrs({PA_NET_PARTICIPANTS: ("10.0.0.9", 51000),
                       PA_LOCAL_PORT: 80})))
        served = []
        for member in group.members:
            member.stage_of("HTTP")  # sanity: full connection shape
        for index, client_ip in enumerate(["10.0.0.9", "10.0.0.10"]):
            member = group.dispatch(None)
            served.append(member)
            get(graph, member, client_ip)
            parsed = parse_frame(wire[-1])
            assert str(parsed.ip.dst) == client_ip
            assert parsed.eth.dst == EthAddr(CLIENTS[client_ip])
        assert served[0] is not served[1]  # both members actually served
        assert pool.hits == 2
