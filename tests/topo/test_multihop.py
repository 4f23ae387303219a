"""Multi-hop forwarding with heterogeneous MTUs: the differential test.

The acceptance bar for the forwarding tier: a 3-hop chain whose middle
link has less than half the edge MTU (1500/600/1500) delivers the same
bytes as a single-hop baseline — via in-flight fragmentation when the
sender is PMTU-oblivious, and with **zero** fragments anywhere once
sender-side path-MTU discovery has converged — with every loss (there
must be none) accounted in exact drop ledgers.
"""

import pytest

from repro.api import SimWorld, Topology

BLOB = bytes((i * 31 + 7) % 256 for i in range(20_000))


def three_hop(seed=11, mid_mtu=600):
    """sender --1500-- r1 --mid_mtu-- r2 --1500-- receiver"""
    world = SimWorld(seed=seed)
    topo = Topology(world)
    topo.segment("L1", mtu=1500, bandwidth_mbps=100.0, latency_us=20.0)
    topo.segment("L2", mtu=mid_mtu, bandwidth_mbps=100.0, latency_us=20.0)
    topo.segment("L3", mtu=1500, bandwidth_mbps=100.0, latency_us=20.0)
    topo.host("sender", "L1", "10.0.1.1")
    topo.host("receiver", "L3", "10.0.3.1")
    topo.router("r1", {"a": ("L1", "10.0.1.254"), "b": ("L2", "10.0.2.1")})
    topo.router("r2", {"a": ("L2", "10.0.2.254"), "b": ("L3", "10.0.3.254")})
    return world, topo


def single_hop(seed=11):
    world = SimWorld(seed=seed)
    topo = Topology(world)
    topo.segment("L1", mtu=1500, bandwidth_mbps=100.0, latency_us=20.0)
    topo.host("sender", "L1", "10.0.1.1")
    topo.host("receiver", "L1", "10.0.1.2")
    return world, topo


def transfer(world, topo, pmtud, mss=None, data=BLOB):
    pp = topo.provision("sender", "receiver", pmtud=pmtud)
    pp.send_stream(data, mss=mss)
    world.run_for(5_000_000)
    return pp


class TestDifferentialDelivery:
    """Same blob, three data paths, byte-identical everywhere."""

    def test_single_hop_baseline(self):
        world, topo = single_hop()
        pp = transfer(world, topo, pmtud=False, mss=1400)
        assert pp.received_bytes() == BLOB

    def test_three_hop_in_flight_fragmentation(self):
        world, topo = three_hop()
        pp = transfer(world, topo, pmtud=False, mss=1400)
        assert pp.received_bytes() == BLOB
        # The middle link forced the routers to fragment in flight...
        assert topo.routers["r1"].fwd.fragments_created > 0
        # ...and the receiving host reassembled every datagram.
        assert topo.hosts["receiver"].ip.rx_dropped == 0

    def test_three_hop_pmtud(self):
        world, topo = three_hop()
        pp = transfer(world, topo, pmtud=True)
        assert pp.received_bytes() == BLOB

    def test_all_three_agree(self):
        results = []
        world, topo = single_hop()
        results.append(transfer(world, topo, False, 1400).received_bytes())
        world, topo = three_hop()
        results.append(transfer(world, topo, False, 1400).received_bytes())
        world, topo = three_hop()
        results.append(transfer(world, topo, True).received_bytes())
        assert results[0] == results[1] == results[2] == BLOB


class TestFastPathPerHop:
    def test_only_whole_datagrams_hit(self):
        """Oblivious sender across 1500/600/1500: r1 receives whole
        datagrams and hits its flow cache for every one after the first;
        r2 and the receiver see only fragments, which carry no flow key,
        so their caches never hit and never fill."""
        world, topo = three_hop()
        pp = topo.provision("sender", "receiver", pmtud=False)
        data = BLOB[:14 * 1400]  # every datagram too big for the 600 link
        sent = pp.send_stream(data, mss=1400)
        world.run_for(5_000_000)
        assert pp.received_bytes() == data
        r1 = topo.routers["r1"].flow_cache
        assert (r1.hits, r1.misses, len(r1)) == (sent - 1, 1, 1)
        for node in (topo.routers["r2"], topo.hosts["receiver"]):
            assert (node.flow_cache.hits, len(node.flow_cache)) == (0, 0)


class TestPmtudConvergence:
    def test_discovers_the_min_link_mtu(self):
        world, topo = three_hop()
        pp = topo.provision("sender", "receiver", pmtud=True)
        chain = topo.hop_chain("sender", "receiver")
        assert pp.pmtu == topo.discover().min_mtu(chain) == 600
        sender = topo.hosts["sender"]
        assert sender.ip.pmtu[pp.dst_ip] == 600
        assert sender.icmp.frag_needed_received >= 1
        assert sender.ip.pmtu_updates == 1

    def test_zero_fragments_after_convergence(self):
        """The acceptance gate: once discovery converges, steady-state
        traffic creates no fragments at the source OR in flight."""
        world, topo = three_hop()
        pp = transfer(world, topo, pmtud=True)
        assert pp.received_bytes() == BLOB
        sender_ip_stage = pp.path.stage_of("IP")
        assert sender_ip_stage.fragments_sent == 0
        assert topo.routers["r1"].fwd.fragments_created == 0
        assert topo.routers["r2"].fwd.fragments_created == 0
        # Nothing arrived fragmented, so the receiver reassembled nothing.
        assert pp.sink_path.stage_of("IP").datagrams_reassembled == 0

    def test_mss_tracks_learned_pmtu(self):
        world, topo = three_hop()
        pp = topo.provision("sender", "receiver", pmtud=True)
        # 600 IP bytes - 20 IP header - 8 UDP header = 572 payload bytes.
        assert pp.mss() == 572
        count = pp.send_stream(b"z" * 5720)
        assert count == 10

    def test_oblivious_sender_fragments_without_pmtud(self):
        world, topo = three_hop()
        pp = transfer(world, topo, pmtud=False, mss=1400)
        assert topo.routers["r1"].fwd.fragments_created > 0
        assert topo.hosts["sender"].ip.pmtu == {}


class TestDropLedgers:
    def test_clean_delivery_ledgers_only_the_probe(self):
        """Exactness cuts both ways: a lossless run ledgers nothing
        beyond the single DF discovery probe r1 refused."""
        world, topo = three_hop()
        pp = transfer(world, topo, pmtud=True)
        assert pp.received_bytes() == BLOB
        assert topo.hosts["sender"].drop_ledger() == {}
        assert topo.hosts["receiver"].drop_ledger() == {}
        assert topo.routers["r1"].drop_ledger() == {"df_mtu": 1}
        assert topo.routers["r2"].drop_ledger() == {}

    def test_induced_losses_are_exactly_ledgered(self):
        """Kill the dst route at r2 mid-stream: every datagram that hit
        the gap is ledgered as no_route, and the byte gap matches."""
        world, topo = three_hop()
        pp = topo.provision("sender", "receiver", pmtud=True)
        pp.send_stream(BLOB[:5720])  # 10 datagrams of 572
        world.run_for(3_000_000)
        assert pp.received_bytes() == BLOB[:5720]
        # Sabotage: r2 forgets how to reach the receiver.
        r2 = topo.routers["r2"]
        r2.fwd.routes._routes = [r for r in r2.fwd.routes.routes()
                                 if str(r.network) != "10.0.3.1"]
        pp.send_stream(BLOB[5720:11440])  # 10 more datagrams
        world.run_for(3_000_000)
        assert r2.fwd.no_route_drops == 10
        assert r2.drop_ledger().get("no_route") == 10
        # The received prefix is still exactly the pre-sabotage bytes.
        assert pp.received_bytes() == BLOB[:5720]


class TestDiscovery:
    def test_inventory_shape(self):
        world, topo = three_hop()
        inv = topo.discover()
        assert len(inv.links) == 3
        assert len(inv.devices) == 6  # 2 host NICs + 4 router ports
        kinds = sorted(d.kind for d in inv.devices)
        assert kinds == ["host", "host"] + ["router"] * 4
        assert inv.link("L2").mtu == 600
        assert sorted(inv.nodes_on("L2")) == ["r1", "r2"]
        assert sorted(inv.segments_of("r1")) == ["L1", "L2"]

    def test_identical_builds_discover_identical_inventories(self):
        """Same seed, same declaration, same bytes: auto-assigned MACs
        are a function of the build, not of what the process built
        before it."""
        def macs():
            _world, topo = three_hop()
            return [(d.node, d.segment, d.mac)
                    for d in topo.discover().devices]
        first, second = macs(), macs()
        assert first == second
        assert len({mac for _node, _seg, mac in first}) == 6

    def test_adjacency_and_chain(self):
        world, topo = three_hop()
        inv = topo.discover()
        adj = inv.adjacency()
        assert adj["sender"] == ["r1"]
        assert sorted(adj["r1"]) == ["r2", "sender"]
        assert topo.hop_chain("sender", "receiver") == [
            "sender", "r1", "r2", "receiver"]
        assert topo.hop_chain("receiver", "sender") == [
            "receiver", "r2", "r1", "sender"]

    def test_min_mtu_ground_truth(self):
        world, topo = three_hop(mid_mtu=900)
        inv = topo.discover()
        assert inv.min_mtu(["sender", "r1", "r2", "receiver"]) == 900

    def test_render_mentions_everything(self):
        world, topo = three_hop()
        text = topo.discover().render()
        for name in ("sender", "receiver", "r1", "r2", "L1", "L2", "L3"):
            assert name in text

    def test_unreachable_pair_raises(self):
        world = SimWorld(seed=5)
        topo = Topology(world)
        topo.segment("LA", mtu=1500)
        topo.segment("LB", mtu=1500)
        topo.host("a", "LA", "10.0.1.1")
        topo.host("b", "LB", "10.0.2.1")
        with pytest.raises(ValueError):
            topo.hop_chain("a", "b")


class TestProvisionPlumbing:
    def test_chain_and_ports_recorded(self):
        world, topo = three_hop()
        pp = topo.provision("sender", "receiver", remote_port=7777,
                            pmtud=False)
        assert pp.chain == ["sender", "r1", "r2", "receiver"]
        assert pp.dport == 7777
        assert str(pp.dst_ip) == "10.0.3.1"

    def test_gateways_were_set(self):
        world, topo = three_hop()
        topo.provision("sender", "receiver", pmtud=False)
        assert str(topo.hosts["sender"].ip.gateway) == "10.0.1.254"
        assert str(topo.hosts["receiver"].ip.gateway) == "10.0.3.254"

    def test_direct_hosts_provision_without_routers(self):
        world, topo = single_hop()
        pp = topo.provision("sender", "receiver", pmtud=True)
        assert pp.chain == ["sender", "receiver"]
        assert pp.pmtu == 1500  # nothing constricts a single wire
        pp.send_stream(b"q" * 3000)
        world.run_for(1_000_000)
        assert pp.received_bytes() == b"q" * 3000
