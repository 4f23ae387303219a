#!/usr/bin/env python
"""Quickstart: build a router graph, create a path, move a message.

This walks the core abstractions of *Making Paths Explicit in the Scout
Operating System* in ~80 lines: a spec-file router graph, incremental
path creation from invariants, bidirectional traversal, and the packet
classifier.

Run:  python examples/quickstart.py
"""

from repro.api import (
    BWD,
    FWD,
    EthAddr,
    IpAddr,
    Msg,
    PA_LOCAL_PORT,
    PA_NET_PARTICIPANTS,
    PathBuilder,
    Scout,
    build_graph,
    build_udp_frame,
    classify,
    parse_frame,
)

# ---------------------------------------------------------------------------
# 1. Configure a router graph with the paper's spec-file language.
#    (Figure 6's IP/ARP/ETH wiring, plus UDP and a TEST source/sink.)
# ---------------------------------------------------------------------------
SPEC = """
router ETH  { class = EthRouter;  service = {up:net};
              params = {mac: "02:00:00:00:00:01"}; }
router ARP  { class = ArpRouter;  service = {resolver:nsProvider, <down:net}; }
router IP   { class = IpRouter;   service = {up:net, <down:net, <res:nsClient};
              params = {addr: "10.0.0.1"}; }
router UDP  { class = UdpRouter;  service = {up:net, <down:net}; }
router TEST { class = TestRouter; service = {<down:net}; }

connect IP.down  ETH.up;
connect IP.res   ARP.resolver;
connect ARP.down ETH.up;
connect UDP.down IP.up;
connect TEST.down UDP.up;
"""


def main() -> None:
    graph = build_graph(SPEC)
    print("router graph booted:", sorted(graph.routers))

    # The ARP table would be populated by the wire; preload the peer.
    graph.router("ARP").add_entry("10.0.0.2", "02:00:00:00:00:02")

    # -----------------------------------------------------------------------
    # 2. Create a path from invariants.  The builder's attributes say
    #    *who* we talk to; each router freezes the routing decisions those
    #    invariants allow (IP checks the peer is on the local network,
    #    resolves its MAC through ARP's resolver service, and so on).
    # -----------------------------------------------------------------------
    path = (PathBuilder(graph.router("TEST"))
            .invariant(PA_NET_PARTICIPANTS, ("10.0.0.2", 7000))
            .invariant(PA_LOCAL_PORT, 6100)
            .build())
    print(f"created {path!r}")
    print(f"  stages: {' -> '.join(path.routers())}")
    print(f"  modeled footprint: {path.modeled_size()} bytes "
          f"(paper: ~300 + ~150/stage)")

    # -----------------------------------------------------------------------
    # 3. Send: deliver a message in the FWD direction.  Each stage pushes
    #    its header; the ETH stage would hand the frame to the adapter —
    #    here we intercept it to show the result.
    # -----------------------------------------------------------------------
    wire = []
    graph.router("ETH").transmit = lambda msg: wire.append(msg.to_bytes())
    path.deliver(Msg(b"hello, scout"), FWD)
    parsed = parse_frame(wire[0])
    print(f"sent frame: {parsed.eth} / {parsed.ip} / {parsed.udp} "
          f"payload={parsed.payload!r}")

    # -----------------------------------------------------------------------
    # 4. Receive: classify an incoming frame to a path (the demux chain:
    #    ETH by ethertype, IP by protocol, UDP by port), then traverse the
    #    path in the BWD direction; each stage pops its header.
    # -----------------------------------------------------------------------
    frame = build_udp_frame(EthAddr("02:00:00:00:00:02"),
                            EthAddr("02:00:00:00:00:01"),
                            IpAddr("10.0.0.2"), IpAddr("10.0.0.1"),
                            7000, 6100, b"welcome back")
    msg = Msg(frame)
    found = classify(graph.router("ETH"), msg)
    print(f"classified to path #{found.pid} (same path: {found is path})")
    found.deliver(msg, BWD)
    received = graph.router("TEST").received[0]
    print(f"TEST sink received: {received.to_bytes()!r}")

    # -----------------------------------------------------------------------
    # 5. The same flow, kernel-hosted.  Scout() boots the full machine on
    #    a virtual-time world; the context manager is the supported
    #    lifecycle (construction opens it, leaving the block closes it).
    #    Scout(backend="socket") would serve real UDP loopback traffic
    #    through the same kernel instead — see wallclock_socket.py.
    # -----------------------------------------------------------------------
    with Scout(seed=7, udp_sink=True, display=False) as scout:
        scout.add_peer("10.0.0.2", "02:00:00:00:00:02")
        scout.kernel.start_udp_sink(6100, ("10.0.0.2", 7000))
        scout.kernel.rx_burst([frame])
        scout.world.run_until_idle()
        delivered = scout.kernel.test.received[0]
        print(f"kernel-hosted sink delivered: {delivered.to_bytes()!r}")


if __name__ == "__main__":
    main()
