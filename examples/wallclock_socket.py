#!/usr/bin/env python
"""Wall-clock edge: serve real UDP loopback traffic through a Scout kernel.

Everything in the other examples runs on simulated virtual time.  This
one crosses the wall-clock edge (DESIGN.md §18): the same kernel — same
router graph, same path machinery, same scheduler, same drop ledgers —
is pumped from an asyncio loop, and frames arrive from an actual UDP
socket on the loopback interface instead of the simulated segment.

An external sender (a plain ``socket.socket`` below, standing in for a
remote load generator) blasts ETH/IP/UDP frames at the kernel's socket
device; the kernel classifies and delivers them, and at the end the
books reconcile exactly: accepted = delivered + dropped, with the
wall-clock bridge reporting how much virtual CPU the load cost per real
second.

Run:  python examples/wallclock_socket.py
"""

import asyncio
import socket

from repro.api import EthAddr, IpAddr, Scout, build_udp_frame

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100
FRAMES = 50


def loopback_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


async def main() -> None:
    async with Scout(seed=7, backend="socket") as scout:
        print("socket device bound:", scout.device.address)

        # The external load generator: any process that can sendto().
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sender.bind(("127.0.0.1", 0))

        # Teach the kernel its neighbour: ARP (IP -> MAC) plus the
        # socket device's MAC -> UDP address table for replies.
        scout.add_peer(REMOTE_IP, REMOTE_MAC, sender.getsockname())
        scout.kernel.start_udp_sink(SINK_PORT, (str(REMOTE_IP), 7000))

        drops = []
        scout.kernel.drop_hook = lambda msg, category: drops.append(category)

        for seq in range(FRAMES):
            frame = build_udp_frame(REMOTE_MAC, LOCAL_MAC,
                                    REMOTE_IP, LOCAL_IP,
                                    7000, SINK_PORT,
                                    b"wallclock-%06d" % seq)
            sender.sendto(frame, scout.device.address)

        # Pump arrivals into rx_burst until the books balance (or 5s).
        deadline = asyncio.get_running_loop().time() + 5.0
        while (len(scout.kernel.test.received) + len(drops)
               < scout.device.rx_frames
               or scout.device.rx_frames < FRAMES):
            if asyncio.get_running_loop().time() >= deadline:
                break
            await scout.serve(seconds=0.05)
        sender.close()

        delivered = len(scout.kernel.test.received)
        print(f"delivered {delivered}/{FRAMES} frames "
              f"({scout.kernel.test.bytes_received} payload bytes)")
        print(f"device: rx={scout.device.rx_frames} "
              f"tx={scout.device.tx_frames} "
              f"drops={scout.device.drop_ledger()}")
        print(f"kernel drops: {drops}")
        assert scout.device.rx_frames == delivered + len(drops), \
            "books must reconcile: accepted = delivered + dropped"
        snap = scout.wallclock()
        print(f"wall-clock bridge: {snap['virtual_cpu_s'] * 1e6:.0f} "
              f"virtual CPU us over {snap['wall_s']:.3f} real seconds")
        print("books reconcile: accepted = delivered + dropped")


if __name__ == "__main__":
    if loopback_available():
        asyncio.run(main())
    else:
        print("loopback sockets unavailable; skipping wall-clock demo")
