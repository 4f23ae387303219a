"""The loopback acceptance demo: a real UDP sender drives a real Scout.

An external sender — a plain ``socket.socket`` in this test process,
standing in for a remote load generator — blasts ETH/IP/UDP frames at
``Scout(backend="socket")`` over the loopback interface.  The kernel
classifies, admits and delivers them through the same path machinery
and scheduler tier-1 exercises in virtual time, and the books
must reconcile *exactly*: every frame the device accepted is either
delivered to the TEST sink or accounted in a drop ledger, and the
socket-level ledger itself lands in the metrics registry.

Skipped wholesale where loopback sockets are unavailable.
"""

import asyncio
import socket

import pytest

from repro.api import EthAddr, IpAddr, Scout, build_udp_frame
from .conftest import requires_loopback

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100


pytestmark = requires_loopback


def udp_frame(sequence: int, dport: int = SINK_PORT) -> bytes:
    payload = b"loop-%06d" % sequence
    return build_udp_frame(REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP,
                           7000, dport, payload)


async def _pump_until(scout: Scout, predicate, timeout: float = 5.0):
    """Serve in slices until *predicate* holds (or the timeout runs out:
    loopback delivery is asynchronous, so tests poll, never sleep-pray)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await scout.serve(seconds=0.05)


def _record_sizes(obj, name: str, sizes: list) -> None:
    """Wrap ``obj.name`` on the instance: note ``len()`` of its first
    argument per call."""
    original = getattr(obj, name)

    def spy(items, *args):
        sizes.append(len(items))
        return original(items, *args)

    setattr(obj, name, spy)


class TestLoopbackDelivery:
    def test_external_sender_reconciles_exactly(self):
        sent = 30

        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                drops = []
                scout.kernel.drop_hook = \
                    lambda msg, category: drops.append(category)
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.bind(("127.0.0.1", 0))
                scout.add_peer(REMOTE_IP, REMOTE_MAC,
                               sender.getsockname())
                scout.kernel.start_udp_sink(SINK_PORT,
                                            (str(REMOTE_IP), 7000))
                payloads = []
                for seq in range(sent):
                    frame = udp_frame(seq)
                    payloads.append(b"loop-%06d" % seq)
                    sender.sendto(frame, scout.device.address)
                # stray frame for a port no sink owns: must be ledgered,
                # not silently lost
                sender.sendto(udp_frame(999, dport=6999),
                              scout.device.address)
                device = scout.device
                await _pump_until(
                    scout,
                    lambda: (len(scout.kernel.test.received) + len(drops)
                             >= device.rx_frames
                             and device.rx_frames + device.rx_missed
                             + sum(device.drop_ledger().values())
                             >= sent + 1))
                sender.close()

                test = scout.kernel.test
                delivered = [msg.to_bytes() for msg in test.received]
                # Exact reconciliation: every frame the device accepted
                # is either delivered or in a drop ledger.
                assert device.rx_frames == len(delivered) + len(drops)
                # Delivered payloads are exactly the sent ones, in order.
                assert delivered == payloads
                assert test.bytes_received == sum(map(len, payloads))
                # The stray-port frame is the only admission drop.
                assert drops == ["unclassified"]
                # The wall-clock bridge published into the registry.
                snap = scout.wallclock()
                assert snap["virtual_cpu_s"] > 0
                registry = scout.kernel.observatory.metrics
                gauge = registry.get("wallclock_virtual_cpu_s")
                assert gauge is not None and gauge.value > 0

        asyncio.run(main())

    def test_socket_level_drops_land_in_registry(self):
        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.sendto(b"runt", scout.device.address)
                device = scout.device
                await _pump_until(
                    scout, lambda: device.drop_ledger().get("rx_runt", 0) > 0,
                    timeout=2.0)
                sender.close()
                assert device.drop_ledger() == {"rx_runt": 1}
                registry = scout.kernel.observatory.metrics
                counter = registry.get("sockdev_drops", device="sock0",
                                       reason="rx_runt")
                assert counter is not None and counter.value == 1

        asyncio.run(main())

    def test_kernel_replies_reach_the_sender(self):
        # The TX side: the kernel's sink sends nothing by itself, but an
        # ICMP echo does generate a reply frame that must come back to
        # the sender's socket through the peer table.
        from repro.net.packets import build_icmp_echo

        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.bind(("127.0.0.1", 0))
                sender.settimeout(5.0)
                scout.add_peer(REMOTE_IP, REMOTE_MAC,
                               sender.getsockname())
                echo = build_icmp_echo(REMOTE_MAC, LOCAL_MAC, REMOTE_IP,
                                       LOCAL_IP, ident=7, seq=1,
                                       payload=b"ping-me")
                sender.sendto(echo, scout.device.address)
                device = scout.device
                await _pump_until(scout,
                                  lambda: device.tx_frames > 0)
                reply = await asyncio.get_running_loop().run_in_executor(
                    None, sender.recv, 2048)
                assert b"ping-me" in reply
                assert device.tx_frames == 1
                sender.close()

        asyncio.run(main())


class TestBurstsReachTheKernel:
    def test_backlog_is_one_rx_burst_and_one_batch_per_sink(self):
        flows, per_flow = 4, 16

        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.bind(("127.0.0.1", 0))
                scout.add_peer(REMOTE_IP, REMOTE_MAC, sender.getsockname())
                bursts, batches = [], {}
                _record_sizes(scout.kernel, "rx_burst", bursts)
                for flow in range(flows):
                    path = scout.kernel.start_udp_sink(
                        SINK_PORT + flow, (str(REMOTE_IP), 7000 + flow),
                        batch=per_flow, inq_len=256)
                    batches[flow] = []
                    _record_sizes(path, "deliver_batch", batches[flow])
                # The whole backlog is in the socket before serve() runs.
                for seq in range(flows * per_flow):
                    sender.sendto(
                        build_udp_frame(REMOTE_MAC, LOCAL_MAC, REMOTE_IP,
                                        LOCAL_IP, 7000 + seq % flows,
                                        SINK_PORT + seq % flows,
                                        b"burst-%04d" % seq),
                        scout.device.address)
                received = scout.kernel.test.received
                await _pump_until(
                    scout, lambda: len(received) == flows * per_flow)
                sender.close()
                assert bursts == [flows * per_flow]
                assert batches == {flow: [per_flow] for flow in range(flows)}
                assert scout.device.rx_frames == len(received) \
                    == flows * per_flow

        asyncio.run(main())


class TestSchedulingReachesTheEdge:
    """The socket backend runs the deterministic scheduler, so what a
    path asks of it (priority, virtual time, a loud failure) holds for
    real packets too."""

    def test_rr_priority_orders_service(self):
        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                scout.add_peer(REMOTE_IP, REMOTE_MAC)
                for flow, priority in ((0, 5), (1, 0)):
                    scout.kernel.start_udp_sink(
                        SINK_PORT + flow, (str(REMOTE_IP), 7000),
                        priority=priority)
                # Frames 0-3 to the priority-5 sink, then 4-7 to the
                # priority-0 sink: low priority first in, last out.
                scout.kernel.rx_burst([udp_frame(seq, SINK_PORT + seq // 4)
                                       for seq in range(8)])
                await scout.settle()
                assert [msg.to_bytes()
                        for msg in scout.kernel.test.received] == \
                    [b"loop-%06d" % seq for seq in (4, 5, 6, 7, 0, 1, 2, 3)]
                assert scout.world.now > 0

        asyncio.run(main())

    def test_raising_thread_body_fails_serve(self):
        def broken(*args, **kwargs):
            raise RuntimeError("sink broke")

        async def main():
            async with Scout(seed=11, backend="socket") as scout:
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sender.bind(("127.0.0.1", 0))
                scout.add_peer(REMOTE_IP, REMOTE_MAC, sender.getsockname())
                path = scout.kernel.start_udp_sink(
                    SINK_PORT, (str(REMOTE_IP), 7000), specialize=False)
                # A path thread hands even a batch of one to deliver_batch.
                path.deliver_batch = broken
                sender.sendto(udp_frame(0), scout.device.address)
                sender.close()
                with pytest.raises(RuntimeError, match="sink broke"):
                    await asyncio.wait_for(scout.serve(), timeout=5.0)

        asyncio.run(main())
