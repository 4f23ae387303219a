"""Unit tests for the UDP-socket network device (repro.net.sockdev).

Every test binds to the loopback interface; the module self-skips in
environments where that is not permitted (sandboxes without sockets).
"""

import asyncio
import socket

import pytest

from repro.net import sockdev
from repro.net.addresses import EthAddr
from repro.net.sockdev import SocketNetDevice
from .conftest import accounted, requires_loopback

MAC_A = EthAddr("02:00:00:00:00:0a")
MAC_B = EthAddr("02:00:00:00:00:0b")


pytestmark = requires_loopback


def run(coro):
    return asyncio.run(coro)


def frame_to(dst: EthAddr, src: EthAddr, payload: bytes = b"") -> bytes:
    return dst.to_bytes() + src.to_bytes() + b"\x08\x00" + payload


def numbered(count: int):
    return [frame_to(MAC_A, MAC_B, b"%04d" % i) for i in range(count)]


def udp_sender() -> socket.socket:
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender.bind(("127.0.0.1", 0))
    return sender


async def until(predicate, timeout: float = 2.0) -> None:
    """Let the loop turn until *predicate* holds (loopback delivery is
    asynchronous to the loop, so tests poll, never sleep-pray)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0)
    assert predicate()


class _RaisingSock:
    """Stands in for the device's socket: every call raises *exc*."""

    def __init__(self, exc: Exception):
        self.exc = exc

    def recvfrom(self, bufsize):
        raise self.exc

    def sendto(self, data, addr):
        raise self.exc


class TestOpenClose:
    def test_open_binds_and_reports_address(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            host, port = await dev.open()
            assert host == "127.0.0.1"
            assert port > 0
            assert dev.is_open
            dev.close()
            assert not dev.is_open

        run(main())

    def test_close_is_idempotent(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            await dev.open()
            dev.close()
            dev.close()

        run(main())

    def test_send_after_close_is_ledgered(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            await dev.open()
            dev.close()
            dev.send(frame_to(MAC_B, MAC_A))
            assert dev.drop_ledger() == {"tx_closed": 1}

        run(main())


class TestReceive:
    def test_roundtrip_between_two_devices(self):
        async def main():
            a = SocketNetDevice(MAC_A, name="a")
            b = SocketNetDevice(MAC_B, name="b")
            await a.open()
            addr_b = await b.open()
            a.add_peer(MAC_B, addr_b)
            payload = frame_to(MAC_B, MAC_A, b"hello")
            a.send(payload)
            burst = await b.next_burst(timeout=2.0)
            assert burst == [payload]
            assert a.tx_frames == 1
            assert b.rx_frames == 1
            # b learned a's MAC->address mapping from the frame source
            assert str(MAC_A) in b.peers()
            a.close()
            b.close()

        run(main())

    def test_runt_datagram_ledgered(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sender.sendto(b"short", addr)
            burst = await dev.next_burst(timeout=0.3)
            assert burst == []
            assert dev.drop_ledger() == {"rx_runt": 1}
            assert dev.rx_frames == 0
            sender.close()
            dev.close()

        run(main())

    def test_frame_for_other_mac_is_missed(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sender.sendto(frame_to(MAC_B, MAC_B, b"not-mine"), addr)
            burst = await dev.next_burst(timeout=0.3)
            assert burst == []
            assert dev.rx_missed == 1
            assert dev.drop_ledger() == {}
            sender.close()
            dev.close()

        run(main())

    def test_broadcast_is_accepted(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            bcast = frame_to(EthAddr("ff:ff:ff:ff:ff:ff"), MAC_B, b"all")
            sender.sendto(bcast, addr)
            burst = await dev.next_burst(timeout=2.0)
            assert burst == [bcast]
            sender.close()
            dev.close()

        run(main())

    def test_woken_timed_wait_cancels_its_timer(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = udp_sender()
            sender.sendto(numbered(1)[0], addr)
            assert len(await dev.next_burst(timeout=0.05)) == 1
            # A stale timer from the wait above would resolve this one.
            parked = asyncio.ensure_future(dev.next_burst())
            await asyncio.sleep(0.1)
            assert not parked.done()
            dev.close()
            assert await parked == []
            sender.close()

        run(main())

    def test_ring_overflow_ledgered(self):
        async def main():
            dev = SocketNetDevice(MAC_A, rx_ring=2)
            # Bypass the socket: deliver datagrams straight to the
            # protocol hook so the overflow is deterministic.
            await dev.open()
            for i in range(5):
                dev._on_datagram(frame_to(MAC_A, MAC_B, b"%d" % i),
                                 ("127.0.0.1", 9))
            assert dev.pending() == 2
            assert dev.drop_ledger() == {"rx_overflow": 3}
            assert dev.rx_frames == 2
            dev.close()

        run(main())


class TestBursts:
    """One wake drains the socket: a burst is what the kernel's socket
    buffer held.  Counts here repeat exactly."""

    def test_backlog_comes_back_as_one_burst_in_send_order(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = udp_sender()
            frames = numbered(64)
            for frame in frames:  # the loop does not run between these
                sender.sendto(frame, addr)
            assert await dev.next_burst(limit=64, timeout=2.0) == frames
            assert dev.pending() == 0 and dev.rx_frames == 64
            sender.close()
            dev.close()

        run(main())

    def test_one_in_flight_gives_bursts_of_one(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = udp_sender()
            for frame in numbered(10):
                sender.sendto(frame, addr)
                assert await dev.next_burst(limit=64, timeout=2.0) == [frame]
            sender.close()
            dev.close()

        run(main())

    def test_limit_leaves_the_rest_pending(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = udp_sender()
            frames = numbered(10)
            for frame in frames:
                sender.sendto(frame, addr)
            assert await dev.next_burst(limit=4, timeout=2.0) == frames[:4]
            assert dev.pending() == 6
            assert await dev.next_burst(limit=64) == frames[4:]
            sender.close()
            dev.close()

        run(main())

    def test_overflow_through_the_real_socket(self):
        ring, extra = 8, 5

        async def main():
            dev = SocketNetDevice(MAC_A, rx_ring=ring)
            addr = await dev.open()
            sender = udp_sender()
            frames = numbered(ring + extra)
            for frame in frames:
                sender.sendto(frame, addr)
            # Nobody reads the ring: the first wake fills it, the second
            # finds it full.
            await until(lambda: accounted(dev) == ring + extra)
            assert dev.rx_frames == ring
            assert dev.drop_ledger() == {"rx_overflow": extra}
            assert await dev.next_burst(limit=64) == frames[:ring]
            sender.close()
            dev.close()

        run(main())

    def test_close_with_a_parked_waiter(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            await dev.open()
            parked = asyncio.ensure_future(dev.next_burst())
            await asyncio.sleep(0)
            assert not parked.done()
            dev.close()
            assert await parked == []

        run(main())

    def test_close_between_two_wakes_of_a_burst(self):
        async def main():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context))
            dev = SocketNetDevice(MAC_A, rx_ring=4)
            addr = await dev.open()
            sender = udp_sender()
            frames = numbered(8)
            for frame in frames:
                sender.sendto(frame, addr)
            # The first wake read rx_ring datagrams; the socket is still
            # readable, so the second is already queued behind this task.
            assert await dev.next_burst(limit=2, timeout=2.0) == frames[:2]
            dev.close()
            await asyncio.sleep(0.02)
            assert dev.rx_frames == 4 and dev.drop_ledger() == {}
            assert await dev.next_burst() == frames[2:4]
            assert await dev.next_burst() == []
            assert errors == []
            sender.close()

        run(main())


class TestPeerTable:
    def test_learned_peers_are_capped_oldest_first(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(sockdev, "MAX_LEARNED_PEERS", cap)

        async def main():
            dev = SocketNetDevice(MAC_A)
            addr = await dev.open()
            sender = udp_sender()
            sender.settimeout(2.0)
            dev.add_peer(MAC_B, sender.getsockname())
            sprayed = [EthAddr(b"\x02\x99\x00\x00" + i.to_bytes(2, "big"))
                       for i in range(10 * cap)]
            for mac in sprayed:
                sender.sendto(frame_to(MAC_A, mac), addr)
            await until(lambda: accounted(dev) == len(sprayed))
            assert set(dev.peers()) == \
                {str(MAC_B)} | {str(mac) for mac in sprayed[-cap:]}
            # The seeded entry survived the spray and still routes.
            reply = frame_to(MAC_B, MAC_A, b"still-here")
            dev.send(reply)
            assert sender.recv(2048) == reply
            assert dev.tx_frames == 1
            sender.close()
            dev.close()

        run(main())

    def test_seeding_a_learned_mac_pins_it(self, monkeypatch):
        monkeypatch.setattr(sockdev, "MAX_LEARNED_PEERS", 2)

        async def main():
            dev = SocketNetDevice(MAC_A)
            await dev.open()
            there = ("127.0.0.1", 9)
            dev._on_datagram(frame_to(MAC_A, MAC_B), there)
            dev.add_peer(MAC_B, there)
            for i in range(4):
                dev._on_datagram(
                    frame_to(MAC_A, EthAddr(b"\x02\x99\x00\x00\x00" +
                                            bytes([i]))), there)
            assert str(MAC_B) in dev.peers()
            assert len(dev.peers()) == 3
            dev.close()

        run(main())


class TestTransmit:
    def test_unknown_destination_ledgered(self):
        async def main():
            dev = SocketNetDevice(MAC_A)
            await dev.open()
            dev.send(frame_to(MAC_B, MAC_A, b"nowhere"))
            assert dev.drop_ledger() == {"tx_unroutable": 1}
            assert dev.tx_frames == 0
            dev.close()

        run(main())

    def test_metrics_binding_counts_drops(self):
        from repro.observe.metrics import MetricsRegistry

        async def main():
            dev = SocketNetDevice(MAC_A, name="m0")
            registry = MetricsRegistry()
            dev.bind_metrics(registry)
            await dev.open()
            dev.send(frame_to(MAC_B, MAC_A))
            dev.close()
            counter = registry.get("sockdev_drops", device="m0",
                                   reason="tx_unroutable")
            assert counter is not None and counter.value == 1

        run(main())

    def test_every_loss_reaches_ledger_and_counter(self):
        from repro.observe.metrics import MetricsRegistry

        async def main():
            dev = SocketNetDevice(MAC_A, name="m1", rx_ring=1)
            registry = MetricsRegistry()
            dev.bind_metrics(registry)
            addr = await dev.open()
            sender = udp_sender()
            dev.add_peer(MAC_B, sender.getsockname())
            sender.sendto(b"runt", addr)                         # rx_runt
            for frame in numbered(3):                            # rx_overflow x2
                sender.sendto(frame, addr)
            await until(lambda: accounted(dev) == 4)
            dev.send(frame_to(MAC_A, MAC_A))                     # tx_unroutable
            dev.send(frame_to(MAC_B, MAC_A, bytes(70_000)))      # EMSGSIZE
            real, dev._sock = dev._sock, _RaisingSock(BlockingIOError())
            dev.send(frame_to(MAC_B, MAC_A))                     # tx_full
            dev._sock = _RaisingSock(ConnectionRefusedError())
            dev._on_readable()                                   # sock_error
            dev._sock = real
            dev.close()
            dev.send(frame_to(MAC_B, MAC_A))                     # tx_closed
            sender.close()
            ledger = dev.drop_ledger()
            assert ledger == {"rx_runt": 1, "rx_overflow": 2,
                              "tx_unroutable": 1, "sock_error": 2,
                              "tx_full": 1, "tx_closed": 1}
            assert dev.tx_frames == 0
            for reason, count in ledger.items():
                counter = registry.get("sockdev_drops", device="m1",
                                       reason=reason)
                assert counter is not None and counter.value == count

        run(main())

    def test_rx_ring_must_be_positive(self):
        with pytest.raises(ValueError):
            SocketNetDevice(MAC_A, rx_ring=0)
