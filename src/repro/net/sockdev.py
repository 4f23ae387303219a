"""A Scout network device over real UDP sockets.

The simulated :class:`~repro.net.segment.NetDevice` delivers frames by
virtual-time events; this device delivers them from an actual socket.
Each UDP **datagram is one Ethernet frame**: peers exchange the same
14-byte-header frames the simulated segment carries, tunneled over
UDP/loopback (the standard trick for running an L2 stack in userspace
without raw-socket privileges).  Everything above the device — ethernet
demux, IP, UDP, the paths themselves — is byte-identical to the
simulated stack, which is what makes the socket backend a *backend* and
not a second implementation.

Receive side: the device owns a non-blocking socket and one
``loop.add_reader`` readiness callback.  Each wake drains the socket to
``EAGAIN`` — at most ``rx_ring`` datagrams, so a flood cannot starve the
loop — through the device filter into a bounded ring, then signals the
:meth:`next_burst` waiter **once**: a burst is what the kernel's socket
buffer held, not one datagram.  The Scout serve loop
(``repro.api.Scout.serve``) awaits :meth:`next_burst` and hands each
burst to ``kernel.rx_burst`` — the same interrupt-time classify/admit
code the simulated device feeds.  When the ring is full the frame is
dropped at the device, and *ledgered* (``rx_overflow``): socket-backend
drops reconcile exactly like simulated ones (DESIGN.md §18).

Transmit side: ``send(frame)`` resolves the destination MAC against a
peer table learned from received traffic (source MAC → UDP address, at
most :data:`MAX_LEARNED_PEERS` entries, oldest out first) or seeded via
:meth:`add_peer` (never evicted), then ``sendto``.  Frames to unknown
MACs are ledgered (``tx_unroutable``), mirroring a real NIC's inability
to reach a host no switch has seen; a socket buffer that would block is
ledgered too (``tx_full``), never queued without bound.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .addresses import EthAddr

__all__ = ["SocketNetDevice"]

_BROADCAST = b"\xff" * 6
_ETH_HEADER = 14
_MAX_DATAGRAM = 65535

#: Cap on MAC -> address entries learned from received traffic (a sender
#: spraying source MACs must not grow the table without limit).
MAX_LEARNED_PEERS = 1024


class SocketNetDevice:
    """A ``NetDevice``-shaped endpoint backed by a real UDP socket.

    Parameters
    ----------
    mac:
        This device's MAC address (frames to other MACs — broadcast
        aside — are counted ``rx_missed`` like the simulated device's
        filter would).
    host, port:
        Bind address.  ``port=0`` lets the OS pick; read
        :attr:`address` after :meth:`open` for the bound tuple.
    rx_ring:
        Receive ring capacity in frames.  Arrivals beyond it are
        dropped at the device and ledgered as ``rx_overflow``.
    """

    def __init__(self, mac, name: str = "sock0",
                 host: str = "127.0.0.1", port: int = 0,
                 rx_ring: int = 512):
        if rx_ring < 1:
            raise ValueError("rx_ring must be at least 1")
        self.mac = EthAddr(mac)
        self.name = name
        self.host = host
        self.port = port
        self.rx_ring = rx_ring
        self.address: Optional[Tuple[str, int]] = None
        self.rx_handler = None  # kept for NetDevice shape; unused here
        # counters, mirroring net.segment.NetDevice
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_missed = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        #: Socket-level drop ledger: reason -> count.
        self.drops: Dict[str, int] = {}
        self._ring: Deque[bytes] = deque()
        self._rx_waiter: Optional["asyncio.Future"] = None
        self._peers: Dict[bytes, Tuple[str, int]] = {}
        #: The learned subset of ``_peers``, oldest first (eviction order).
        self._learned: Dict[bytes, None] = {}
        self._sock: Optional[socket.socket] = None
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._registry = None

    # -- lifecycle ---------------------------------------------------------

    async def open(self) -> Tuple[str, int]:
        """Bind the socket and register the readiness callback; returns
        the bound ``(host, port)``."""
        if self._sock is not None:
            return self.address
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((self.host, self.port))
        except OSError:
            sock.close()
            raise
        self._sock = sock
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(sock.fileno(), self._on_readable)
        self.address = sock.getsockname()[:2]
        return self.address

    def close(self) -> None:
        """Stop receiving and release the socket (idempotent); frames
        already in the ring stay readable via :meth:`next_burst`."""
        sock, self._sock = self._sock, None
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()
        self._signal_rx()  # unblock a waiter so serve loops can exit

    @property
    def is_open(self) -> bool:
        return self._sock is not None

    # -- receive -----------------------------------------------------------

    def _on_readable(self) -> None:
        """One wake: drain the socket to ``EAGAIN`` (at most ``rx_ring``
        datagrams; readiness is level-triggered, so a remainder wakes the
        loop again), then signal the waiter once for the whole burst."""
        recvfrom = self._sock.recvfrom
        on_datagram = self._on_datagram
        for _ in range(self.rx_ring):
            try:
                data, addr = recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                break
            except OSError:
                self._drop("sock_error")
                break
            on_datagram(data, addr)
        if self._ring:
            self._signal_rx()

    def _on_datagram(self, data: bytes, addr) -> None:
        if len(data) < _ETH_HEADER:
            self._drop("rx_runt")
            return
        # Learn the peer: source MAC -> UDP address, like a switch's CAM.
        src = data[6:12]
        if self._peers.get(src) != addr:
            self._learn(src, addr)
        dst = data[:6]
        if dst != _BROADCAST and dst != self.mac.to_bytes():
            self.rx_missed += 1
            return
        if len(self._ring) >= self.rx_ring:
            self._drop("rx_overflow")
            return
        self.rx_frames += 1
        self.rx_bytes += len(data)
        self._ring.append(data)

    def _learn(self, mac: bytes, addr: Tuple[str, int]) -> None:
        if mac not in self._peers:
            if len(self._learned) >= MAX_LEARNED_PEERS:
                oldest = next(iter(self._learned))
                del self._learned[oldest], self._peers[oldest]
            self._learned[mac] = None
        self._peers[mac] = addr

    def _signal_rx(self) -> None:
        waiter, self._rx_waiter = self._rx_waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def next_burst(self, limit: int = 64,
                         timeout: Optional[float] = None) -> List[bytes]:
        """Await the next burst of frames (up to *limit*).

        Returns an empty list when *timeout* (wall seconds) elapses
        first, or when the device is closed with an empty ring — both
        are the serve loop's cue to check for shutdown.
        """
        if not self._ring:
            if self._sock is None:
                return []
            loop = asyncio.get_running_loop()
            waiter = self._rx_waiter = loop.create_future()
            # The timeout is one timer resolving the same waiter a wake
            # does; an empty ring afterwards is what says it elapsed.
            timer = None if timeout is None else \
                loop.call_later(timeout, self._signal_rx)
            try:
                await waiter
            finally:
                if timer is not None:
                    timer.cancel()
                self._rx_waiter = None
        burst: List[bytes] = []
        while self._ring and len(burst) < limit:
            burst.append(self._ring.popleft())
        return burst

    def pending(self) -> int:
        """Frames sitting in the receive ring."""
        return len(self._ring)

    # -- transmit ----------------------------------------------------------

    def send(self, frame: bytes) -> None:
        """Transmit one frame (the ``EthRouter.transmit`` contract)."""
        sock = self._sock
        if sock is None:
            self._drop("tx_closed")
            return
        frame = bytes(frame)
        dst = frame[:6]
        if dst == _BROADCAST:
            targets = list(self._peers.values())
            if not targets:
                self._drop("tx_unroutable")
                return
        else:
            addr = self._peers.get(dst)
            if addr is None:
                self._drop("tx_unroutable")
                return
            targets = [addr]
        sent = 0
        for addr in targets:
            try:
                sock.sendto(frame, addr)
                sent += 1
            except BlockingIOError:
                self._drop("tx_full")
            except OSError:
                self._drop("sock_error")
        if sent:
            self.tx_frames += 1
            self.tx_bytes += len(frame)

    def add_peer(self, mac, address: Tuple[str, int]) -> None:
        """Pre-seed the MAC -> UDP-address table (the static-ARP
        analogue for L2 reachability)."""
        mac = EthAddr(mac).to_bytes()
        self._learned.pop(mac, None)
        self._peers[mac] = tuple(address)[:2]

    def peers(self) -> Dict[str, Tuple[str, int]]:
        return {str(EthAddr(mac)): addr
                for mac, addr in self._peers.items()}

    # -- ledger ------------------------------------------------------------

    def _drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1
        if self._registry is not None:
            self._registry.counter(
                "sockdev_drops", device=self.name, reason=reason).inc()

    def drop_ledger(self) -> Dict[str, int]:
        """Socket-level drops by reason (a copy)."""
        return dict(self.drops)

    def bind_metrics(self, registry) -> None:
        """Publish drops as ``sockdev_drops{device,reason}`` counters."""
        self._registry = registry
        for reason, count in self.drops.items():
            counter = registry.counter(
                "sockdev_drops", device=self.name, reason=reason)
            if counter.value < count:
                counter.inc(count - counter.value)

    def stats(self) -> Dict[str, Any]:
        return {
            "rx_frames": self.rx_frames,
            "tx_frames": self.tx_frames,
            "rx_bytes": self.rx_bytes,
            "tx_bytes": self.tx_bytes,
            "rx_missed": self.rx_missed,
            "pending": self.pending(),
            "drops": self.drop_ledger(),
        }

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return (f"<SocketNetDevice {self.name} {self.mac} {state} "
                f"addr={self.address} rx={self.rx_frames} "
                f"tx={self.tx_frames}>")
