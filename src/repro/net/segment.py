"""The simulated Ethernet segment, NICs, and lightweight remote hosts.

The paper's testbed had the Scout/Linux machine plus remote hosts (the
MPEG source, the ``ping -f`` sender) on one Ethernet.  Here:

* :class:`EtherSegment` is the shared 10 Mb/s medium: serialization time,
  propagation latency, optional jitter, broadcast;
* :class:`NetDevice` is the NIC of the machine under test — every frame
  delivery raises a CPU **interrupt** on that machine's virtual CPU, which
  is where the two kernels start to differ;
* :class:`HostAgent` is a remote host that is *not* CPU-modeled (the
  paper's load generators were separate machines); it reacts to frames
  after a fixed service delay.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from .. import params
from ..sim.cpu import CPU
from ..sim.engine import Engine
from .addresses import EthAddr, IpAddr

_BROADCAST = EthAddr.BROADCAST.to_bytes()


class EtherSegment:
    """A shared broadcast medium with finite bandwidth.

    Frames serialize onto the wire one at a time (a global busy pointer
    bounds aggregate throughput at the configured bandwidth); delivery
    happens after serialization + propagation latency + jitter.

    Endpoints are keyed by their MAC's six wire bytes, so a frame's
    destination is looked up as it sits in the frame, and a delivery is
    an engine event without a cancel handle (a frame on the wire is never
    taken back).
    """

    def __init__(self, engine: Engine,
                 bandwidth_mbps: float = params.ETH_BANDWIDTH_MBPS,
                 latency_us: float = params.ETH_LINK_LATENCY_US,
                 jitter_us: float = 0.0,
                 loss_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        if bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self.engine = engine
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_us = latency_us
        self.jitter_us = jitter_us
        #: Fraction of frames silently lost in transit (failure injection
        #: for the ordered-but-unreliable MFLOW/decoder behaviour).
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._endpoints: Dict[bytes, "Endpoint"] = {}
        self._wire_free_at = 0.0
        self._last_arrival = 0.0
        # statistics
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_lost = 0

    def attach(self, endpoint: "Endpoint") -> None:
        mac = endpoint.mac.to_bytes()
        if mac in self._endpoints:
            raise ValueError(f"duplicate MAC on segment: {endpoint.mac}")
        self._endpoints[mac] = endpoint
        endpoint.segment = self

    def endpoints(self) -> List["Endpoint"]:
        return list(self._endpoints.values())

    def serialization_us(self, nbytes: int) -> float:
        """Wire time for *nbytes* at the segment bandwidth."""
        return (nbytes * 8) / self.bandwidth_mbps  # Mb/s == bits/us

    def transmit(self, frame: bytes, src: EthAddr) -> float:
        """Put *frame* on the wire; returns the delivery time.

        The destination is read from the frame's first six bytes;
        broadcast frames go to every endpoint except the sender.
        """
        size = len(frame)
        if size < 14:
            raise ValueError(f"runt frame ({size} bytes)")
        engine = self.engine
        start = max(engine.now, self._wire_free_at)
        end = start + (size * 8) / self.bandwidth_mbps  # serialization_us
        self._wire_free_at = end
        if self.loss_rate and float(self.rng.random()) < self.loss_rate:
            self.frames_lost += 1
            return end  # the wire time was spent; the frame was not
        arrival = end + self.latency_us
        if self.jitter_us > 0:
            # Jitter models queueing delay, which is FIFO: it never
            # reorders frames (a shared Ethernet does not reorder).
            arrival += float(self.rng.uniform(0, self.jitter_us))
            arrival = max(arrival, self._last_arrival + 1e-6)
            self._last_arrival = arrival
        self.frames_carried += 1
        self.bytes_carried += size
        dst = frame[:6]
        if dst == _BROADCAST:
            sender = src.to_bytes()
            for mac, endpoint in self._endpoints.items():
                if mac != sender:
                    engine.call_at(arrival, endpoint.receive, frame)
        else:
            endpoint = self._endpoints.get(dst)
            if endpoint is not None:
                engine.call_at(arrival, endpoint.receive, frame)
            # Frames to unknown MACs vanish, as on a real wire.
        return arrival


class Endpoint:
    """Anything attachable to a segment: has a MAC, receives frames."""

    def __init__(self, mac: EthAddr):
        self.mac = EthAddr(mac)
        self.segment: Optional[EtherSegment] = None

    def send(self, frame: bytes) -> None:
        if self.segment is None:
            raise RuntimeError(f"{self!r} is not attached to a segment")
        self.segment.transmit(frame, self.mac)

    def receive(self, frame: bytes) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class NetDevice(Endpoint):
    """The NIC of the machine under test.

    Frame arrival raises an interrupt on the machine's CPU: the IRQ
    overhead is stolen from whatever the CPU was doing, and the kernel's
    ``rx_handler`` runs at interrupt level (this is where Scout classifies
    and Linux does its softirq work).
    """

    def __init__(self, mac: EthAddr, cpu: CPU, name: str = "eth0",
                 irq_us: float = params.IRQ_OVERHEAD_US):
        super().__init__(mac)
        self.cpu = cpu
        self.name = name
        self.irq_us = irq_us
        self.rx_handler: Optional[Callable[[bytes], None]] = None
        # statistics
        self.rx_frames = 0
        self.tx_frames = 0
        self.rx_missed = 0

    def receive(self, frame: bytes) -> None:
        self.rx_frames += 1
        if self.rx_handler is None:
            self.rx_missed += 1
            return
        self.cpu.interrupt(self.irq_us, self.rx_handler, frame)

    def send(self, frame: bytes) -> None:
        self.tx_frames += 1
        super().send(frame)

    def __repr__(self) -> str:
        return f"<NetDevice {self.name} {self.mac} rx={self.rx_frames}>"


class HostAgent(Endpoint):
    """A remote host that reacts to frames after a service delay.

    Subclasses override :meth:`handle_frame`.  The host filters on its own
    MAC/broadcast, like a real non-promiscuous adapter.
    """

    def __init__(self, engine: Engine, mac: EthAddr, ip: IpAddr,
                 service_us: float = params.REMOTE_HOST_SERVICE_US):
        super().__init__(mac)
        self.engine = engine
        self.ip = IpAddr(ip)
        self.service_us = service_us
        self.frames_seen = 0

    def receive(self, frame: bytes) -> None:
        dst = frame[:6]
        if dst != self.mac.to_bytes() and dst != _BROADCAST:
            return
        self.frames_seen += 1
        self.engine.schedule(self.service_us, self.handle_frame, frame)

    def handle_frame(self, frame: bytes) -> None:  # pragma: no cover - abstract
        raise NotImplementedError
