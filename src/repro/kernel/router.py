"""The router kernel: a Scout appliance built around forwarding paths.

Where :class:`~repro.kernel.scout.ScoutKernel` is the paper's end-host
configuration (Figure 9), :class:`RouterKernel` is its router appliance.
On top of the shared :class:`~repro.kernel.runtime.PathRuntime` it adds
N NICs on N segments, one :class:`~repro.net.forward.ForwardRouter`, and
one short forwarding path per ingress port, entered at that port's ETH
router; the TTL/route/rewrite work is the path's, so a three-hop chain
of routers is just three more kernels in the same sim world.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from .. import params
from ..core.attributes import PA_INQ_LEN, Attrs
from ..core.graph import RouterGraph
from ..core.path import Path
from ..core.path_create import path_create
from ..net.addresses import IpAddr
from ..net.eth import EthRouter
from ..net.forward import PA_FWD_INGRESS, ForwardRouter
from ..net.segment import EtherSegment, NetDevice
from ..sim.world import POLICY_RR, SimWorld
from .runtime import PathRuntime, mac_for


class RouterPort:
    """Bookkeeping for one attached NIC."""

    __slots__ = ("name", "segment", "device", "eth", "ip", "mtu", "path",
                 "thread")

    def __init__(self, name: str, segment: EtherSegment,
                 device: NetDevice, eth: EthRouter, ip: IpAddr, mtu: int):
        self.name = name
        self.segment = segment
        self.device = device
        self.eth = eth
        self.ip = ip
        self.mtu = mtu
        self.path: Optional[Path] = None
        self.thread = None


class RouterKernel(PathRuntime):
    """A booted Scout router appliance in a sim world."""

    def __init__(self, world: SimWorld, name: str = "RTR",
                 inq_len: int = 64, priority: int = 1):
        super().__init__(world)
        self.name = name
        self.inq_len = inq_len
        self.priority = priority
        self.graph = RouterGraph()
        self.fwd: ForwardRouter = self.graph.add(ForwardRouter("FWD"))
        self.ports: Dict[str, RouterPort] = {}
        self._booted = False

    # -- construction ------------------------------------------------------

    def add_port(self, name: str, segment: EtherSegment, ip,
                 mtu: int = params.ETH_MTU,
                 mac: Optional[str] = None) -> RouterPort:
        """Attach one NIC to *segment* before :meth:`boot`."""
        if self._booted:
            raise RuntimeError(f"{self.name}: ports must be added "
                               "before boot")
        if name in self.ports:
            raise ValueError(f"{self.name}: duplicate port {name!r}")
        mac = mac or mac_for(ip)
        eth = self.graph.add(
            EthRouter(f"ETH-{name}", mac=mac, mtu=mtu))
        device = NetDevice(mac, self.world.cpu,
                           name=f"{self.name}.{name}")
        # Advertise the port's IP on the device so end hosts'
        # ARP-from-segment learning resolves their gateway.
        device.ip = IpAddr(ip)
        segment.attach(device)
        eth.attach_device(device)
        self.fwd.add_port(name, eth, ip)
        self.graph.connect(f"FWD.{name}", f"ETH-{name}.up")
        port = RouterPort(name, segment, device, eth, IpAddr(ip), mtu)
        self.ports[name] = port
        return port

    def boot(self) -> None:
        """Initialize the graph, learn neighbours, and bring up one
        forwarding path + thread per port."""
        if self._booted:
            return
        self.graph.boot()
        self._booted = True
        for port in self.ports.values():
            self.fwd.learn_arp(port.name, port.segment)
        for port in self.ports.values():
            attrs = Attrs({PA_FWD_INGRESS: port.name,
                           PA_INQ_LEN: self.inq_len})
            port.path = path_create(self.fwd, attrs)
            port.thread = self._spawn_path_thread(
                port.path, f"{self.name}-fwd-{port.name}", POLICY_RR,
                self.priority)
            port.device.rx_handler = partial(self._rx, entry=port.eth)

    def add_route(self, network, prefix_len: int, port: str,
                  gateway=None):
        return self.fwd.add_route(network, prefix_len, port, gateway)

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        stats = dict(self.fwd.stats())
        stats["unclassified_drops"] = self.unclassified_drops
        stats["inq_overflow_drops"] = self.inq_overflow_drops
        return stats

    def __repr__(self) -> str:
        ports = ",".join(f"{p.name}={p.ip}" for p in self.ports.values())
        return f"<RouterKernel {self.name} {ports}>"
