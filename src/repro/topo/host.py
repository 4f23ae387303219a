"""An end host in a multi-hop topology.

:class:`HostNode` boots the TEST/UDP/IP/ETH graph of Figure 7 plus ARP
and ICMP with a NIC on one segment, on the shared
:class:`~repro.kernel.runtime.PathRuntime`.  What it adds is the two
pieces multi-hop forwarding needs that the single-segment kernels never
did: a configurable default **gateway** (off-net traffic rides the link
layer toward the router instead of truncating at IP) and **PMTUD** (DF
on sends, ICMP Fragmentation Needed feedback shrinking the
per-destination path-MTU estimate).
"""

from __future__ import annotations

from typing import List, Optional

from .. import params
from ..core.attributes import PA_INQ_LEN, PA_NET_PARTICIPANTS, Attrs
from ..core.graph import RouterGraph
from ..core.message import Msg
from ..core.path import Path
from ..core.path_create import path_create
from ..core.stage import FWD
from ..kernel.runtime import PathRuntime, mac_for
from ..net.addresses import EthAddr, IpAddr
from ..net.arp import ArpRouter
from ..net.common import PA_LOCAL_PORT
from ..net.eth import EthRouter
from ..net.headers import UdpHeader
from ..net.icmp import IcmpRouter
from ..net.ip import PA_IP_CATCHALL, IpRouter
from ..net.segment import EtherSegment, NetDevice
from ..net.testrouter import TestRouter
from ..net.udp import UdpRouter
from ..sim.world import POLICY_RR, SimWorld


class HostNode(PathRuntime):
    """A booted end host attached to one segment of a sim world."""

    def __init__(self, world: SimWorld, segment: EtherSegment,
                 name: str, ip, mac: Optional[str] = None,
                 mtu: int = params.ETH_MTU, prefix_len: int = 24,
                 service_priority: int = 1):
        super().__init__(world)
        self.segment = segment
        self.name = name
        self.prefix_len = prefix_len
        self.service_priority = service_priority
        mac = mac or mac_for(ip)

        self.graph = RouterGraph()
        self.eth: EthRouter = self.graph.add(
            EthRouter("ETH", mac=mac, mtu=mtu))
        self.arp: ArpRouter = self.graph.add(ArpRouter("ARP"))
        self.ip: IpRouter = self.graph.add(
            IpRouter("IP", addr=ip, prefix_len=prefix_len))
        self.udp: UdpRouter = self.graph.add(UdpRouter("UDP"))
        self.icmp: IcmpRouter = self.graph.add(IcmpRouter("ICMP"))
        self.test: TestRouter = self.graph.add(TestRouter("TEST"))
        self.graph.connect("IP.down", "ETH.up")
        self.graph.connect("IP.res", "ARP.resolver")
        self.graph.connect("ARP.down", "ETH.up")
        self.graph.connect("UDP.down", "IP.up")
        self.graph.connect("ICMP.down", "IP.up")
        self.graph.connect("TEST.down", "UDP.up")

        self.device = NetDevice(EthAddr(mac), world.cpu,
                                name=f"{name}.eth0")
        # Advertise the host's IP so routers' learn_arp finds it.
        self.device.ip = IpAddr(ip)
        segment.attach(self.device)
        self.eth.attach_device(self.device)
        self.arp.learn_from_segment(segment)
        self.graph.boot()
        self.ip.use_engine(world.engine)
        self.arp.use_engine(world.engine)

        self.device.rx_handler = self._rx

        # Boot-time service paths: ICMP echo + fragment catch-all.
        self.icmp_path = self._make_service_path(
            self.icmp, Attrs(), "icmp")
        self.icmp.echo_path = self.icmp_path
        self.frag_path = self._make_service_path(
            self.ip, Attrs({PA_IP_CATCHALL: True}), "frag")
        self.ip.frag_path = self.frag_path
        self.ip.reclassify_hook = self._reclassify

    # -- control-plane knobs ----------------------------------------------

    def set_gateway(self, gateway_ip) -> None:
        self.ip.set_gateway(gateway_ip)

    def enable_pmtud(self, enabled: bool = True) -> None:
        self.ip.enable_pmtud(enabled)

    def refresh_arp(self) -> None:
        """Re-learn neighbours — endpoints attached after our boot
        (other hosts, router ports) become resolvable."""
        self.arp.learn_from_segment(self.segment)

    # -- transport ---------------------------------------------------------

    def _make_service_path(self, router, attrs: Attrs, label: str) -> Path:
        path = path_create(router, attrs)
        self._spawn_path_thread(path,
                                f"{self.name}-{label}-path{path.pid}",
                                POLICY_RR, self.service_priority)
        return path

    def open(self, remote_ip, remote_port: int,
             local_port: Optional[int] = None,
             inq_len: int = 32, **extra_attrs) -> Path:
        """Create a TEST->UDP->IP->ETH path toward a remote endpoint."""
        attrs = Attrs({
            PA_NET_PARTICIPANTS: (str(remote_ip), remote_port),
            PA_LOCAL_PORT: self.udp.allocate_port(local_port),
            PA_INQ_LEN: inq_len,
        }, **extra_attrs)
        return self._make_service_path(self.test, attrs, "test")

    def send(self, path: Path, payload: bytes) -> None:
        path.deliver(Msg(payload), FWD)

    def mss(self, remote_ip) -> int:
        """Largest UDP payload that rides one unfragmented IP packet to
        *remote_ip* under the current path-MTU estimate."""
        return self.ip.payload_capacity(IpAddr(remote_ip)) - UdpHeader.SIZE

    def send_stream(self, path: Path, data: bytes,
                    mss: Optional[int] = None) -> int:
        """Chop *data* into datagrams and send them down *path*.

        With PMTUD the default chunk tracks the learned path MTU, so a
        converged sender emits zero fragments; without it the IP stage
        fragments at the first-hop MTU as before.  Returns the datagram
        count.
        """
        if mss is None:
            remote_ip = path.attrs[PA_NET_PARTICIPANTS][0]
            mss = self.mss(remote_ip)
        if mss <= 0:
            raise ValueError(f"{self.name}: non-positive MSS {mss}")
        count = 0
        for start in range(0, len(data), mss):
            self.send(path, data[start:start + mss])
            count += 1
        return count

    # -- receive-side accessors -------------------------------------------

    def received_payloads(self) -> List[bytes]:
        return [msg.to_bytes() for msg in self.test.received]

    @property
    def bytes_received(self) -> int:
        return self.test.bytes_received

    def __repr__(self) -> str:
        return f"<HostNode {self.name} {self.ip.addr}>"

