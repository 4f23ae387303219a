"""An end host in a multi-hop topology.

:class:`HostNode` is a :class:`~repro.kernel.scout.ScoutKernel` booted
with the TEST sink atop UDP and no display (``udp_sink=True,
display=False``) on one segment: the same graph, NIC, ICMP and fragment
service paths and flow cache as any end host.  What it adds is the mesh
verbs multi-hop forwarding needs that the single-segment kernel never
did: a configurable default **gateway** (off-net traffic rides the link
layer toward the router instead of truncating at IP), **PMTUD** (DF on
sends, ICMP Fragmentation Needed feedback shrinking the per-destination
path-MTU estimate), and sending and reading payloads over TEST paths.
"""

from __future__ import annotations

from typing import List, Optional

from .. import params
from ..core.attributes import PA_INQ_LEN, PA_NET_PARTICIPANTS, Attrs
from ..core.message import Msg
from ..core.path import Path
from ..core.stage import FWD
from ..kernel.runtime import mac_for
from ..kernel.scout import ScoutKernel
from ..net.addresses import IpAddr
from ..net.common import PA_LOCAL_PORT
from ..net.headers import UdpHeader
from ..net.segment import EtherSegment
from ..sim.world import POLICY_RR, SimWorld


class HostNode(ScoutKernel):
    """A booted end host attached to one segment of a sim world."""

    def __init__(self, world: SimWorld, segment: EtherSegment,
                 name: str, ip, mac: Optional[str] = None,
                 mtu: int = params.ETH_MTU, prefix_len: int = 24,
                 service_priority: int = 1):
        super().__init__(world, segment, local_mac=mac or mac_for(ip),
                         local_ip=ip, icmp_priority=service_priority,
                         udp_sink=True, display=False)
        self.name = name
        self.service_priority = service_priority
        # Plain attributes, read at use: the link MTU, the on-link
        # prefix, and the host's IP advertised on its NIC so routers'
        # learn_arp finds it.
        self.eth.mtu = mtu
        self.ip.prefix_len = prefix_len
        self.device.name = f"{name}.eth0"
        self.device.ip = IpAddr(ip)

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

    def open(self, remote_ip, remote_port: int,
             local_port: Optional[int] = None,
             inq_len: int = 32, **extra_attrs) -> Path:
        """Create a TEST->UDP->IP->ETH path toward a remote endpoint."""
        attrs = Attrs({
            PA_NET_PARTICIPANTS: (str(remote_ip), remote_port),
            PA_LOCAL_PORT: self.udp.allocate_port(local_port),
            PA_INQ_LEN: inq_len,
        }, **extra_attrs)
        return self._make_service_path(self.test, attrs, POLICY_RR,
                                       self.service_priority,
                                       f"{self.name}-test")

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
