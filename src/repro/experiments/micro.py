"""E4 (Section 3.6): path micro-costs, measured on the real implementation.

"A path to transmit and receive UDP packets consists of six stages.
Creating such a path on a 300MHz Alpha takes on the order of 200us ...
The path object itself is about 300 bytes long and each stage is on the
order of 150 bytes in size (including all the interfaces).  The first
(unoptimized) implementation of the Scout classification scheme is
already able to demultiplex a UDP packet in less than 5us."

This module reports the structural numbers: the stage count, the
classification hops, and **modeled C footprints**
(``Path.modeled_size()``), which reproduce the paper's byte counts
directly.  Wall-clock timings are not taken here — we are running Python
on modern hardware, so absolute values differ from the Alpha's — and
``benchmarks/e2e`` is where this library's own classification cost is
timed (``probe.core.classify.miss_ns`` walks the same three-hop chain,
``probe.core.classify.hit_ns`` the flow-cache hit).
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.graph import RouterGraph
from ..core.message import Msg
from ..core.path import Path
from ..core.path_create import path_create, path_delete
from ..net.arp import ArpRouter
from ..net.common import PA_LOCAL_PORT
from ..net.eth import EthRouter
from ..net.ip import IpRouter
from ..net.packets import build_udp_frame
from ..net.testrouter import TestRouter
from ..net.udp import UdpRouter
from ..net.addresses import EthAddr, IpAddr

#: Paper reference values.
PAPER_PATH_BYTES = 300
PAPER_STAGE_BYTES = 150
PAPER_UDP_PATH_STAGES = 6  # four interior stages + the two queue-managing ends

LOCAL_MAC = "02:00:00:00:00:01"
LOCAL_IP = "10.0.0.1"
REMOTE_MAC = "02:00:00:00:00:02"
REMOTE_IP = "10.0.0.2"


class Fig7Stack:
    """The Figure 7 configuration: TEST over UDP over IP over ETH."""

    def __init__(self) -> None:
        self.graph = RouterGraph()
        self.eth = self.graph.add(EthRouter("ETH", mac=LOCAL_MAC))
        self.arp = self.graph.add(ArpRouter("ARP"))
        self.ip = self.graph.add(IpRouter("IP", addr=LOCAL_IP))
        self.udp = self.graph.add(UdpRouter("UDP"))
        self.test = self.graph.add(TestRouter("TEST"))
        self.graph.connect("IP.down", "ETH.up")
        self.graph.connect("IP.res", "ARP.resolver")
        self.graph.connect("ARP.down", "ETH.up")
        self.graph.connect("UDP.down", "IP.up")
        self.graph.connect("TEST.down", "UDP.up")
        self.arp.add_entry(REMOTE_IP, REMOTE_MAC)
        self.graph.boot()

    def create_udp_path(self, local_port: int = 0) -> Path:
        """One pathCreate over the whole stack (the timed operation)."""
        attrs = Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000)})
        if local_port:
            attrs[PA_LOCAL_PORT] = local_port
        return path_create(self.test, attrs)

    def udp_frame(self, dport: int, payload: bytes = b"x" * 64) -> bytes:
        """A wire frame addressed at the bound port (the classified input)."""
        return build_udp_frame(EthAddr(REMOTE_MAC), EthAddr(LOCAL_MAC),
                               IpAddr(REMOTE_IP), IpAddr(LOCAL_IP),
                               7000, dport, payload)


class MicroReport(NamedTuple):
    udp_path_stages: int
    path_modeled_bytes: int
    per_stage_modeled_bytes: float
    classify_hops: int


def measure_structure() -> MicroReport:
    """The structural numbers (deterministic, no timing involved)."""
    stack = Fig7Stack()
    path = stack.create_udp_path(local_port=6100)
    per_stage = (path.modeled_size() - Path.MODELED_BYTES) / len(path)
    # Count classification hops for a UDP packet.
    from ..core.classify import ClassifierStats, classify

    stats = ClassifierStats()
    msg = Msg(stack.udp_frame(6100))
    found = classify(stack.eth, msg, stats=stats)
    assert found is path
    hops = stats.refinements + 1
    report = MicroReport(
        # interior stages + the two queue-managing extreme ends the paper
        # includes in its count of six
        udp_path_stages=len(path) + 2,
        path_modeled_bytes=Path.MODELED_BYTES,
        per_stage_modeled_bytes=per_stage,
        classify_hops=hops,
    )
    path_delete(path)
    return report


def format_micro(report: MicroReport) -> str:
    lines = [
        "E4 (Sec 3.6): path micro-costs (measured vs paper)",
        f"  UDP path stages:       {report.udp_path_stages}   "
        f"(paper: {PAPER_UDP_PATH_STAGES})",
        f"  path object bytes:     {report.path_modeled_bytes}   "
        f"(paper: ~{PAPER_PATH_BYTES})",
        f"  per-stage bytes:       {report.per_stage_modeled_bytes:.0f}   "
        f"(paper: ~{PAPER_STAGE_BYTES})",
        f"  classify hops:         {report.classify_hops}",
    ]
    return "\n".join(lines)


def check_micro(report: MicroReport) -> None:
    """Six stages, a ~300-byte path and ~150-byte stages, as in Sec 3.6."""
    assert report.udp_path_stages == PAPER_UDP_PATH_STAGES
    assert abs(report.path_modeled_bytes - PAPER_PATH_BYTES) <= 60
    assert abs(report.per_stage_modeled_bytes - PAPER_STAGE_BYTES) <= 60
