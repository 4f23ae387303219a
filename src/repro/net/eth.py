"""The ETH router: Ethernet framing and the device boundary.

ETH is the bottom of every network path (Figures 3, 6, 9).  On the send
side its stage pushes the Ethernet header and hands the frame to the NIC;
on the receive side the *kernel* (not the router) runs the classifier at
interrupt time and deposits the message on a path's input queue, after
which the path thread enters the path at the ETH stage, which pops the
header and forwards upward.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import params
from ..core.attributes import Attrs
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.specialize import StageFragment, register_specializer
from ..core.stage import BWD, FWD, Stage, forward
from ..core.graph import register_router
from .addresses import EthAddr
from .common import PA_ETH_DST, PA_ETHERTYPE, charge
from .headers import ETH_SIZE, pack_eth, read_eth
from .segment import NetDevice


_BROADCAST = EthAddr.BROADCAST.to_bytes()


class EthStage(Stage):
    """ETH's contribution to a path (an extreme stage)."""

    def __init__(self, router: "EthRouter", enter_service: Optional[Service]):
        super().__init__(router, enter_service, None)
        #: The frozen destination, as the six bytes the header carries.
        self.dst_mac = _BROADCAST
        self.ethertype = 0
        self.set_deliver(FWD, self._send)
        self.set_deliver(BWD, self._receive)

    def establish(self, attrs: Attrs) -> None:
        """Freeze the frame header fields for this path.

        The destination MAC was resolved (via ARP) by the IP stage's
        establish, which recorded it in the path attributes — stages
        sharing state anonymously through attrs, as Section 3.2 describes.
        """
        dst = attrs.get(PA_ETH_DST)
        self.dst_mac = EthAddr(dst).to_bytes() if dst is not None \
            else _BROADCAST
        self.ethertype = attrs.get(PA_ETHERTYPE, 0)

    def _send(self, iface, msg: Msg, direction: int, **kwargs) -> None:
        router: EthRouter = self.router  # type: ignore[assignment]
        charge(msg, params.ETH_PROC_US)
        # Catch-all paths (ICMP echo) have no frozen destination; the
        # responding stage supplies a per-message override instead.
        override = msg.meta.get("eth_dst_override")
        dst = override.to_bytes() if override else self.dst_mac
        msg.push(pack_eth(dst, router.mac_bytes, self.ethertype))
        if not router.transmit(msg):
            self.note_drop(msg, f"frame exceeds {router.name} MTU "
                                f"{router.mtu}", "oversize_frame")
            return
        if self.path is not None:
            # Wire transmission is useful output that never touches an
            # output queue; mark it so the watchdog sees send paths live.
            self.path.note_progress()

    def _receive(self, iface, msg: Msg, direction: int, **kwargs):
        charge(msg, params.ETH_PROC_US)
        if len(msg) < ETH_SIZE:
            self.note_drop(msg, "runt frame", "malformed")
            return None
        if "eth_src" not in msg.meta:  # injected past the classifier
            msg.meta["eth_src"] = EthAddr(msg.peek(6, at=6))
        msg.strip(ETH_SIZE)
        return forward(iface, msg, direction, **kwargs)


def _specialize_eth(stage: EthStage, iface, direction: int,
                    terminal: bool) -> Optional[StageFragment]:
    """Fuse :meth:`EthStage._receive` for a flow-validated frame: the
    per-stage charge and the header strip (the cache key proved the
    runt check).  Anything else — send side, an interposed function, a
    chain ending at ETH — declines.
    """
    if direction != BWD or terminal:
        return None
    if not stage.has_pristine_deliver(BWD, EthStage._receive):
        return None

    def cost_expr(ctx):
        return "%s.ETH_PROC_US" % ctx.bind(params, "params")

    return StageFragment(pop=ETH_SIZE, cost_expr=cost_expr)


register_specializer(EthStage, _specialize_eth)


@register_router("EthRouter")
class EthRouter(Router):
    """Driver router for one Ethernet adapter."""

    SERVICES = ("up:net",)

    def __init__(self, name: str, mac: str = "02:00:00:00:00:01",
                 mtu: int = params.ETH_MTU):
        super().__init__(name)
        self.mac = EthAddr(mac)
        #: ``mac`` as wire bytes, for the demux compare and the send-side
        #: header (the adapter's address is fixed at construction).
        self.mac_bytes = self.mac.to_bytes()
        self.mtu = mtu
        self.device: Optional[NetDevice] = None
        #: ethertype -> (router, service) registrations from upper layers.
        self._ethertype_peers: dict = {}
        # statistics
        self.tx_frames = 0
        #: Frames refused at transmit because they exceed the link MTU.
        self.tx_oversize = 0

    # -- wiring -----------------------------------------------------------------

    def attach_device(self, device: NetDevice) -> None:
        self.device = device

    def register_ethertype(self, ethertype: int, router: Router,
                           service: Service) -> None:
        """Upper layers (IP, ARP) register the ethertype they speak; both
        routing refinement (demux) and payload dispatch use this table."""
        self._ethertype_peers[ethertype] = (router, service)

    def payload_mtu(self) -> int:
        """Bytes available to the layer above per frame."""
        return self.mtu

    # -- path creation -------------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Stage, Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        return EthStage(self, enter), None  # ETH is always a leaf

    # -- classification ---------------------------------------------------------------

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        if len(msg) < offset + ETH_SIZE:
            return DemuxResult.drop(f"{self.name}: runt frame")
        dst, src, ethertype = read_eth(msg.peek(ETH_SIZE, at=offset))
        if dst != self.mac_bytes and dst != _BROADCAST:
            return DemuxResult.drop(
                f"{self.name}: not our MAC ({EthAddr(dst)})")
        peer = self._ethertype_peers.get(ethertype)
        if peer is None:
            return DemuxResult.drop(
                f"{self.name}: no protocol for ethertype 0x{ethertype:04x}")
        msg.meta["eth_src"] = EthAddr(src)
        return DemuxResult.refine(peer[0], peer[1], consumed=ETH_SIZE)

    # -- transmission -------------------------------------------------------------------

    def transmit(self, msg: Msg) -> bool:
        """Hand a fully framed message to the adapter.

        Enforces the link MTU the way a real driver does: a frame whose
        payload exceeds it is refused (returns False) rather than put on
        the wire — heterogeneous-MTU topologies depend on this check
        being per-link, not per-host.
        """
        if self.device is None:
            raise RuntimeError(f"{self.name} has no attached device")
        frame = msg.to_bytes()
        if len(frame) > self.mtu + ETH_SIZE:
            self.tx_oversize += 1
            msg.meta.setdefault("drop_reason",
                                f"frame exceeds {self.name} MTU {self.mtu}")
            return False
        self.tx_frames += 1
        self.device.send(frame)
        return True
