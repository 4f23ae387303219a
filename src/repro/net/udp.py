"""The UDP router: ports, optional checksum, demux by destination port.

UDP's create_stage demonstrates the attribute-rewrite idiom of Section
4.1: it resets ``PA_PROTID`` to 17 before forwarding creation to IP, so IP
knows what protocol id to put in the header without understanding UDP.

The optional payload checksum is the paper's integrated-layer-processing
example: "it would be straight-forward to integrate the (optional) UDP
checksum with the reading of the MPEG data".  The checksum is therefore
implemented as a separate per-byte cost here and the
``fuse-udp-checksum-into-mpeg`` transformation rule (see
:mod:`repro.kernel.transforms`) removes it by folding it into MPEG's read.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from .. import params
from ..core.attributes import PA_NET_PARTICIPANTS, PA_PROTID, Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.specialize import StageFragment, register_specializer
from ..core.stage import BWD, FWD, Stage, forward
from .common import PA_LOCAL_PORT, PA_UDP_CHECKSUM, charge, forward_or_deposit
from .checksum import internet_checksum
from .headers import IPPROTO_UDP, UDP_SIZE, pack_udp, read_udp

_ephemeral_ports = itertools.count(49152)


class UdpStage(Stage):
    """UDP's contribution to a path."""

    def __init__(self, router: "UdpRouter", enter_service, exit_service,
                 local_port: int, remote_port: int, use_checksum: bool):
        super().__init__(router, enter_service, exit_service)
        self.local_port = local_port
        self.remote_port = remote_port
        self.use_checksum = use_checksum
        self.checksum_failures = 0
        self.set_deliver(FWD, self._send)
        self.set_deliver(BWD, self._receive)

    def establish(self, attrs: Attrs) -> None:
        """Bind the local port to this path so the classifier can map
        incoming packets straight to it (one live anchor per port; later
        same-port paths — path-group members, warm pooled spares — leave
        an existing live binding alone)."""
        router: UdpRouter = self.router  # type: ignore[assignment]
        if self.local_port not in router._port_peers:
            router.bind_port_to_path(self.local_port, self.path)

    def destroy(self) -> None:
        router: UdpRouter = self.router  # type: ignore[assignment]
        router.release_port(self.local_port, self.path)
        # A dying demux anchor promotes a live path-group sibling, so a
        # group keeps receiving even when the member holding the port
        # binding is torn down (watchdog rebuild, explicit delete).
        group = self.path.group
        if group is not None:
            for sibling in group.live_members():
                if sibling is not self.path and \
                        router.bind_port_to_path(self.local_port, sibling):
                    break

    def _send(self, iface, msg: Msg, direction: int, **kwargs):
        charge(msg, params.UDP_PROC_US)
        checksum = 0
        if self.use_checksum:
            charge(msg, len(msg) * params.CHECKSUM_US_PER_BYTE)
            checksum = internet_checksum(msg.to_bytes())
        dport = msg.meta.get("udp_dport_override") or self.remote_port
        if dport is None:
            self.note_drop(msg, "UDP path has no remote port", "misaddressed")
            return None
        msg.push(pack_udp(self.local_port, dport, UDP_SIZE + len(msg),
                          checksum))
        return forward(iface, msg, direction, **kwargs)

    def _receive(self, iface, msg: Msg, direction: int, **kwargs):
        router: UdpRouter = self.router  # type: ignore[assignment]
        charge(msg, params.UDP_PROC_US)
        if len(msg) < UDP_SIZE:
            self.note_drop(msg, "short UDP packet", "malformed")
            router.rx_dropped += 1
            return None
        _sport, dport, _length, checksum = read_udp(msg.peek(UDP_SIZE))
        if dport != self.local_port:
            self.note_drop(
                msg,
                f"UDP port {dport} does not match path port "
                f"{self.local_port}", "misaddressed")
            router.rx_dropped += 1
            return None
        msg.strip(UDP_SIZE)
        # Separate-pass checksum verification, unless a path transformation
        # fused it into the consumer's data read (Section 4.1's ILP case).
        if self.use_checksum and not msg.meta.get("checksum_fused"):
            charge(msg, len(msg) * params.CHECKSUM_US_PER_BYTE)
            if checksum and internet_checksum(msg.to_bytes()) != checksum:
                self.checksum_failures += 1
                self.note_drop(msg, "UDP checksum mismatch", "corrupt")
                return None
        return forward_or_deposit(iface, msg, direction, **kwargs)


def _specialize_udp(stage: UdpStage, iface, direction: int,
                    terminal: bool) -> Optional[StageFragment]:
    """Fuse :meth:`UdpStage._receive` for a flow-validated frame on a
    path without checksum: charge and header strip (the cache key proved
    the port pair).  Checksummed paths verify per message (and
    materialize the header), so they decline — as does a UDP-terminated
    chain, whose deposit semantics belong to the scalar code.
    """
    if direction != BWD or terminal or stage.use_checksum:
        return None
    if not stage.has_pristine_deliver(BWD, UdpStage._receive):
        return None

    def cost_expr(ctx):
        return "%s.UDP_PROC_US" % ctx.bind(params, "params")

    return StageFragment(pop=UDP_SIZE, cost_expr=cost_expr)


register_specializer(UdpStage, _specialize_udp)


@register_router("UdpRouter")
class UdpRouter(Router):
    """The UDP protocol router."""

    SERVICES = ("up:net", "<down:net")

    def __init__(self, name: str):
        super().__init__(name)
        #: local port -> (router, service) that should refine classification.
        self._port_peers: Dict[int, Tuple[Router, Service]] = {}
        #: local port -> path, for ports bound directly to a path.
        self._port_paths: Dict[int, object] = {}
        self.rx_dropped = 0

    # -- wiring -------------------------------------------------------------------

    def init(self) -> None:
        super().init()
        down = self.service("down").sole_link()
        ip_router, _service = down.peer_of(self.service("down"))
        register = getattr(ip_router, "register_proto", None)
        if register is not None:
            register(IPPROTO_UDP, self, self.service("up"))

    def bind_port(self, port: int, router: Router, service: Service) -> None:
        """Route classification refinement for *port* to an upper router."""
        self._port_peers[port] = (router, service)

    def bind_port_to_path(self, port: int, path) -> bool:
        """Bind *port* directly to *path* (no upper refinement needed).

        First live binding wins: when several same-port paths coexist (a
        path group's members, a pool's warm spares) the earliest becomes
        the demux anchor and the rest stand by.  A dead or missing anchor
        is always replaced.  Returns True when *path* holds the binding.
        """
        current = self._port_paths.get(port)
        if current is not None and current is not path \
                and getattr(current, "state", None) != "deleted":
            return False
        self._port_paths[port] = path
        return True

    def release_port(self, port: int, path=None) -> None:
        """Release *port*.  When *path* is given, the direct binding is
        only dropped if *path* owns it — deleting one group member must
        not unbind an anchor that belongs to a sibling."""
        self._port_peers.pop(port, None)
        if path is None or self._port_paths.get(port) is path:
            self._port_paths.pop(port, None)

    def allocate_port(self, requested: Optional[int] = None) -> int:
        if requested is not None:
            return requested
        return next(_ephemeral_ports)

    # -- path creation ----------------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        participants = attrs.get(PA_NET_PARTICIPANTS)
        if participants is None and not attrs.get("PA_IP_CATCHALL"):
            return None, None  # cannot route without a remote participant
        remote_port = participants[1] if participants else None
        local_port = self.allocate_port(attrs.get(PA_LOCAL_PORT))
        down = self.service("down")
        if len(down.links) != 1:
            return None, None
        peer_router, peer_service = down.links[0].peer_of(down)
        stage = UdpStage(self, enter, down, local_port, remote_port,
                         use_checksum=bool(attrs.get(PA_UDP_CHECKSUM)))
        hop_attrs = attrs.extended(**{PA_PROTID: IPPROTO_UDP})
        return stage, NextHop(peer_router, peer_service, hop_attrs)

    # -- classification ----------------------------------------------------------------

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        if len(msg) < offset + UDP_SIZE:
            return DemuxResult.drop(f"{self.name}: short UDP packet")
        sport, dport, _length, _checksum = \
            read_udp(msg.peek(UDP_SIZE, at=offset))
        msg.meta["udp_ports"] = (sport, dport)
        path = self._port_paths.get(dport)
        if path is not None:
            return DemuxResult.found(path)
        peer = self._port_peers.get(dport)
        if peer is None:
            return DemuxResult.drop(
                f"{self.name}: no listener on port {dport}")
        return DemuxResult.refine(peer[0], peer[1], consumed=UDP_SIZE)
