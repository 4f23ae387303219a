"""The FWD router: IP forwarding between link-layer ports.

This opens the paper's *other* appliance workload — Scout as a network
router.  A :class:`ForwardRouter` owns N link-layer ports (each an
:class:`~repro.net.eth.EthRouter` with its own NIC, possibly with its own
MTU) and one static :class:`RouteTable`.  Every port gets a short, fat
forwarding path (ETH -> FWD): frames arriving on a port are classified at
interrupt time onto that port's forwarding path, whose thread decrements
TTL, picks the next hop by longest-prefix match, rewrites the header and
transmits out the egress port — fragmenting for a smaller egress MTU, or
refusing with ICMP *Fragmentation Needed* when the sender set DF.  That
refusal is the feedback signal sender-side path-MTU discovery (RFC 1191)
converges on.

The design follows the data-path shape of fast programmable routers: the
per-hop work is a straight line (validate, TTL, lookup, rewrite, queue on
egress) with all policy — routes, ARP bindings, MTUs — frozen into router
state at provisioning time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import params
from ..core.attributes import Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service, ServiceDecl
from ..core.stage import BWD, Stage
from .addresses import EthAddr, IpAddr
from .common import charge
from .headers import (
    ETHERTYPE_IP,
    IcmpHeader,
    IP_DF,
    IP_MF,
    IP_OFFSET_MASK,
    IP_SIZE,
    IPPROTO_ICMP,
    IpFields,
    pack_ip,
    read_ip,
)

#: Path-creation attribute naming the ingress port a forwarding path
#: serves (one path per port).
PA_FWD_INGRESS = "PA_FWD_INGRESS"

#: The ethertype field of every frame the router puts on a wire.
_ETHERTYPE_IP = ETHERTYPE_IP.to_bytes(2, "big")


class Route:
    """One static route: destination network -> egress port (+ gateway).

    The match is precomputed as ints: an address ``ip`` is on the route
    when ``ip & mask == net``.  ``next_hop`` is the gateway as an int, or
    ``None`` when the packet's own destination is the next hop.
    """

    __slots__ = ("network", "prefix_len", "port", "gateway", "mask", "net",
                 "next_hop")

    def __init__(self, network, prefix_len: int, port: str,
                 gateway=None):
        prefix_len = int(prefix_len)
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"bad prefix length {prefix_len}")
        self.network = IpAddr(network)
        self.prefix_len = prefix_len
        self.port = port
        self.gateway = IpAddr(gateway) if gateway is not None else None
        self.mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        self.net = self.network.to_int() & self.mask
        self.next_hop = self.gateway.to_int() if gateway is not None \
            else None

    def __repr__(self) -> str:
        via = f" via {self.gateway}" if self.gateway is not None else ""
        return (f"Route({self.network}/{self.prefix_len} "
                f"-> {self.port}{via})")


class RouteTable:
    """A static routing table with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._routes: List[Route] = []

    def add(self, network, prefix_len: int, port: str,
            gateway=None) -> Route:
        route = Route(network, prefix_len, port, gateway)
        self._routes.append(route)
        # Longest prefix first; insertion order breaks ties.
        self._routes.sort(key=lambda r: -r.prefix_len)
        return route

    def lookup(self, ip) -> Optional[Route]:
        """The longest-prefix route for *ip*: an int, as the forward
        route passes it, or anything :class:`IpAddr` accepts."""
        if not isinstance(ip, int):
            ip = IpAddr(ip).to_int()
        for route in self._routes:
            if ip & route.mask == route.net:
                return route
        return None

    def routes(self) -> List[Route]:
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)


class ForwardPort:
    """One link-layer attachment of the forwarding router."""

    __slots__ = ("name", "service", "eth", "ip", "arp")

    def __init__(self, name: str, service: Service, eth, ip: IpAddr):
        self.name = name
        self.service = service
        self.eth = eth
        self.ip = IpAddr(ip)
        #: Per-port neighbour table: next-hop IP (int) -> 6-byte MAC.
        self.arp: Dict[int, bytes] = {}


class ForwardStage(Stage):
    """FWD's contribution to one port's forwarding path.

    The stage absorbs every message: output happens by transmitting on
    an egress port's adapter, never by forwarding along the path.
    """

    def __init__(self, router: "ForwardRouter", enter_service,
                 exit_service, ingress: str):
        super().__init__(router, enter_service, exit_service)
        self.ingress = ingress
        self.set_deliver(BWD, self._forward)

    def establish(self, attrs: Attrs) -> None:
        router: ForwardRouter = self.router  # type: ignore[assignment]
        router.bind_ingress_path(self.ingress, self.path)

    def destroy(self) -> None:
        router: ForwardRouter = self.router  # type: ignore[assignment]
        router.unbind_ingress_path(self.ingress, self.path)

    def _forward(self, iface, msg: Msg, direction: int, **kwargs):
        router: ForwardRouter = self.router  # type: ignore[assignment]
        charge(msg, params.FWD_PROC_US)
        if len(msg) < IP_SIZE:
            self.note_drop(msg, "short IP packet", "malformed")
            return None
        try:
            fields = read_ip(msg.peek(IP_SIZE))
        except ValueError as exc:
            self.note_drop(msg, str(exc), "malformed")
            return None
        total_length, ident, flags_frag, ttl, proto, src, dst = fields
        if total_length < IP_SIZE:
            # RFC 1812 §5.2.2; a negative length would slice from the end.
            self.note_drop(msg, "IP total length below header length",
                           "malformed")
            return None
        msg.strip(IP_SIZE)
        # Trim link-layer padding beyond the IP total length.
        payload = msg.to_bytes()[:total_length - IP_SIZE]
        if dst in router.local_ips:
            return self._local(fields, payload, msg)
        if ttl <= 1:
            router.ttl_drops += 1
            self.note_drop(msg, f"TTL expired for {IpAddr(dst)}",
                           "ttl_expired")
            router.send_error(self, msg, fields, payload,
                              IcmpHeader.TIME_EXCEEDED, 0, 0)
            return None
        route = router.routes.lookup(dst)
        if route is None:
            router.no_route_drops += 1
            self.note_drop(msg, f"no route to {IpAddr(dst)}", "no_route")
            router.send_error(self, msg, fields, payload,
                              IcmpHeader.DEST_UNREACH, 0, 0)
            return None
        if router.emit(self, msg, (total_length, ident, flags_frag,
                                   ttl - 1, proto, src, dst),
                       payload, route):
            router.forwarded += 1
            if self.path is not None:
                self.path.note_progress()
        return None

    def _local(self, fields: IpFields, payload: bytes, msg: Msg):
        """Traffic addressed to one of the router's own port IPs: answer
        unfragmented echo requests (so hosts can ping their gateway and
        the control plane can probe hop by hop); absorb everything else.
        """
        router: ForwardRouter = self.router  # type: ignore[assignment]
        router.local_delivered += 1
        _len, _ident, flags_frag, _ttl, proto, src, dst = fields
        if proto != IPPROTO_ICMP or flags_frag & (IP_MF | IP_OFFSET_MASK) \
                or len(payload) < IcmpHeader.SIZE:
            return None
        icmp = IcmpHeader.unpack(payload[:IcmpHeader.SIZE])
        if icmp.icmp_type != IcmpHeader.ECHO_REQUEST:
            return None
        router.echo_requests += 1
        charge(msg, params.ICMP_PROC_US)
        reply = IcmpHeader(IcmpHeader.ECHO_REPLY, icmp.ident,
                           icmp.seq).pack() + payload[IcmpHeader.SIZE:]
        router.send_ip(self, msg, src=dst, dst=src, proto=IPPROTO_ICMP,
                       payload=reply)
        return None


@register_router("ForwardRouter")
class ForwardRouter(Router):
    """An IP forwarder with N link-layer ports and a static route table."""

    SERVICES = ()  # ports are added dynamically, one service each

    def __init__(self, name: str = "FWD"):
        super().__init__(name)
        self.ports: Dict[str, ForwardPort] = {}
        self.routes = RouteTable()
        #: The ports' own addresses, as ints.
        self.local_ips: set = set()
        self._ingress_paths: Dict[str, object] = {}
        # statistics
        self.forwarded = 0
        self.fragments_created = 0
        self.ttl_drops = 0
        self.no_route_drops = 0
        self.arp_miss_drops = 0
        self.frag_needed_sent = 0
        self.time_exceeded_sent = 0
        self.unreachable_sent = 0
        self.errors_suppressed = 0
        self.local_delivered = 0
        self.echo_requests = 0

    # -- wiring -----------------------------------------------------------------

    def add_port(self, name: str, eth_router, ip) -> ForwardPort:
        """Declare a link-layer port *before* the graph is connected; the
        matching graph edge is ``FWD.<name> <-> <eth>.up``."""
        if name in self.ports:
            raise ValueError(f"{self.name}: duplicate port {name!r}")
        service = self._add_service(len(self.services),
                                    ServiceDecl.parse(f"{name}:net"))
        port = ForwardPort(name, service, eth_router, IpAddr(ip))
        self.ports[name] = port
        self.local_ips.add(port.ip.to_int())
        return port

    def init(self) -> None:
        super().init()
        for port in self.ports.values():
            register = getattr(port.eth, "register_ethertype", None)
            if register is not None:
                register(ETHERTYPE_IP, self, port.service)

    def learn_arp(self, port_name: str, segment) -> None:
        """Populate a port's neighbour table from a segment's endpoints
        (simulation stand-in for running ARP on every port)."""
        port = self.ports[port_name]
        for endpoint in segment.endpoints():
            ip = getattr(endpoint, "ip", None)
            if ip is not None:
                port.arp[IpAddr(ip).to_int()] = \
                    EthAddr(endpoint.mac).to_bytes()

    def add_route(self, network, prefix_len: int, port: str,
                  gateway=None) -> Route:
        if port not in self.ports:
            raise ValueError(f"{self.name}: no port {port!r}")
        return self.routes.add(network, prefix_len, port, gateway)

    def bind_ingress_path(self, ingress: str, path) -> None:
        self._ingress_paths[ingress] = path

    def unbind_ingress_path(self, ingress: str, path) -> None:
        if self._ingress_paths.get(ingress) is path:
            self._ingress_paths.pop(ingress, None)

    # -- path creation ----------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        ingress = attrs.get(PA_FWD_INGRESS)
        if ingress is None or ingress not in self.ports:
            return None, None
        port = self.ports[ingress]
        stage = ForwardStage(self, None, port.service, ingress)
        peer_router, peer_service = \
            port.service.sole_link().peer_of(port.service)
        return stage, NextHop(peer_router, peer_service, attrs)

    # -- classification ---------------------------------------------------------

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        if service is None:
            return DemuxResult.drop(f"{self.name}: no ingress service")
        if len(msg) < offset + IP_SIZE:
            return DemuxResult.drop(f"{self.name}: short IP packet")
        path = self._ingress_paths.get(service.name)
        if path is None:
            return DemuxResult.drop(
                f"{self.name}: no forwarding path on port {service.name}")
        return DemuxResult.found(path)

    # -- the forwarding data path ------------------------------------------------

    def emit(self, stage: ForwardStage, msg: Msg, fields: IpFields,
             payload: bytes, route: Route) -> bool:
        """Transmit the IP packet *fields* (:func:`read_ip`'s tuple,
        rewritten as it leaves) + *payload* out *route*'s port,
        fragmenting for the egress MTU unless DF forbids it."""
        port = self.ports[route.port]
        egress_mtu = port.eth.payload_mtu()
        size = len(payload)
        if IP_SIZE + size <= egress_mtu:
            return self._transmit(stage, msg, port, route, fields[6],
                                  pack_ip(*fields) + payload)
        _len, ident, flags_frag, ttl, proto, src, dst = fields
        if flags_frag & IP_DF:
            # The PMTUD signal: refuse, and tell the sender how big a
            # packet this hop would have carried.
            stage.note_drop(msg, f"DF datagram exceeds {route.port} "
                                 f"MTU {egress_mtu}", "df_mtu")
            self.frag_needed_sent += 1
            self.send_error(stage, msg, fields, payload,
                            IcmpHeader.DEST_UNREACH,
                            IcmpHeader.CODE_FRAG_NEEDED, egress_mtu)
            return False
        chunk = (egress_mtu - IP_SIZE) & ~7
        if chunk <= 0:
            stage.note_drop(msg, f"egress MTU {egress_mtu} too small to "
                                 "fragment", "mtu_too_small")
            return False
        # The arriving packet may itself be a fragment: offsets stay
        # relative to the original datagram and only the last piece of
        # the *last* incoming fragment clears MF.
        base = (flags_frag & IP_OFFSET_MASK) * 8
        last = flags_frag & IP_MF
        sent = False
        for offset in range(0, size, chunk):
            end = min(offset + chunk, size)
            flags = IP_MF if end < size else last
            header = pack_ip(IP_SIZE + end - offset, ident,
                             flags | ((base + offset) // 8 & IP_OFFSET_MASK),
                             ttl, proto, src, dst)
            charge(msg, params.FWD_FRAG_PER_FRAG_US)
            self.fragments_created += 1
            sent = self._transmit(stage, msg, port, route, dst,
                                  header + payload[offset:end]) or sent
        return sent

    def _transmit(self, stage: ForwardStage, msg: Msg, port: ForwardPort,
                  route: Route, dst: int, packet: bytes) -> bool:
        next_hop = route.next_hop if route.next_hop is not None else dst
        mac = port.arp.get(next_hop)
        if mac is None:
            self.arp_miss_drops += 1
            stage.note_drop(msg, f"no ARP entry for {IpAddr(next_hop)} on "
                                 f"{port.name}", "arp_miss")
            return False
        eth = port.eth
        frame = Msg(mac + eth.mac_bytes + _ETHERTYPE_IP + packet)
        charge(msg, params.ETH_PROC_US)
        if not eth.transmit(frame):
            stage.note_drop(msg, f"frame exceeds {port.name} MTU",
                            "oversize_frame")
            return False
        return True

    # -- self-originated packets (ICMP errors, echo replies) ---------------------

    def send_ip(self, stage: ForwardStage, msg: Msg, src: int, dst: int,
                proto: int, payload: bytes) -> bool:
        """Originate one IP packet from this router (addresses as ints)
        and route it."""
        route = self.routes.lookup(dst)
        if route is None:
            self.no_route_drops += 1
            return False
        return self.emit(stage, msg, (IP_SIZE + len(payload), 0, 0, 64,
                                      proto, src, dst), payload, route)

    def send_error(self, stage: ForwardStage, msg: Msg,
                   offender: IpFields, payload: bytes,
                   icmp_type: int, code: int, mtu: int) -> bool:
        """Send an ICMP error about the packet *offender* (its
        :func:`read_ip` fields) back to its source.

        RFC 1122 suppression: never about a non-first fragment, and
        never about an ICMP error (no error storms about errors).  The
        next-hop MTU (Fragmentation Needed) travels in the ``seq``
        field; the error quotes the offending IP header plus its first
        8 payload bytes.
        """
        _len, _ident, flags_frag, _ttl, proto, src, _dst = offender
        if flags_frag & IP_OFFSET_MASK:
            self.errors_suppressed += 1
            return False
        if proto == IPPROTO_ICMP and len(payload) >= 1 \
                and payload[0] in (IcmpHeader.DEST_UNREACH,
                                   IcmpHeader.TIME_EXCEEDED):
            self.errors_suppressed += 1
            return False
        charge(msg, params.FWD_ICMP_ERROR_US)
        if icmp_type == IcmpHeader.TIME_EXCEEDED:
            self.time_exceeded_sent += 1
        elif icmp_type == IcmpHeader.DEST_UNREACH \
                and code != IcmpHeader.CODE_FRAG_NEEDED:
            self.unreachable_sent += 1
        quote = pack_ip(*offender) + payload[:IcmpHeader.ERROR_QUOTE_BYTES]
        body = IcmpHeader(icmp_type, 0, mtu, code=code).pack() + quote
        # The error originates at the ingress port's address — the hop
        # that refused the packet identifies itself.
        return self.send_ip(stage, msg,
                            src=self.ports[stage.ingress].ip.to_int(),
                            dst=src, proto=IPPROTO_ICMP, payload=body)

    # -- introspection ----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "forwarded": self.forwarded,
            "fragments_created": self.fragments_created,
            "ttl_drops": self.ttl_drops,
            "no_route_drops": self.no_route_drops,
            "arp_miss_drops": self.arp_miss_drops,
            "frag_needed_sent": self.frag_needed_sent,
            "time_exceeded_sent": self.time_exceeded_sent,
            "unreachable_sent": self.unreachable_sent,
            "errors_suppressed": self.errors_suppressed,
            "local_delivered": self.local_delivered,
            "echo_requests": self.echo_requests,
        }
