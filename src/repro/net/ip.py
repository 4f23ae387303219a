"""The IP router: routing by local knowledge, fragmentation, reassembly.

IP is the paper's worked example of *local* knowledge in path creation
(Section 2.2): "if IP can determine that the remote host is on the same
Ethernet as the local host" the routing decision can be frozen; otherwise
"IP can not be sure whether data will go out through ATM or FDDI" and the
path must end at IP.  ``create_stage`` implements exactly that rule.

IP is also where the classifier's *best-effort* semantics show up
(Section 3.5): fragments are handed to a short/fat catch-all path that
knows how to reassemble them, and "once the full datagram is available,
the IP protocol can rerun the classifier to find the next path".
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Dict, Optional, Tuple

from .. import params
from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.specialize import StageFragment, register_specializer
from ..core.stage import BWD, FWD, Stage, forward
from .addresses import IpAddr
from .common import PA_ETH_DST, PA_ETHERTYPE, charge, forward_or_deposit
from .headers import (
    ETHERTYPE_IP,
    IP_FLAG_DONT_FRAGMENT,
    IP_FLAG_MORE_FRAGMENTS,
    IpHeader,
)

#: Attribute marking the wide catch-all path that accepts any datagram
#: (used for the fragment-reassembly path).
PA_IP_CATCHALL = "PA_IP_CATCHALL"

def _next_ident16(counter=itertools.count(1)) -> int:
    return next(counter) & 0xFFFF


class _ReassemblyBuffer:
    """Fragments of one datagram, keyed by the RFC 791 reassembly id
    ``(src, dst, proto, ident)`` at the stage."""

    __slots__ = ("pieces", "total_end", "expiry")

    def __init__(self) -> None:
        self.pieces: Dict[int, bytes] = {}   # byte offset -> payload
        self.total_end: Optional[int] = None  # set when the MF=0 piece lands
        self.expiry = None  # engine Event for the reassembly timeout

    def add(self, offset: int, payload: bytes, more_fragments: bool) -> bool:
        """Absorb one fragment; False rejects a corrupting piece.

        Duplicates never shrink coverage: a retransmitted shorter piece
        at a covered offset is ignored in favour of the longer one.  A
        final fragment (MF=0) fixes the datagram's total length once; a
        second final piece claiming a *different* end is a conflicting
        train and is rejected rather than silently moving ``total_end``.
        """
        if not more_fragments:
            end = offset + len(payload)
            if self.total_end is not None and self.total_end != end:
                return False
            self.total_end = end
        existing = self.pieces.get(offset)
        if existing is None or len(payload) > len(existing):
            self.pieces[offset] = payload
        return True

    def complete(self) -> bool:
        if self.total_end is None:
            return False
        covered = 0
        for offset in sorted(self.pieces):
            if offset > covered:
                return False  # gap
            covered = max(covered, offset + len(self.pieces[offset]))
        return covered >= self.total_end

    def assemble(self) -> bytes:
        out = bytearray()
        for offset in sorted(self.pieces):
            piece = self.pieces[offset]
            if offset < len(out):
                piece = piece[len(out) - offset:]  # overlap trim
            out += piece
        return bytes(out[: self.total_end])


class IpStage(Stage):
    """IP's contribution to a path."""

    #: Cap on simultaneously reassembling datagrams per stage; oldest is
    #: evicted first.  This is the memory backstop behind the real
    #: virtual-time reassembly timeout (see ``REASSEMBLY_TIMEOUT_US``).
    MAX_REASSEMBLY = 32

    #: RFC-style reassembly timeout: a datagram whose fragments have not
    #: all arrived within this window is freed (engine-scheduled expiry;
    #: active whenever the router has an engine attached).
    REASSEMBLY_TIMEOUT_US = params.IP_REASSEMBLY_TIMEOUT_US

    def __init__(self, router: "IpRouter", enter_service: Optional[Service],
                 exit_service: Optional[Service], proto: int,
                 remote_ip: Optional[IpAddr], catchall: bool,
                 next_hop_ip: Optional[IpAddr] = None):
        super().__init__(router, enter_service, exit_service)
        self.proto = proto
        self.remote_ip = remote_ip
        #: Where frames for ``remote_ip`` go at the link layer: the peer
        #: itself when on-net, the configured gateway otherwise.
        self.next_hop_ip = next_hop_ip if next_hop_ip is not None \
            else remote_ip
        self.catchall = catchall
        self._buffers: Dict[Tuple[IpAddr, IpAddr, int, int],
                            _ReassemblyBuffer] = {}
        self.fragments_sent = 0
        self.datagrams_reassembled = 0
        self.set_deliver(FWD, self._send)
        self.set_deliver(BWD, self._receive)

    def establish(self, attrs: Attrs) -> None:
        """Resolve the next hop's MAC via the ARP resolver service and
        record it for the ETH stage — the nsClient edge of Figure 6 in
        action.  For an off-net peer behind a configured gateway the
        frozen MAC is the gateway's, not the peer's."""
        router: IpRouter = self.router  # type: ignore[assignment]
        if self.next_hop_ip is not None and self.exit_service is not None:
            # Only a path that actually continues to a link layer needs the
            # next hop's MAC; a path truncated at IP (off-net peer with no
            # gateway) does not.
            attrs[PA_ETH_DST] = router.resolve(self.next_hop_ip)
        attrs[PA_ETHERTYPE] = ETHERTYPE_IP

    # -- send: header push + fragmentation ---------------------------------------

    def _send(self, iface, msg: Msg, direction: int, **kwargs):
        router: IpRouter = self.router  # type: ignore[assignment]
        charge(msg, params.IP_PROC_US)
        # Catch-all paths carry per-message destinations (echo replies).
        dst = msg.meta.get("ip_dst_override") or self.remote_ip
        proto = msg.meta.get("ip_proto_override", self.proto)
        if dst is None:
            self.note_drop(msg, "IP path has no remote participant",
                           "misaddressed")
            return None
        # The learned path MTU (when PMTUD has shrunk it) bounds every
        # datagram to *dst*, so steady-state traffic is sized so that no
        # downstream hop has to fragment it.
        payload_mtu = router.payload_capacity(dst)
        df_flag = IP_FLAG_DONT_FRAGMENT if router.pmtud_enabled else 0
        if len(msg) <= payload_mtu:
            header = IpHeader(IpHeader.SIZE + len(msg), _next_ident16(),
                              proto, router.addr, dst, flags=df_flag)
            msg.push(header.pack())
            return forward(iface, msg, direction, **kwargs)
        return self._send_fragments(iface, msg, direction, payload_mtu,
                                    dst=dst, proto=proto, df_flag=df_flag,
                                    **kwargs)

    def _send_fragments(self, iface, msg: Msg, direction: int,
                        payload_mtu: int, dst: IpAddr, proto: int,
                        df_flag: int = 0, **kwargs):
        router: IpRouter = self.router  # type: ignore[assignment]
        chunk = payload_mtu - (payload_mtu % 8)  # offsets are 8-byte units
        if chunk <= 0:
            # A sub-8-byte payload budget cannot carry a single fragment
            # octet group: without this guard ``msg.split(0)`` never
            # drains the message and the loop below spins forever.
            self.note_drop(
                msg, f"payload MTU {payload_mtu} too small to fragment",
                "mtu_too_small")
            router.mtu_too_small_drops += 1
            return None
        ident = _next_ident16()
        offset = 0
        result = None
        while len(msg) > 0:
            take = min(chunk, len(msg))
            piece = msg.split(take)
            more = len(msg) > 0
            header = IpHeader(
                IpHeader.SIZE + take, ident, proto,
                router.addr, dst,
                flags=(IP_FLAG_MORE_FRAGMENTS if more else 0) | df_flag,
                frag_offset=offset // 8)
            piece.push(header.pack())
            charge(piece, params.IP_FRAG_PER_FRAG_US)
            self.fragments_sent += 1
            offset += take
            result = forward(iface, piece, direction, **kwargs)
        return result

    # -- receive: validation + reassembly -------------------------------------------

    def _receive(self, iface, msg: Msg, direction: int, **kwargs):
        router: IpRouter = self.router  # type: ignore[assignment]
        charge(msg, params.IP_PROC_US)
        if msg.meta.pop("ip_validated", False):
            # Flow-cache hit: the key already re-validated IHL, protocol,
            # non-fragment flags and both addresses (the original chain
            # walk checked dst == ours when the entry was inserted); only
            # the per-packet total length still matters, for trimming
            # link-layer padding.
            payload_len = int.from_bytes(msg.peek(2, at=2), "big") \
                - IpHeader.SIZE
            if payload_len < 0:
                # A negative length would trim from the *end* below.
                self.note_drop(msg, "IP total length below header length",
                               "malformed")
                router.rx_dropped += 1
                return None
            router.rx_validated += 1
            msg.pop(IpHeader.SIZE)
            if len(msg) > payload_len:
                msg = Msg(msg.to_bytes()[:payload_len], meta=msg.meta)
            return forward_or_deposit(iface, msg, direction, **kwargs)
        if len(msg) < IpHeader.SIZE:
            self.note_drop(msg, "short IP packet", "malformed")
            router.rx_dropped += 1
            return None
        header = IpHeader.unpack(msg.peek(IpHeader.SIZE))
        if header.dst != router.addr:
            self.note_drop(msg, f"IP dst {header.dst} is not {router.addr}",
                           "misaddressed")
            router.rx_dropped += 1
            return None
        payload_len = header.total_length - IpHeader.SIZE
        if payload_len < 0:
            self.note_drop(msg, "IP total length below header length",
                           "malformed")
            router.rx_dropped += 1
            return None
        msg.pop(IpHeader.SIZE)
        # Trim link-layer padding beyond the IP total length.
        if len(msg) > payload_len:
            tail = msg.to_bytes()[:payload_len]
            trimmed = Msg(tail, meta=msg.meta)
            msg = trimmed
        msg.meta["ip_header"] = header
        if header.is_fragment:
            charge(msg, params.IP_FRAG_PER_FRAG_US)
            return self._receive_fragment(iface, header, msg, direction,
                                          **kwargs)
        return forward_or_deposit(iface, msg, direction, **kwargs)

    def _receive_fragment(self, iface, header: IpHeader, msg: Msg,
                          direction: int, **kwargs):
        router: IpRouter = self.router  # type: ignore[assignment]
        # RFC 791 reassembly id: fragment trains from one peer to
        # different destinations or protocols with colliding 16-bit
        # idents must land in distinct buffers.
        key = (header.src, header.dst, header.proto, header.ident)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self.MAX_REASSEMBLY:
                oldest = next(iter(self._buffers))
                self._evict_buffer(oldest)
            buffer = self._buffers[key] = _ReassemblyBuffer()
            if router.engine is not None:
                # The real RFC reassembly timeout: an engine-scheduled
                # expiry frees the partial datagram in virtual time; the
                # LRU eviction above remains only as a memory backstop.
                buffer.expiry = router.engine.schedule(
                    self.REASSEMBLY_TIMEOUT_US, self._expire_buffer, key)
        if not buffer.add(header.frag_offset * 8, msg.to_bytes(),
                          header.more_fragments):
            self.note_drop(msg, "conflicting final fragment for "
                                f"datagram {header.ident}", "malformed")
            router.rx_dropped += 1
            return None
        if not buffer.complete():
            return None  # absorbed: most fragments produce no output
        self._free_buffer(key)
        self.datagrams_reassembled += 1
        # The assembly copy costs time proportional to the datagram.
        charge(msg, buffer.total_end * params.REASSEMBLY_US_PER_BYTE)
        whole = Msg(buffer.assemble(), meta=msg.meta)
        rebuilt = IpHeader(IpHeader.SIZE + len(whole), header.ident,
                           header.proto, header.src, header.dst)
        whole.meta["ip_header"] = rebuilt
        if self.catchall:
            # Short/fat path's job ends here: rerun the classifier on the
            # assembled datagram so it reaches the path that wants it.
            return router.reclassify(whole, rebuilt)
        return forward_or_deposit(iface, whole, direction, **kwargs)

    def _free_buffer(self, key) -> None:
        """Remove a reassembly buffer and cancel its pending expiry."""
        buffer = self._buffers.pop(key, None)
        if buffer is not None and buffer.expiry is not None:
            buffer.expiry.cancel()
            buffer.expiry = None

    def _evict_buffer(self, key) -> None:
        """LRU memory backstop: free the oldest partial datagram and
        ledger the loss, so eviction accounting reconciles exactly the
        way timeout accounting does."""
        router: IpRouter = self.router  # type: ignore[assignment]
        self._free_buffer(key)
        router.reassembly_evictions += 1
        if self.path is not None:
            placeholder = Msg(b"", meta={})
            self.path.note_drop(
                placeholder,
                f"reassembly buffer evicted for datagram {key[3]} "
                f"from {key[0]}",
                "reassembly_eviction")

    def _expire_buffer(self, key) -> None:
        """Engine callback: the reassembly window for *key* elapsed without
        the datagram completing; free the partial state and account the
        loss against the path."""
        router: IpRouter = self.router  # type: ignore[assignment]
        buffer = self._buffers.pop(key, None)
        if buffer is None:
            return
        buffer.expiry = None
        router.reassembly_timeouts += 1
        if self.path is not None:
            placeholder = Msg(b"", meta={})
            self.path.note_drop(
                placeholder,
                f"reassembly timeout for datagram {key[3]} from {key[0]}",
                "reassembly_timeout")

    def destroy(self) -> None:
        for key in list(self._buffers):
            self._free_buffer(key)


#: One prebound struct for the only per-packet IP field the validated
#: branch still reads: the big-endian total length at header offset 2.
_IP_TOTAL_LENGTH = struct.Struct("!H")


def _specialize_ip(stage: "IpStage", iface, direction: int,
                   terminal: bool) -> Optional[StageFragment]:
    """Fuse the validated receive branch of :meth:`IpStage._receive`.

    The padding-trim case (link-layer padding beyond the IP total length)
    rebinds the message to a freshly copied ``Msg`` with a *copied* meta
    dict — semantics the straight-line fused body deliberately does not
    carry — so padded frames bail to the reference walk per message,
    before any mutation.
    """
    if direction != BWD or terminal:
        return None
    if not stage.has_pristine_deliver(BWD, IpStage._receive):
        return None
    router = stage.router

    def cost_expr(ctx):
        return "%s.IP_PROC_US" % ctx.bind(params, "params")

    def bail(ctx):
        unpack = ctx.bind(_IP_TOTAL_LENGTH.unpack_from, "ip_len")
        raw = ctx.need_raw()
        lines = ["_plen = %s(%s, %d)[0] - %d"
                 % (unpack, raw, ctx.offset + 2, IpHeader.SIZE),
                 "if len(m) - %d > _plen:" % (ctx.offset + IpHeader.SIZE)]
        lines += ["    " + line for line in ctx.bail_action()]
        return lines

    def epilogue(ctx):
        return ["%s.rx_validated += _live" % ctx.bind(router, "ip_router")]

    return StageFragment(stamps=("ip_validated",), pop=IpHeader.SIZE,
                         cost_expr=cost_expr, bail=bail, epilogue=epilogue)


register_specializer(IpStage, _specialize_ip)


@register_router("IpRouter")
class IpRouter(Router):
    """The IP protocol router."""

    SERVICES = ("up:net", "<down:net", "res:nsClient")

    def __init__(self, name: str, addr: str = "10.0.0.1",
                 prefix_len: int = 24):
        super().__init__(name)
        self.addr = IpAddr(addr)
        self.prefix_len = prefix_len
        self._proto_peers: Dict[int, Tuple[Router, Service]] = {}
        #: The wide reassembly path fragments are classified to.
        self.frag_path = None
        #: Kernel hook receiving reassembled datagrams for reclassification
        #: (set by the Scout kernel; see ScoutKernel._reclassify).
        self.reclassify_hook: Optional[Callable[[Msg, IpHeader], None]] = None
        #: Simulation engine for reassembly-timeout scheduling; ``None``
        #: (the default) means no timers and eviction-only cleanup.
        self.engine = None
        #: Default gateway for off-net destinations.  ``None`` keeps the
        #: strict local-knowledge rule (paths to off-net peers truncate
        #: at IP); a configured gateway re-freezes the routing decision:
        #: there is exactly one way out, via this router.
        self.gateway: Optional[IpAddr] = None
        #: Learned path MTU per destination (total IP packet bytes), fed
        #: by ICMP Fragmentation Needed messages (RFC 1191).
        self.pmtu: Dict[IpAddr, int] = {}
        #: When True, sends carry DF and are sized to the learned PMTU.
        self.pmtud_enabled = False
        # statistics
        self.rx_dropped = 0
        #: Datagrams that took the flow-validated fast receive (DESIGN.md §13).
        self.rx_validated = 0
        self.reassembly_evictions = 0
        self.reassembly_timeouts = 0
        self.pmtu_updates = 0
        self.mtu_too_small_drops = 0

    def use_engine(self, engine) -> None:
        """Attach a virtual-time engine so reassembly buffers expire on the
        RFC timeout rather than relying solely on LRU eviction."""
        self.engine = engine

    # -- wiring ---------------------------------------------------------------------

    def init(self) -> None:
        super().init()
        down = self.service("down").sole_link()
        eth_router, _service = down.peer_of(self.service("down"))
        register = getattr(eth_router, "register_ethertype", None)
        if register is not None:
            register(ETHERTYPE_IP, self, self.service("up"))

    def register_proto(self, proto: int, router: Router,
                       service: Service) -> None:
        """Transport routers (UDP, TCP, ICMP) register their protocol id."""
        self._proto_peers[proto] = (router, service)

    def resolve(self, ip: IpAddr):
        """Resolve *ip* through the connected nsProvider (ARP)."""
        res = self.service("res").sole_link()
        arp_router, _service = res.peer_of(self.service("res"))
        return arp_router.resolve(ip)

    def frame_payload_mtu(self) -> int:
        down = self.service("down").sole_link()
        eth_router, _service = down.peer_of(self.service("down"))
        return eth_router.payload_mtu()

    # -- gateway + path-MTU discovery ------------------------------------------------

    def set_gateway(self, ip) -> None:
        """Route off-net destinations via *ip* (which must be on-net)."""
        gateway = IpAddr(ip)
        if not self.addr.same_network(gateway, self.prefix_len):
            raise ValueError(f"gateway {gateway} is not on "
                             f"{self.addr}/{self.prefix_len}")
        self.gateway = gateway

    def enable_pmtud(self, enabled: bool = True) -> None:
        """Turn on sender-side path-MTU discovery: outgoing datagrams
        carry DF and are sized to the learned per-destination PMTU."""
        self.pmtud_enabled = enabled

    def note_frag_needed(self, dst, mtu: int) -> None:
        """Absorb an ICMP Fragmentation Needed report for *dst*.

        The learned PMTU only ever shrinks (a grown link is rediscovered
        by timeout/probing policies above us, never by believing a larger
        report), and never below the RFC 791 minimum.
        """
        dst = IpAddr(dst)
        mtu = max(int(mtu), params.IP_MIN_MTU)
        current = self.pmtu.get(dst)
        if current is None or mtu < current:
            self.pmtu[dst] = mtu
            self.pmtu_updates += 1

    def path_mtu(self, dst) -> int:
        """Largest IP packet (header + payload) sendable toward *dst*:
        the first-hop link MTU clamped by any learned PMTU."""
        mtu = self.frame_payload_mtu()
        learned = self.pmtu.get(IpAddr(dst))
        if learned is not None:
            mtu = min(mtu, learned)
        return mtu

    def payload_capacity(self, dst=None) -> int:
        """Bytes of transport payload one unfragmented datagram to *dst*
        can carry (``None``: first-hop capacity, no PMTU clamp)."""
        if dst is None:
            return self.frame_payload_mtu() - IpHeader.SIZE
        return self.path_mtu(dst) - IpHeader.SIZE

    # -- path creation ------------------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        catchall = bool(attrs.get(PA_IP_CATCHALL))
        remote_ip: Optional[IpAddr] = None
        if not catchall:
            participants = attrs.get(PA_NET_PARTICIPANTS)
            if participants is None:
                return None, None  # invariants too weak: path ends before IP
            remote_ip = IpAddr(participants[0])
        proto = attrs.get("PA_PROTID", 0)
        down = self.service("down")
        # The local-knowledge routing rule: freeze the decision only when
        # there is exactly one lower network and (for addressed paths) the
        # peer is directly on it.
        if len(down.links) != 1:
            stage = IpStage(self, enter, None, proto, remote_ip, catchall)
            return stage, None  # can't pick among ATM/FDDI/...: path ends
        next_hop_ip = remote_ip
        if remote_ip is not None and not self.addr.same_network(
                remote_ip, self.prefix_len):
            if self.gateway is None:
                stage = IpStage(self, enter, None, proto, remote_ip,
                                catchall)
                return stage, None  # unknown gateway: decision not frozen
            # A configured default gateway restores local knowledge: the
            # only way off this net is via the gateway, so the path can
            # freeze that next hop and continue down to the link layer.
            next_hop_ip = self.gateway
        peer_router, peer_service = down.links[0].peer_of(down)
        stage = IpStage(self, enter, down, proto, remote_ip, catchall,
                        next_hop_ip=next_hop_ip)
        return stage, NextHop(peer_router, peer_service, attrs)

    # -- classification -------------------------------------------------------------------

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        if len(msg) < offset + IpHeader.SIZE:
            return DemuxResult.drop(f"{self.name}: short IP packet")
        try:
            header = IpHeader.unpack(msg.peek(IpHeader.SIZE, at=offset))
        except ValueError as exc:
            return DemuxResult.drop(f"{self.name}: {exc}")
        if header.dst != self.addr:
            return DemuxResult.drop(f"{self.name}: not our address "
                                    f"({header.dst})")
        msg.meta["ip_src"] = header.src
        msg.meta["ip_proto"] = header.proto
        if header.is_fragment:
            if self.frag_path is not None:
                return DemuxResult.found(self.frag_path)
            return DemuxResult.drop(
                f"{self.name}: fragment but no reassembly path configured")
        peer = self._proto_peers.get(header.proto)
        if peer is None:
            return DemuxResult.drop(
                f"{self.name}: no transport for proto {header.proto}")
        return DemuxResult.refine(peer[0], peer[1], consumed=IpHeader.SIZE)

    # -- reassembled-datagram handoff ----------------------------------------------------------

    def reclassify(self, msg: Msg, header: IpHeader) -> None:
        """Hand a freshly reassembled datagram back to the kernel so the
        classifier can run again and route it to its real path."""
        if self.reclassify_hook is not None:
            self.reclassify_hook(msg, header)
        else:
            msg.meta["drop_reason"] = "reassembled datagram with no reclassify hook"
