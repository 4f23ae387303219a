"""The MFLOW router: the paper's flow-control protocol (Section 4.1).

"The MFLOW router implements a simple flow-control protocol.  MFLOW
advertises the maximum sequence number that it is willing to receive based
on the sequence number of the last processed packet and the input queue
size.  MFLOW uses sequence numbers to ensure ordered, but not reliable,
delivery of packets to MPEG."

Receive-side behaviour implemented here (the sink; the video *source* is
a remote host agent):

* data packets out of sequence order are never delivered backwards: stale
  or duplicate sequence numbers are dropped, gaps are tolerated (ordered,
  not reliable);
* after each delivered packet the stage *turns a window advertisement
  around* through the same path — bidirectionality (Section 2.4.1) in
  action — advertising ``last_seq + free input-queue slots`` and echoing
  the sender's timestamp so the source can measure RTT ("MFLOW can
  measure the round-trip latency by putting a timestamp in its header").
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import params
from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.queues import BWD_IN
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.specialize import StageFragment, register_specializer
from ..core.stage import BWD, FWD, Stage, forward, turn_around
from .common import charge, forward_or_deposit
from .headers import MflowHeader


class MflowStage(Stage):
    """MFLOW's contribution to a path (receive side)."""

    def __init__(self, router: "MflowRouter", enter_service, exit_service,
                 flow_key: Optional[Tuple]):
        super().__init__(router, enter_service, exit_service)
        self.flow_key = flow_key
        self.next_expected = 0
        self.last_delivered_seq = -1
        self.stale_drops = 0
        self.gaps = 0
        self.window_advs_sent = 0
        self.window_advs_coalesced = 0
        self.set_deliver(FWD, self._send)
        self.set_deliver(BWD, self._receive)

    def establish(self, attrs: Attrs) -> None:
        router: MflowRouter = self.router  # type: ignore[assignment]
        if self.flow_key is not None:
            router.register_flow(self.flow_key, self.path)

    def destroy(self) -> None:
        router: MflowRouter = self.router  # type: ignore[assignment]
        if self.flow_key is not None:
            router.unregister_flow(self.flow_key, self.path)
            # A dying demux anchor promotes a live path-group sibling
            # (see UdpStage.destroy).
            group = self.path.group
            if group is not None:
                for sibling in group.live_members():
                    if sibling is not self.path and \
                            router.register_flow(self.flow_key, sibling):
                        break

    # -- send side (window advertisements travel FWD) --------------------------

    def _send(self, iface, msg: Msg, direction: int, **kwargs):
        charge(msg, params.MFLOW_PROC_US / 2)
        return forward(iface, msg, direction, **kwargs)

    # -- receive side ------------------------------------------------------------

    def _receive(self, iface, msg: Msg, direction: int, **kwargs):
        router: MflowRouter = self.router  # type: ignore[assignment]
        charge(msg, params.MFLOW_PROC_US)
        if len(msg) < MflowHeader.SIZE:
            self.note_drop(msg, "short MFLOW packet", "malformed")
            return None
        header = MflowHeader.unpack(msg.peek(MflowHeader.SIZE))
        msg.pop(MflowHeader.SIZE)
        if header.is_window_adv:
            # We are the sink; an advertisement addressed to us is noise.
            self.note_drop(msg, "window advertisement at sink", "protocol")
            return None
        if header.seq < self.next_expected:
            self.stale_drops += 1
            self.note_drop(
                msg, f"stale seq {header.seq} < {self.next_expected}",
                "stale_seq")
            return None
        if header.seq > self.next_expected:
            self.gaps += 1  # ordered but not reliable: tolerate the gap
        self.next_expected = header.seq + 1
        self.last_delivered_seq = header.seq
        msg.meta["mflow_header"] = header
        if msg.meta.pop("batch_followup", False):
            # Batched run (DESIGN.md §13): defer the advertisement to the
            # batch tail.  The tail's advertisement covers the whole run —
            # it advertises ``last_delivered_seq`` plus the input queue's
            # free slots *after* the run drained, which is exactly what
            # per-message advertising would have converged to.
            self.window_advs_coalesced += 1
        else:
            self._advertise_window(iface, header, msg, direction)
        return forward_or_deposit(iface, msg, direction, **kwargs)

    def _advertise_window(self, iface, header: MflowHeader, data_msg: Msg,
                          direction: int) -> None:
        """Turn a window advertisement around toward the source."""
        free = self.path.q[BWD_IN].free_slots
        if free is None:
            free = 64
        adv = MflowHeader(self.last_delivered_seq + 1 + free,
                          header.timestamp_us,  # echoed for RTT measurement
                          window=free,
                          flags=MflowHeader.FLAG_WINDOW_ADV)
        wadv = Msg(adv.pack())
        # Echo replies and advertisements reuse the data packet's source
        # as their destination; addressed paths already know it, catch-all
        # paths read the override.
        for key in ("ip_dst_override", "udp_dport_override"):
            if key in data_msg.meta:
                wadv.meta[key] = data_msg.meta[key]
        charge(wadv, params.MFLOW_PROC_US / 2)
        self.window_advs_sent += 1
        turn_around(iface, wadv, direction)
        # The advertisement's traversal cost lands on the data message's
        # account so the path thread pays for it in one Compute.
        charge(data_msg, wadv.meta.get("cost_us", 0.0))


def _specialize_mflow(stage: MflowStage, iface, direction: int,
                      terminal: bool) -> Optional[StageFragment]:
    """Fuse :meth:`MflowStage._receive` — including every sequencing
    branch, inline.

    MFLOW has no validation stamp: nothing upstream proves anything about
    its header, so the fused body keeps the scalar length check, drop
    reasons, gap/stale accounting, the ``batch_followup`` advertisement
    coalescing, and the call back into :meth:`_advertise_window` for the
    non-coalesced case (which charges the advertisement's traversal onto
    the data message's account — hence the cost flush/reload around it).
    """
    if direction != BWD or terminal:
        return None
    if not stage.has_pristine_deliver(BWD, MflowStage._receive):
        return None

    def cost_expr(ctx):
        return "%s.MFLOW_PROC_US" % ctx.bind(params, "params")

    def body(ctx):
        st = ctx.bind(stage, "mflow")
        hdr = ctx.bind(MflowHeader, "MflowHeader")
        ifc = ctx.bind(iface, "mflow_iface")
        size = MflowHeader.SIZE
        return [
            "if len(m) < %d:" % size,
            "    meta['cost_us'] = c",
            "    %s.note_drop(m, 'short MFLOW packet', 'malformed')" % st,
            "    continue",
            "_h = %s.unpack(m.peek(%d))" % (hdr, size),
            "m.strip(%d)" % size,
            "if _h.is_window_adv:",
            "    meta['cost_us'] = c",
            "    %s.note_drop(m, 'window advertisement at sink',"
            " 'protocol')" % st,
            "    continue",
            "_seq = _h.seq",
            "_exp = %s.next_expected" % st,
            "if _seq < _exp:",
            "    %s.stale_drops += 1" % st,
            "    meta['cost_us'] = c",
            "    %s.note_drop(m, 'stale seq %%d < %%d' %% (_seq, _exp),"
            " 'stale_seq')" % st,
            "    continue",
            "if _seq > _exp:",
            "    %s.gaps += 1" % st,
            "%s.next_expected = _seq + 1" % st,
            "%s.last_delivered_seq = _seq" % st,
            "meta['mflow_header'] = _h",
            "if meta.pop('batch_followup', False):",
            "    %s.window_advs_coalesced += 1" % st,
            "else:",
            "    meta['cost_us'] = c",
            "    %s._advertise_window(%s, _h, m, %d)"
            % (st, ifc, ctx.direction),
            "    c = meta['cost_us']",
        ]

    return StageFragment(cost_expr=cost_expr, body=body)


register_specializer(MflowStage, _specialize_mflow)


@register_router("MflowRouter")
class MflowRouter(Router):
    """The MFLOW protocol router."""

    SERVICES = ("up:net", "<down:net")

    def __init__(self, name: str):
        super().__init__(name)
        self._flows: Dict[Tuple, object] = {}

    # -- flow registry --------------------------------------------------------------

    def register_flow(self, key: Tuple, path) -> bool:
        """Register *path* as the demux anchor for *key*.

        First live binding wins, mirroring the port maps in UDP/TCP: when
        several same-flow paths coexist (path-group members), the earliest
        stays the anchor; a dead or missing anchor is always replaced.
        Returns True when *path* holds the binding.
        """
        current = self._flows.get(key)
        if current is not None and current is not path \
                and getattr(current, "state", None) != "deleted":
            return False
        self._flows[key] = path
        return True

    def unregister_flow(self, key: Tuple, path=None) -> None:
        """Drop the binding for *key* — but only if *path* owns it, so a
        group member's teardown cannot unbind a sibling's anchor."""
        if path is None or self._flows.get(key) is path:
            self._flows.pop(key, None)

    @staticmethod
    def flow_key(remote_ip, remote_port: int) -> Tuple:
        return (str(remote_ip), int(remote_port))

    # -- path creation ------------------------------------------------------------------

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        participants = attrs.get(PA_NET_PARTICIPANTS)
        if participants is None:
            return None, None
        down = self.service("down")
        if len(down.links) != 1:
            return None, None
        peer_router, peer_service = down.links[0].peer_of(down)
        key = self.flow_key(participants[0], participants[1])
        stage = MflowStage(self, enter, down, key)
        return stage, NextHop(peer_router, peer_service, attrs)

    # -- classification --------------------------------------------------------------------

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        """Refinement entry when UDP maps a port to MFLOW rather than to a
        single path: match the exact flow by the source the lower
        classifiers stashed in the message meta."""
        ip_src = msg.meta.get("ip_src")
        ports = msg.meta.get("udp_ports")
        if ip_src is None or ports is None:
            return DemuxResult.drop(f"{self.name}: missing classifier context")
        key = self.flow_key(ip_src, ports[0])
        path = self._flows.get(key)
        if path is None:
            return DemuxResult.drop(f"{self.name}: no flow for {key}")
        return DemuxResult.found(path)
