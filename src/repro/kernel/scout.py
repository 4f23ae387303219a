"""The Scout kernel: the Figure 9 configuration, booted and running.

Wires the router graph (DISPLAY / MPEG / MFLOW / SHELL / UDP / IP / ETH
plus ARP and ICMP) and attaches the NIC and framebuffer, on the shared
:class:`~repro.kernel.runtime.PathRuntime` (whose flow cache every
receive probes first).  Around it the end host adds early discard of
skipped video frames (Section 4.4), the arrival EWMA the EDF deadline
estimate consumes, and the ``inline_icmp`` ablation.  Each path's
``wakeup`` callback imposes EDF deadlines (or RR priority) on every
wakeup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import params
from ..core.attributes import (
    PA_BATCH,
    PA_FRAME_RATE,
    PA_INQ_LEN,
    PA_NET_PARTICIPANTS,
    PA_OUTQ_LEN,
    PA_PATHNAME,
    PA_SCHED_POLICY,
    PA_SCHED_PRIORITY,
    PA_SPECIALIZE,
    PA_TRACE,
    Attrs,
)
from ..core.graph import RouterGraph
from ..core.message import Msg
from ..core.path import Path
from ..core.path_create import AdmissionHook, path_create
from ..core.stage import BWD
from ..core.transform import TransformRegistry
from ..display.framebuffer import Framebuffer
from ..display.router import DisplayRouter
from ..mpeg.clips import ClipProfile, PACKET_HEADER_SIZE
from ..mpeg.decoder import peek_packet_header
from ..mpeg.router import PA_FRAME_SKIP, PA_VIDEO_PROFILE, MpegRouter
from ..net.arp import ArpRouter
from ..net.common import PA_LOCAL_PORT, PA_UDP_CHECKSUM, take_cost
from ..net.eth import EthRouter
from ..net.headers import EthHeader, IpHeader, UdpHeader, MflowHeader
from ..net.icmp import IcmpRouter
from ..net.ip import PA_IP_CATCHALL, IpRouter
from ..net.mflow import MflowRouter
from ..net.segment import EtherSegment, NetDevice
from ..multipath import MEMBER_REMOVED, PathGroup
from ..net.udp import UdpRouter
from ..observe import Observatory
from ..shell.router import ShellRouter
from ..sim.world import POLICY_EDF, POLICY_RR, SimWorld
from .runtime import PathRuntime
from .transforms import default_transforms

#: Byte offset of the MPEG packet header in a full video frame:
#: ETH(14) + IP(20) + UDP(8) + MFLOW(12).
_MPEG_HEADER_OFFSET = (EthHeader.SIZE + IpHeader.SIZE + UdpHeader.SIZE
                       + MflowHeader.SIZE)


class VideoSession:
    """Handle on one running video path."""

    def __init__(self, path: Path, profile: ClipProfile, local_port: int,
                 sink, thread):
        self.path = path
        self.profile = profile
        self.local_port = local_port
        self.sink = sink
        self.thread = thread

    @property
    def frames_presented(self) -> int:
        return self.sink.presented

    @property
    def missed_deadlines(self) -> int:
        return self.sink.missed_deadlines

    def achieved_fps(self) -> float:
        return self.sink.achieved_fps()

    def __repr__(self) -> str:
        return (f"<VideoSession {self.profile.name} path#{self.path.pid} "
                f"presented={self.frames_presented}>")


class VideoSessionGroup:
    """Handle on a fanned-out video: one flow, N parallel MPEG paths.

    The member paths share a local port; the UDP demux anchor is the
    first live member and the group's selection policy (plus frame-number
    affinity, so a frame's packets reassemble on one member) spreads the
    packets.  Presented frames are the sum over members — each member
    drives its own framebuffer sink.
    """

    def __init__(self, group: PathGroup, sessions: List[VideoSession],
                 profile: ClipProfile, local_port: int):
        self.group = group
        self.sessions = sessions
        self.profile = profile
        self.local_port = local_port

    @property
    def paths(self) -> List[Path]:
        return [s.path for s in self.sessions]

    @property
    def frames_presented(self) -> int:
        return sum(s.frames_presented for s in self.sessions)

    @property
    def missed_deadlines(self) -> int:
        return sum(s.missed_deadlines for s in self.sessions)

    def achieved_fps(self) -> float:
        return sum(s.achieved_fps() for s in self.sessions)

    def __repr__(self) -> str:
        return (f"<VideoSessionGroup {self.profile.name} "
                f"gid={self.group.gid} members={len(self.sessions)} "
                f"presented={self.frames_presented}>")


class ScoutKernel(PathRuntime):
    """A booted Scout system on the virtual machine."""

    def __init__(self, world: SimWorld, segment: Optional[EtherSegment],
                 local_mac: str = "02:00:00:00:00:01",
                 local_ip: str = "10.0.0.1",
                 rate_limited_display: bool = True,
                 transforms: Optional[TransformRegistry] = None,
                 admission: Optional[AdmissionHook] = None,
                 icmp_priority: int = 1,
                 inline_icmp: bool = False,
                 vsync_hz: float = params.VSYNC_HZ,
                 flow_cache_capacity: int = 128,
                 specialize: Optional[bool] = None,
                 udp_sink: bool = False,
                 display: bool = True,
                 device=None):
        super().__init__(world, flow_cache_capacity)
        #: Handed to every ``path_create(specialize=)`` below
        #: (DESIGN.md §11): a per-path ``PA_SPECIALIZE`` attribute
        #: still overrides it and ``None`` takes the default (on).
        self.specialize = specialize
        self.segment = segment
        self.transforms = transforms if transforms is not None \
            else default_transforms()
        self.admission = admission
        self.inline_icmp = inline_icmp
        #: Shared tracing + metrics substrate.  Dormant (no per-packet
        #: work) until some path is created with ``PA_TRACE``.
        self.observatory = Observatory(world.engine)

        # -- devices ------------------------------------------------------
        # The kernel is device-agnostic: by default it builds a
        # simulated NIC on *segment*, but a caller may hand in any
        # object with ``.mac`` and ``.send(frame)`` (the socket backend
        # passes a ``repro.net.sockdev.SocketNetDevice``) and drive
        # :meth:`rx_burst` itself.
        if device is not None:
            self.device = device
        else:
            if segment is None:
                raise ValueError(
                    "ScoutKernel needs either a segment (simulated "
                    "device) or an explicit device=")
            self.device = NetDevice(local_mac, world.cpu, name="eth0")
            self.device.rx_handler = self._rx
            segment.attach(self.device)
        self.framebuffer = Framebuffer(world.engine, world.cpu,
                                       vsync_hz=vsync_hz,
                                       rate_limited=rate_limited_display)

        # -- router graph (Figure 9 + ARP + ICMP) --------------------------
        self.graph = RouterGraph()
        self.eth = self.graph.add(EthRouter("ETH", mac=local_mac))
        self.arp = self.graph.add(ArpRouter("ARP"))
        self.ip = self.graph.add(IpRouter("IP", addr=local_ip))
        self.udp = self.graph.add(UdpRouter("UDP"))
        self.icmp = self.graph.add(IcmpRouter("ICMP"))
        self.mflow = self.graph.add(MflowRouter("MFLOW"))
        self.mpeg = self.graph.add(MpegRouter("MPEG"))
        self.display = self.graph.add(DisplayRouter("DISPLAY"))
        self.shell = self.graph.add(ShellRouter("SHELL"))
        self.graph.connect("IP.down", "ETH.up")
        self.graph.connect("IP.res", "ARP.resolver")
        self.graph.connect("ARP.down", "ETH.up")
        self.graph.connect("UDP.down", "IP.up")
        self.graph.connect("ICMP.down", "IP.up")
        self.graph.connect("MFLOW.down", "UDP.up")
        self.graph.connect("MPEG.down", "MFLOW.up")
        self.graph.connect("DISPLAY.down", "MPEG.up")
        self.graph.connect("SHELL.down", "UDP.up")
        #: Optional TEST sink atop UDP: a port-bound message sink whose
        #: paths the shard fabric (and tests) use as generic UDP flow
        #: endpoints.  Off by default so the graph stays the exact
        #: Figure 9 configuration the golden tests pin.
        self.test = None
        if udp_sink:
            from ..net.testrouter import TestRouter
            self.test = self.graph.add(TestRouter("TEST"))
            self.graph.connect("TEST.down", "UDP.up")
        self.eth.attach_device(self.device)
        self.display.attach_framebuffer(self.framebuffer)
        if segment is not None:
            self.arp.learn_from_segment(segment)
        self.graph.boot()
        # Timer-driven protocol machinery (IP reassembly expiry, ARP
        # request retries) runs on the world's virtual-time engine.
        self.ip.use_engine(world.engine)
        self.arp.use_engine(world.engine)

        # -- runtime state ---------------------------------------------------
        self.flow_cache.bind_metrics(self.observatory.metrics)
        self.observatory.metrics.collect(lambda: [
            ("kernel_unclassified_drops", {}, self.unclassified_drops)])
        self.sessions: List[VideoSession] = []
        self.shell_path: Optional[Path] = None
        #: port -> established sink path (see :meth:`start_udp_sink`).
        self.sink_paths: Dict[int, Path] = {}
        #: path pid -> keep-every-Nth modulus for adapter-level early drop.
        self._skip_filters: Dict[int, int] = {}
        self.early_drops = 0
        self.icmp_inline_served = 0

        #: With ``display=False`` the framebuffer exists but its vsync
        #: interrupt never starts: the engine can then go fully idle
        #: between bursts, which is what lets a shard worker run its
        #: world with ``run_until_idle`` instead of timed slices.  Video
        #: sessions need the vsync loop, so they require ``display=True``.
        self.display_active = display
        if display:
            self.framebuffer.start()

        # -- boot-time paths -------------------------------------------------
        self.icmp_path = self._make_service_path(
            self.icmp, Attrs(), POLICY_RR, icmp_priority, "icmp")
        self.icmp.echo_path = self.icmp_path
        self.frag_path = self._make_service_path(
            self.ip, Attrs({PA_IP_CATCHALL: True}), POLICY_RR, icmp_priority,
            "frag")
        self.ip.frag_path = self.frag_path
        self.ip.reclassify_hook = self._reclassify

        self.shell.transforms = self.transforms
        self.shell.register_command("mpeg_decode", self.display,
                                    self._mpeg_decode_attrs,
                                    self._mpeg_decode_post)

    # ------------------------------------------------------------------
    # Interrupt-time admission extras
    # ------------------------------------------------------------------

    def _admit(self, path: Optional[Path], msg: Msg) -> bool:
        """The end host's steps around the shared admission: early
        discard, the arrival EWMA, and the ``inline_icmp`` ablation."""
        if path is not None:
            if self._skip_filters and self._should_early_drop(path, msg):
                self.early_drops += 1
                path.note_drop(msg, "early discard of skipped frame",
                               "early_discard")
                self._shed()
                return False
            # Inter-arrival EWMA for the input-queue deadline (Section 4.3).
            now = self.world.engine.now
            last = path.last_arrival_us
            if last is not None:
                sample = now - last
                previous = path.interarrival_us
                path.interarrival_us = sample if previous is None \
                    else previous + 0.125 * (sample - previous)
            path.last_arrival_us = now
            if self.inline_icmp and path is self.icmp_path:
                # Ablation: no early segregation for ICMP — serve the
                # request at interrupt level, like a conventional kernel.
                path.deliver(msg, BWD)
                self.world.cpu.extend_interrupt(take_cost(msg))
                self.icmp_inline_served += 1
                return False
        return super()._admit(path, msg)

    def _should_early_drop(self, path: Path, msg: Msg) -> bool:
        """Reduced-quality early discard (Section 4.4): packets belonging
        to frames the user asked to skip die at the adapter."""
        modulus = self._skip_filters.get(path.pid)
        if not modulus or modulus <= 1:
            return False
        if len(msg) < _MPEG_HEADER_OFFSET + PACKET_HEADER_SIZE:
            return False
        header = peek_packet_header(
            msg.peek(PACKET_HEADER_SIZE, at=_MPEG_HEADER_OFFSET))
        if header is None:
            return False
        frame_no, _ftype, _flags = header
        return frame_no % modulus != 0

    def _make_service_path(self, router, attrs: Attrs, policy: str,
                           priority: int, name: str) -> Path:
        path = path_create(router, attrs, transforms=self.transforms,
                           admission=self.admission,
                           specialize=self.specialize)
        self._spawn_path_thread(path, f"{name}-path{path.pid}", policy,
                                priority)
        return path

    # ------------------------------------------------------------------
    # Video sessions
    # ------------------------------------------------------------------

    def build_video_attrs(self, profile: ClipProfile,
                          remote: Tuple[str, int],
                          local_port: Optional[int] = None,
                          fps: Optional[float] = None,
                          policy: str = POLICY_EDF,
                          priority: int = 0,
                          inq_len: int = 32,
                          outq_len: int = 32,
                          skip: int = 1,
                          checksum: bool = False,
                          prebuffer: int = 0,
                          deadline_mode: str = "output",
                          trace: bool = False,
                          batch: int = 1,
                          specialize: Optional[bool] = None) -> Attrs:
        """The invariants SHELL (or a test) supplies for an MPEG path."""
        from ..display.router import PA_DEADLINE_MODE, PA_PREBUFFER

        stream_fps = fps if fps is not None else profile.fps
        attrs = Attrs({
            PA_PREBUFFER: prebuffer,
            PA_DEADLINE_MODE: deadline_mode,
            PA_NET_PARTICIPANTS: remote,
            PA_PATHNAME: "MPEG",
            PA_VIDEO_PROFILE: profile,
            PA_LOCAL_PORT: self.udp.allocate_port(local_port),
            # Reduced-quality playback presents every Nth frame, so the
            # display schedule runs at the reduced rate.
            PA_FRAME_RATE: stream_fps / max(1, skip),
            PA_SCHED_POLICY: policy,
            PA_SCHED_PRIORITY: priority,
            PA_INQ_LEN: inq_len,
            PA_OUTQ_LEN: outq_len,
            PA_FRAME_SKIP: skip,
            PA_UDP_CHECKSUM: checksum,
            PA_BATCH: batch,
        })
        if trace:
            attrs[PA_TRACE] = self.observatory
        if specialize is not None:
            attrs[PA_SPECIALIZE] = specialize
        return attrs

    def start_video(self, profile: ClipProfile, remote: Tuple[str, int],
                    early_drop_skipped: bool = True,
                    **attr_kwargs) -> VideoSession:
        """Create an MPEG path + thread; returns the live session."""
        attrs = self.build_video_attrs(profile, remote, **attr_kwargs)
        path = path_create(self.display, attrs, transforms=self.transforms,
                           admission=self.admission,
                           specialize=self.specialize)
        return self._attach_video_path(path, early_drop_skipped)

    def _attach_video_path(self, path: Path,
                           early_drop_skipped: bool = True) -> VideoSession:
        attrs = path.attrs
        profile: ClipProfile = attrs[PA_VIDEO_PROFILE]
        skip = int(attrs.get(PA_FRAME_SKIP, 1))
        if skip > 1 and early_drop_skipped:
            self._skip_filters[path.pid] = skip
        path.add_delete_hook(self._drop_skip_filter)
        policy = attrs.get(PA_SCHED_POLICY, POLICY_EDF)
        priority = int(attrs.get(PA_SCHED_PRIORITY, 0))
        batch = int(attrs.get(PA_BATCH, 1) or 1)
        thread = self._spawn_path_thread(
            path, f"video-path{path.pid}", policy, priority, batch,
            reserve_output=True)
        sink = self.framebuffer.sinks[f"path{path.pid}"]
        if path.observer is not None:
            path.observer.watch_sink(sink)
        session = VideoSession(path, profile, attrs[PA_LOCAL_PORT], sink,
                               thread)
        self.sessions.append(session)
        return session

    # -- multipath video (one flow class, N parallel paths) -------------

    def frame_affinity(self, msg: Msg):
        """Affinity key for video fan-out: the MPEG frame number.

        A frame spans multiple packets and is damaged unless they all
        reassemble on the same member, so the group keeps every packet of
        a frame on one path; successive frames may land anywhere.
        """
        if len(msg) < _MPEG_HEADER_OFFSET + PACKET_HEADER_SIZE:
            return None
        header = peek_packet_header(
            msg.peek(PACKET_HEADER_SIZE, at=_MPEG_HEADER_OFFSET))
        if header is None:
            return None
        return header[0]  # frame number

    def start_video_group(self, profile: ClipProfile,
                          remote: Tuple[str, int], members: int = 2,
                          group_policy: str = "least_loaded",
                          local_port: Optional[int] = None,
                          early_drop_skipped: bool = True,
                          **attr_kwargs) -> VideoSessionGroup:
        """Fan one video flow across *members* parallel MPEG paths.

        All members share one local port; the first becomes the UDP demux
        anchor (first-live-wins binding) and the classifier re-dispatches
        every arriving packet through the group's selection policy with
        frame-number affinity.  When the anchor dies, a membership hook
        re-binds the port to a survivor and purges the group's flow-cache
        pins, so failover needs no help from the deleter.
        """
        if members < 1:
            raise ValueError("a video group needs at least one member")
        port = self.udp.allocate_port(local_port)
        group = PathGroup(group_policy,
                          name=f"video-{profile.name}-p{port}",
                          affinity_of=self.frame_affinity)
        group.bind_metrics(self.observatory.metrics)
        sessions: List[VideoSession] = []
        for _ in range(members):
            # Fresh attrs per member: path machinery stamps bookkeeping
            # (applied transforms, deadline probes) onto the path's own
            # attribute set.
            attrs = self.build_video_attrs(profile, remote,
                                           local_port=port, **attr_kwargs)
            path = path_create(self.display, attrs,
                               transforms=self.transforms,
                               admission=self.admission,
                               specialize=self.specialize)
            group.add(path)
            sessions.append(self._attach_video_path(path,
                                                    early_drop_skipped))
        group.on_change(self._rebind_group_anchor(port))
        return VideoSessionGroup(group, sessions, profile, port)

    def _rebind_group_anchor(self, port: int):
        """Membership hook keeping the UDP demux anchor live: when a
        member dies (watchdog rebuild, stop), promote a survivor to hold
        the port binding and drop the group's flow-cache pins."""
        def rebind(group: PathGroup, path: Path, event: str) -> None:
            if event != MEMBER_REMOVED:
                return
            group.purge_pins()
            for survivor in group.live_members():
                # First-live-wins: a no-op while the anchor is alive,
                # a promotion the moment it is not.
                if self.udp.bind_port_to_path(port, survivor):
                    break
        return rebind

    def set_frame_skip(self, path: Path, modulus: int) -> None:
        """Adjust adapter-level early discard for *path* at runtime: keep
        every *modulus*-th frame (1 restores full quality).  This is the
        knob the degradation governor turns under fault pressure — shedding
        load before any decode CPU is spent on it (Section 4.4)."""
        if modulus <= 1:
            self._skip_filters.pop(path.pid, None)
        else:
            self._skip_filters[path.pid] = int(modulus)
        # Early-discard reconfiguration flushes the flow's fast-path
        # state: the next packet re-walks the full chain and re-caches,
        # so no reconfiguration window can be masked by a hot entry.
        path.purge_flow_caches()

    def frame_skip(self, path: Path) -> int:
        """Current early-discard modulus for *path* (1 = keep everything)."""
        return self._skip_filters.get(path.pid, 1)

    def _drop_skip_filter(self, path: Path) -> None:
        self._skip_filters.pop(path.pid, None)

    def stop_video(self, session: VideoSession) -> None:
        """Tear down the session's path: flow-cache purge, early-discard
        filter, admission grant and port binding ride ``delete()``."""
        session.path.delete()

    # ------------------------------------------------------------------
    # UDP sink paths (the shard fabric's flow endpoints)
    # ------------------------------------------------------------------

    def start_udp_sink(self, local_port: int,
                       remote: Tuple[str, int] = ("10.0.0.2", 7000),
                       batch: int = 1,
                       inq_len: int = 64,
                       outq_len: int = 64,
                       policy: str = POLICY_RR,
                       priority: int = 0,
                       specialize: Optional[bool] = None) -> Path:
        """Create a port-bound TEST sink path plus its service thread.

        Requires the kernel to have been built with ``udp_sink=True``
        (which adds the TEST router atop UDP).  The returned path is a
        generic UDP flow endpoint: arriving frames for *local_port*
        classify to it (flow cache and the specialized tier engage
        exactly as for video paths), traverse ETH/IP/UDP, and land in
        the TEST router's ``received`` list plus the path's output
        queue.  The shard fabric gives every flow one of these per shard.
        """
        if self.test is None:
            raise RuntimeError(
                "this kernel was built without udp_sink=True")
        if local_port in self.sink_paths:
            raise ValueError(f"port {local_port} already has a sink path")
        attrs = Attrs({
            PA_NET_PARTICIPANTS: remote,
            PA_LOCAL_PORT: self.udp.allocate_port(local_port),
            PA_PATHNAME: "UDPSINK",
            PA_SCHED_POLICY: policy,
            PA_SCHED_PRIORITY: priority,
            PA_INQ_LEN: inq_len,
            PA_OUTQ_LEN: outq_len,
            PA_BATCH: batch,
        })
        if specialize is not None:
            attrs[PA_SPECIALIZE] = specialize
        path = path_create(self.test, attrs, transforms=self.transforms,
                           admission=self.admission,
                           specialize=self.specialize)
        self._spawn_path_thread(path, f"sink-path{path.pid}", policy,
                                priority, batch)
        self.sink_paths[local_port] = path

        def free_port(dead: Path) -> None:
            if self.sink_paths.get(local_port) is dead:
                del self.sink_paths[local_port]
        path.add_delete_hook(free_port)
        return path

    def stop_udp_sink(self, local_port: int) -> None:
        """Tear down the sink path bound to *local_port*: flow-cache
        purge, port release, admission grant and queue drains ride
        ``delete()``."""
        path = self.sink_paths.get(local_port)
        if path is not None:
            path.delete()

    # ------------------------------------------------------------------
    # SHELL
    # ------------------------------------------------------------------

    def start_shell(self, port: int = 5000) -> Path:
        attrs = Attrs({PA_IP_CATCHALL: True, PA_LOCAL_PORT: port,
                       PA_INQ_LEN: 16})
        self.shell_path = self._make_service_path(self.shell, attrs,
                                                  POLICY_RR, 2, "shell")
        return self.shell_path

    def _mpeg_decode_attrs(self, args: Dict[str, str], meta) -> Attrs:
        from ..mpeg.clips import clip_by_name

        profile = clip_by_name(args.get("clip", "Neptune"))
        # "SHELL assumes that the network address of the video source is
        # the same as the address that originated the command request."
        source_ip = args.get("ip") or str(meta.get("ip_src"))
        source_port = int(args["port"])
        return self.build_video_attrs(
            profile, (source_ip, source_port),
            fps=float(args["fps"]) if "fps" in args else None,
            policy=args.get("policy", POLICY_EDF),
            priority=int(args.get("priority", 0)),
            skip=int(args.get("skip", 1)))

    def _mpeg_decode_post(self, path: Path, args: Dict[str, str],
                          msg: Msg) -> None:
        self._attach_video_path(path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        stats = super().stats()
        stats.update(early_drops=self.early_drops,
                     echo_requests=self.icmp.echo_requests,
                     cpu_compute_us=self.world.cpu.compute_us,
                     cpu_interrupt_us=self.world.cpu.interrupt_us,
                     vsyncs=self.framebuffer.vsyncs)
        return stats

    def __repr__(self) -> str:
        return (f"<ScoutKernel {self.ip.addr} sessions={len(self.sessions)} "
                f"t={self.world.now:.0f}us>")
