"""Chaos experiments: paths under injected faults, and their recovery.

Two harnesses drive the robustness machinery end to end:

* :func:`run_tcp_recovery` — a TCP path sends a byte stream over a wire
  misbehaving per a named fault profile (:mod:`repro.faults.plan`); the
  retransmission machinery must deliver every byte in order anyway.  The
  result carries a digest over the delivered bytes *and* the injection /
  recovery counters, so two same-seed runs can be checked byte-identical;
* :func:`run_watchdog_recovery` — a Scout video path's MFLOW stage is
  stall-faulted mid-stream; the path watchdog must notice the flat
  progress signature, tear the path down, rebuild it from its attributes,
  and playback must resume.  The result reports detection and recovery
  latency in virtual time.

``python -m repro.experiments recovery`` prints both tables.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from .. import params
from ..core.attributes import PA_NET_PARTICIPANTS, Attrs
from ..core.classify import classify
from ..core.graph import RouterGraph
from ..core.message import Msg
from ..core.path_create import path_create
from ..core.stage import BWD, FWD
from ..faults import FaultyLink, PathWatchdog, StageFault, StageFaultInjector
from ..faults.plan import FaultPlan, profile
from ..kernel.hosts import TcpSinkHost
from ..kernel.scout import ScoutKernel
from ..mpeg.clips import NEPTUNE, ClipProfile
from ..net.arp import ArpRouter
from ..net.common import PA_LOCAL_PORT
from ..net.eth import EthRouter
from ..net.ip import IpRouter
from ..net.segment import EtherSegment, NetDevice
from ..net.tcp import TcpRouter
from ..sim.world import SimWorld
from .testbed import Testbed

LOCAL_MAC = "02:00:00:00:00:01"
LOCAL_IP = "10.0.0.1"
SINK_MAC = "02:00:00:00:00:02"
SINK_IP = "10.0.0.2"


def _pattern(n: int) -> bytes:
    """A deterministic, position-dependent payload (corruption-visible)."""
    return bytes((7 + 31 * i) % 256 for i in range(n))


# ---------------------------------------------------------------------------
# TCP byte-stream delivery across a faulty wire
# ---------------------------------------------------------------------------


class TcpRecoveryResult(NamedTuple):
    profile: str
    seed: int
    payload_bytes: int
    delivered_bytes: int
    complete: bool           #: every byte arrived, in order, unmodified
    duration_us: float
    goodput_kbps: float
    retransmissions: int
    retx_abandoned: int
    rtt_samples: int
    sink_dup_segments: int
    sink_ooo_segments: int
    link: Dict[str, int]     #: FaultyLink counters
    digest: str              #: sha256 over delivered bytes + fault trace


class _TcpSenderMachine:
    """A minimal machine with one TCP-over-IP path onto the segment.

    Received frames are classified and delivered inline (at "interrupt
    level"): the stack under test here is the protocol machinery, not the
    scheduler, so no path thread is needed.
    """

    def __init__(self, world: SimWorld, segment: EtherSegment,
                 remote_ip: str, remote_mac: str,
                 local_port: int, remote_port: int):
        self.world = world
        self.device = NetDevice(LOCAL_MAC, world.cpu)
        segment.attach(self.device)
        self.graph = RouterGraph()
        self.eth = self.graph.add(EthRouter("ETH", mac=LOCAL_MAC))
        self.arp = self.graph.add(ArpRouter("ARP"))
        self.ip = self.graph.add(IpRouter("IP", addr=LOCAL_IP))
        self.tcp = self.graph.add(TcpRouter("TCP"))
        self.graph.connect("IP.down", "ETH.up")
        self.graph.connect("IP.res", "ARP.resolver")
        self.graph.connect("ARP.down", "ETH.up")
        self.graph.connect("TCP.down", "IP.up")
        self.eth.attach_device(self.device)
        self.arp.add_entry(remote_ip, remote_mac)
        self.graph.boot()
        self.ip.use_engine(world.engine)
        self.arp.use_engine(world.engine)
        self.tcp.use_engine(world.engine)
        self.path = path_create(self.tcp, Attrs({
            PA_NET_PARTICIPANTS: (remote_ip, remote_port),
            PA_LOCAL_PORT: local_port,
        }))
        self.unclassified = 0
        self.device.rx_handler = self._rx

    def _rx(self, frame: bytes) -> None:
        msg = Msg(frame)
        path = classify(self.eth, msg)
        if path is None:
            self.unclassified += 1
            return
        path.deliver(msg, BWD)


def run_tcp_recovery(profile_name: str = "drop10_reorder", seed: int = 1,
                     payload_bytes: int = 32_000, chunk_bytes: int = 512,
                     send_interval_us: float = 250.0,
                     max_seconds: float = 60.0,
                     plan: Optional[FaultPlan] = None) -> TcpRecoveryResult:
    """Stream *payload_bytes* through a TCP path over a faulty wire."""
    fault_plan = plan if plan is not None else profile(profile_name, seed=seed)
    world = SimWorld(seed=seed)
    engine = world.engine
    segment = EtherSegment(engine, latency_us=50.0, rng=world.rng)
    local_port, remote_port = 8000, 80
    machine = _TcpSenderMachine(world, segment, SINK_IP, SINK_MAC,
                                local_port, remote_port)
    sink = TcpSinkHost(engine, SINK_MAC, SINK_IP, LOCAL_MAC, LOCAL_IP,
                       port=remote_port)
    segment.attach(sink)

    payload = _pattern(payload_bytes)
    chunks = [payload[i:i + chunk_bytes]
              for i in range(0, len(payload), chunk_bytes)]
    for index, chunk in enumerate(chunks):
        engine.schedule(index * send_interval_us,
                        machine.path.deliver, Msg(chunk), FWD)

    link = FaultyLink(segment, fault_plan)
    link.install()
    deadline_us = max_seconds * 1_000_000.0
    slice_us = 1_000.0
    while engine.now < deadline_us and len(sink.received) < payload_bytes:
        engine.run_until(engine.now + slice_us)
    duration_us = engine.now
    link.uninstall()

    stage = machine.path.stage_of("TCP")
    delivered = bytes(sink.received)
    trace = (f"{fault_plan.name}/{fault_plan.seed}:"
             f"{sorted(link.counters().items())}:"
             f"retx={stage.retransmissions}:acks={sink.acks_sent}")
    digest = hashlib.sha256(delivered + trace.encode()).hexdigest()
    duration_s = max(duration_us, 1.0) / 1e6
    return TcpRecoveryResult(
        profile=fault_plan.name,
        seed=seed,
        payload_bytes=payload_bytes,
        delivered_bytes=len(delivered),
        complete=delivered == payload,
        duration_us=duration_us,
        goodput_kbps=len(delivered) * 8 / duration_s / 1e3,
        retransmissions=stage.retransmissions,
        retx_abandoned=stage.retx_abandoned,
        rtt_samples=stage.rtt_samples,
        sink_dup_segments=sink.dup_segments,
        sink_ooo_segments=sink.ooo_segments,
        link=link.counters(),
        digest=digest,
    )


def run_tcp_profiles(profiles: Optional[List[str]] = None, seed: int = 1,
                     **kwargs) -> List[TcpRecoveryResult]:
    """One :func:`run_tcp_recovery` per named profile."""
    names = profiles if profiles is not None else \
        ["none", "drop10", "reorder", "drop10_reorder", "dup5", "lossy"]
    return [run_tcp_recovery(name, seed=seed, **kwargs) for name in names]


def format_tcp_recovery(results: List[TcpRecoveryResult]) -> str:
    lines = [
        "TCP byte-stream delivery across a faulty wire",
        f"{'profile':<16}{'delivered':>12}{'ok':>4}{'retx':>6}"
        f"{'dropped':>8}{'reord':>6}{'time':>9}{'goodput':>10}",
        f"{'':<16}{'[bytes]':>12}{'':>4}{'':>6}"
        f"{'[wire]':>8}{'':>6}{'[ms]':>9}{'[kbps]':>10}",
    ]
    for r in results:
        ok = "yes" if r.complete else "NO"
        lines.append(
            f"{r.profile:<16}{r.delivered_bytes:>12}{ok:>4}"
            f"{r.retransmissions:>6}{r.link['dropped']:>8}"
            f"{r.link['reordered']:>6}{r.duration_us / 1000:>9.1f}"
            f"{r.goodput_kbps:>10.1f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Watchdog: stall detection and path rebuild mid-stream
# ---------------------------------------------------------------------------


class WatchdogRecoveryResult(NamedTuple):
    seed: int
    stall_at_us: float
    stall_budget_us: float
    stalls_detected: int
    detection_latency_us: Optional[float]  #: stall onset -> detection
    rebuilds: int
    recovery_latency_us: Optional[float]   #: detection -> first new output
    frames_before_stall: int
    frames_after_rebuild: int
    window_probes: int
    source_done: bool
    events: List[dict]


def run_watchdog_recovery(seed: int = 3, stall_at_us: float = 2_000_000.0,
                          clip: ClipProfile = NEPTUNE, nframes: int = 240,
                          stall_budget_us: Optional[float] = None,
                          check_interval_us: Optional[float] = None,
                          max_seconds: float = 60.0
                          ) -> WatchdogRecoveryResult:
    """Stall a video path's MFLOW stage mid-stream; the watchdog rebuilds.

    The fault mode is the quiet one — the stage swallows packets without
    any drop note — so only the watchdog's heartbeat (demand advancing
    while the progress signature stays flat) can catch it.  Recovery then
    exercises the whole loop: teardown, ``path_create`` from the original
    attributes, the source's window probe reopening the flow.
    """
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(
        clip, dst_port=6100, seed=seed, nframes=nframes, pace_fps=clip.fps,
        probe_timeout_us=params.MFLOW_PROBE_TIMEOUT_US)
    kernel = testbed.build_scout(rate_limited_display=False)
    remote = (str(source.ip), source.src_port)
    session = kernel.start_video(clip, remote, local_port=6100)

    injector = StageFaultInjector(testbed.world.engine)
    injector.apply(session.path,
                   StageFault(router="MFLOW", mode="stall",
                              start_us=stall_at_us))

    rebuilt_sessions = []

    def rebuild():
        attrs = kernel.build_video_attrs(clip, remote, local_port=6100)
        path = path_create(kernel.display, attrs,
                           transforms=kernel.transforms,
                           admission=kernel.admission)
        rebuilt_sessions.append(kernel._attach_video_path(path))
        return path

    watchdog_kwargs = {}
    if stall_budget_us is not None:
        watchdog_kwargs["stall_budget_us"] = stall_budget_us
    if check_interval_us is not None:
        watchdog_kwargs["check_interval_us"] = check_interval_us
    watchdog = PathWatchdog(testbed.world.engine, session.path, rebuild,
                            **watchdog_kwargs).start()

    testbed.start_all()
    testbed.run_until_sources_done(max_seconds=max_seconds)
    watchdog.stop()

    detection: Optional[float] = None
    for event in watchdog.events:
        if event["type"] == "stall_detected":
            detection = event["time_us"] - stall_at_us
            break
    return WatchdogRecoveryResult(
        seed=seed,
        stall_at_us=stall_at_us,
        stall_budget_us=watchdog.stall_budget_us,
        stalls_detected=watchdog.stalls_detected,
        detection_latency_us=detection,
        rebuilds=watchdog.rebuilds,
        recovery_latency_us=watchdog.last_recovery_latency_us,
        frames_before_stall=session.frames_presented,
        frames_after_rebuild=sum(s.frames_presented
                                 for s in rebuilt_sessions),
        window_probes=source.window_probes,
        source_done=source.done,
        events=list(watchdog.events),
    )


def format_watchdog_recovery(result: WatchdogRecoveryResult) -> str:
    def ms(value: Optional[float]) -> str:
        return "-" if value is None else f"{value / 1000:.1f} ms"

    lines = [
        "Watchdog: MFLOW stage stalled mid-stream, path rebuilt",
        f"  stall injected at          {result.stall_at_us / 1000:.0f} ms "
        f"(budget {result.stall_budget_us / 1000:.0f} ms)",
        f"  stalls detected            {result.stalls_detected}",
        f"  detection latency          {ms(result.detection_latency_us)}",
        f"  rebuilds                   {result.rebuilds}",
        f"  recovery latency           {ms(result.recovery_latency_us)}",
        f"  frames before stall        {result.frames_before_stall}",
        f"  frames after rebuild       {result.frames_after_rebuild}",
        f"  source window probes       {result.window_probes}",
        f"  source finished            "
        f"{'yes' if result.source_done else 'no'}",
    ]
    return "\n".join(lines)


def check_tcp_recovery(results: List[TcpRecoveryResult]) -> None:
    """Every profile's stream arrives complete (must include the
    ``none`` and ``drop10`` profiles)."""
    by_name = {r.profile: r for r in results}
    for r in results:
        assert r.complete, r
    # The clean profile needed no retransmissions; the lossy ones did.
    assert by_name["none"].retransmissions == 0
    assert by_name["drop10"].retransmissions > 0
    assert by_name["drop10"].link["dropped"] > 0
    # Loss costs time: goodput under faults is below the clean run's.
    assert by_name["drop10"].goodput_kbps < by_name["none"].goodput_kbps


def check_watchdog_recovery(result: WatchdogRecoveryResult) -> None:
    """The stall is detected within budget and the rebuilt path plays."""
    assert result.stalls_detected >= 1
    assert result.rebuilds >= 1
    # Detection within the stall budget plus two check intervals.
    assert result.detection_latency_us is not None
    assert result.detection_latency_us <= result.stall_budget_us + 100_000.0
    # The rebuilt path actually played video, and the source finished.
    assert result.recovery_latency_us is not None
    assert result.frames_after_rebuild > 0
    assert result.source_done
