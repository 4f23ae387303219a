"""E8: ablations of the design choices DESIGN.md calls out.

* **Early segregation** — the mechanism behind Table 2, isolated: sweep a
  *fixed-rate* ICMP blaster against (a) Scout as designed (classified at
  interrupt time, served by a lower-priority path), (b) Scout with
  ``inline_icmp`` (echo served at interrupt level, i.e. no early
  segregation), and (c) the Linux baseline.  Only (a) should shrug the
  load off.

* **ALF packetization** — Section 4.1's framing argument, isolated: the
  same clip packetized with an integral number of macroblocks per packet
  versus as a raw byte stream.  Non-ALF forces the decoder to buffer
  partial frames ("undesirable queueing between MPEG and MFLOW") and
  concentrates decode CPU into per-frame bursts.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..mpeg.clips import NEPTUNE, ClipProfile, synthesize_clip
from ..sim.world import POLICY_RR
from .testbed import Testbed, frames_budget


class SegregationPoint(NamedTuple):
    system: str
    flood_pps: float
    fps: float
    echo_load_cpu_pct: float


def measure_segregation(system: str, flood_pps: float,
                        profile: ClipProfile = NEPTUNE,
                        nframes: Optional[int] = None,
                        seed: int = 0) -> SegregationPoint:
    if nframes is None:
        nframes = frames_budget(profile, default_cap=250)
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    if flood_pps > 0:
        testbed.add_flooder(self_clocked=False,
                            fallback_us=1_000_000.0 / flood_pps)
    if system == "scout":
        kernel = testbed.build_scout(rate_limited_display=False)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100, policy=POLICY_RR)
    elif system == "scout-no-segregation":
        kernel = testbed.build_scout(rate_limited_display=False,
                                     inline_icmp=True)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100, policy=POLICY_RR)
    elif system == "linux":
        kernel = testbed.build_linux(rate_limited_display=False)
        session = kernel.start_video(profile, (str(source.ip), 7200),
                                     local_port=6100)
    else:
        raise ValueError(f"unknown system {system!r}")
    testbed.start_all()
    testbed.run_until_sources_done(max_seconds=240.0)
    elapsed = max(1e-9, testbed.world.now)
    irq_pct = testbed.world.cpu.interrupt_us / elapsed * 100
    return SegregationPoint(system, flood_pps, session.achieved_fps(),
                            irq_pct)


def run_segregation_sweep(rates_pps: Optional[List[float]] = None,
                          seed: int = 0) -> List[SegregationPoint]:
    if rates_pps is None:
        rates_pps = [0, 1000, 2000, 4000]
    points = []
    for system in ("scout", "scout-no-segregation", "linux"):
        for rate in rates_pps:
            points.append(measure_segregation(system, rate, seed=seed))
    return points


def format_segregation(points: List[SegregationPoint]) -> str:
    lines = [
        "E8a: early segregation ablation — Neptune fps vs fixed-rate ICMP load",
        f"{'system':<24}{'flood pps':>10}{'fps':>8}{'irq cpu%':>10}",
    ]
    for p in points:
        lines.append(f"{p.system:<24}{p.flood_pps:>10.0f}{p.fps:>8.1f}"
                     f"{p.echo_load_cpu_pct:>9.1f}%")
    return "\n".join(lines)


class AlfResult(NamedTuple):
    framing: str
    fps: float
    peak_decoder_buffer_bytes: int
    frames_decoded: int


def measure_alf(alf: bool, profile: ClipProfile = NEPTUNE,
                nframes: Optional[int] = None, seed: int = 0) -> AlfResult:
    if nframes is None:
        nframes = frames_budget(profile, default_cap=250)
    testbed = Testbed(seed=seed)
    clip = synthesize_clip(profile, seed=seed, nframes=nframes, alf=alf)
    source = testbed.add_video_source(clip, dst_port=6100)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(profile, (str(source.ip), 7200),
                                 local_port=6100)
    testbed.start_all()
    testbed.run_until_sources_done(max_seconds=240.0)
    decoder = session.path.stage_of("MPEG").decoder
    return AlfResult("ALF" if alf else "byte-stream",
                     session.achieved_fps(),
                     decoder.peak_buffered_bytes,
                     decoder.frames_decoded)


def run_alf_ablation(seed: int = 0) -> List[AlfResult]:
    return [measure_alf(True, seed=seed), measure_alf(False, seed=seed)]


def format_alf(results: List[AlfResult]) -> str:
    lines = [
        "E8b: ALF packetization ablation (Sec 4.1)",
        f"{'framing':<14}{'fps':>8}{'decoded':>9}{'peak MPEG buffering':>21}",
    ]
    for r in results:
        lines.append(f"{r.framing:<14}{r.fps:>8.1f}{r.frames_decoded:>9}"
                     f"{r.peak_decoder_buffer_bytes:>20}B")
    return "\n".join(lines)


def check_segregation(points: List[SegregationPoint]) -> None:
    """Early segregation is what shields Scout from the flood (the sweep
    must include flood rates 0 and 4000 pps)."""
    by_system = {}
    for p in points:
        by_system.setdefault(p.system, {})[p.flood_pps] = p
    scout = by_system["scout"]
    no_seg = by_system["scout-no-segregation"]
    linux = by_system["linux"]
    # Scout-with-segregation barely notices 4k pps.
    scout_drop = 1 - scout[4000].fps / scout[0].fps
    assert scout_drop < 0.05, scout_drop
    # Removing early segregation exposes Scout to interrupt-time echo
    # service: it degrades several times worse (though still less than
    # the baseline, whose per-packet kernel costs are higher).
    no_seg_drop = 1 - no_seg[4000].fps / no_seg[0].fps
    linux_drop = 1 - linux[4000].fps / linux[0].fps
    assert no_seg_drop > 3 * max(scout_drop, 0.01), (scout_drop, no_seg_drop)
    assert linux_drop > no_seg_drop
    assert scout[4000].fps > no_seg[4000].fps > linux[4000].fps


def check_alf(results: List[AlfResult]) -> None:
    """ALF needs no cross-packet buffering inside the decoder;
    byte-stream framing forces nearly a frame's worth."""
    alf, stream = results
    assert alf.framing == "ALF"
    assert alf.peak_decoder_buffer_bytes == 0
    assert stream.peak_decoder_buffer_bytes > 2000
    # Both decode the stream correctly.
    assert alf.frames_decoded == stream.frames_decoded
