"""E7 (Section 4.4): early discard for reduced-quality playback.

"If admission control determines that a video cannot be displayed at the
full rate, a user may choose to view the video with reduced quality.  For
example, the user may request that only every third image be displayed.
Thanks to ALF and paths, it is possible to drop packets of skipped frames
as soon as they arrive at the network adapter.  This avoids wasting CPU
cycles at a time when they are at a premium."

The comparison: every-third-frame playback with adapter-level early drop
versus the naive alternative (decode everything, discard after decoding).
Early drop should cut the video's CPU roughly in proportion to the
skipped fraction; the naive version pays full decode cost for frames
nobody sees.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..mpeg.clips import NEPTUNE, ClipProfile
from .testbed import Testbed, frames_budget


class EarlyDiscardResult(NamedTuple):
    label: str
    skip: int
    early_drop: bool
    frames_presented: int
    cpu_us_per_presented_frame: float
    total_cpu_s: float
    adapter_drops: int
    decoded_then_skipped: int


def measure(skip: int, early_drop: bool,
            profile: ClipProfile = NEPTUNE,
            nframes: Optional[int] = None, seed: int = 0,
            label: str = "") -> EarlyDiscardResult:
    if nframes is None:
        nframes = frames_budget(profile, default_cap=300)
    testbed = Testbed(seed=seed)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(profile, (str(source.ip), 7200),
                                 local_port=6100, skip=skip,
                                 early_drop_skipped=early_drop)
    testbed.start_all()
    testbed.run_until_sources_done(max_seconds=240.0)
    cpu = testbed.world.cpu
    total_cpu_us = cpu.compute_us + cpu.interrupt_us
    presented = max(1, session.frames_presented)
    return EarlyDiscardResult(
        label=label or f"skip={skip} early_drop={early_drop}",
        skip=skip,
        early_drop=early_drop,
        frames_presented=session.frames_presented,
        cpu_us_per_presented_frame=total_cpu_us / presented,
        total_cpu_s=total_cpu_us / 1e6,
        adapter_drops=kernel.early_drops,
        decoded_then_skipped=session.path.stage_of("MPEG").frames_skipped,
    )


def run_early_discard(skip: int = 3, seed: int = 0
                      ) -> List[EarlyDiscardResult]:
    return [
        measure(1, False, seed=seed, label="full quality"),
        measure(skip, False, seed=seed,
                label=f"1/{skip} quality, naive (decode then discard)"),
        measure(skip, True, seed=seed,
                label=f"1/{skip} quality, early drop at adapter"),
    ]


def format_early_discard(results: List[EarlyDiscardResult]) -> str:
    lines = [
        "E7 (Sec 4.4): early discard of skipped frames' packets",
        f"{'configuration':<42}{'shown':>7}{'cpu/frame':>11}"
        f"{'total cpu':>11}{'adapter':>9}{'wasted':>8}",
        f"{'':<42}{'':>7}{'[us]':>11}{'[s]':>11}{'drops':>9}{'decodes':>8}",
    ]
    for r in results:
        lines.append(
            f"{r.label:<42}{r.frames_presented:>7}"
            f"{r.cpu_us_per_presented_frame:>11.0f}{r.total_cpu_s:>11.2f}"
            f"{r.adapter_drops:>9}{r.decoded_then_skipped:>8}")
    return "\n".join(lines)


def check_early_discard(results: List[EarlyDiscardResult]) -> None:
    """Early drop at the adapter burns substantially less CPU than
    decode-then-discard for the same reduced-quality playback."""
    full, naive, early = results
    # Reduced quality shows ~1/3 of the frames.
    assert early.frames_presented < full.frames_presented
    # The naive version decodes frames nobody sees; early drop does not.
    assert naive.decoded_then_skipped > 0
    assert early.decoded_then_skipped == 0
    assert early.adapter_drops > 0
    assert early.total_cpu_s < 0.6 * naive.total_cpu_s, (naive, early)
