"""E3 (Section 4.3): EDF vs single-priority round-robin scheduling.

"This allows Scout to display 8 Canyon movies at a rate of 10 frames per
second, together with a Neptune movie playing at 30 frames per second,
all without missing a single deadline.  In contrast, the same load with
single-priority round-robin scheduling leads to a large number of missed
deadlines if the output queues for the Canyon movies are large."

The mechanism the sweep exposes: under RR, Canyon paths are scheduled
"as long as their output queues are not full" — so the bigger the output
queue, the longer Canyon's non-urgent read-ahead starves Neptune, and the
more Neptune deadlines die.  EDF derives each wakeup's deadline from the
bottleneck (output) queue, so full Canyon queues mean distant deadlines
and Neptune always wins when it matters.
"""

from __future__ import annotations

import os
from typing import List, NamedTuple, Optional

from ..mpeg.clips import CANYON, NEPTUNE, synthesize_clip
from .testbed import Testbed

#: Paper reference point: queue=128, RR misses ~850/1345; EDF misses 0.
PAPER_RR_MISSES_AT_128 = 850
PAPER_NEPTUNE_DEADLINES = 1345


class EdfRrResult(NamedTuple):
    policy: str
    outq_frames: int
    neptune_presented: int
    neptune_missed: int
    neptune_deadlines: int
    canyon_missed: int

    @property
    def miss_fraction(self) -> float:
        if not self.neptune_deadlines:
            return 0.0
        return self.neptune_missed / self.neptune_deadlines


def run_edf_rr(policy: str, outq_frames: int = 128,
               canyon_count: int = 8, seed: int = 2,
               neptune_frames: Optional[int] = None,
               prebuffer: int = 8) -> EdfRrResult:
    """Run the 8-Canyon + 1-Neptune mix under one scheduling policy."""
    if neptune_frames is None:
        neptune_frames = (NEPTUNE.nframes if os.environ.get("REPRO_FULL")
                          else 600)
    testbed = Testbed(seed=seed)
    neptune_clip = synthesize_clip(NEPTUNE, seed=seed,
                                   nframes=neptune_frames)
    canyon_clip = synthesize_clip(CANYON, seed=seed + 1)
    neptune_source = testbed.add_video_source(neptune_clip, dst_port=6100)
    canyon_sources = [
        testbed.add_video_source(canyon_clip, dst_port=6200 + i)
        for i in range(canyon_count)
    ]
    kernel = testbed.build_scout(rate_limited_display=True)
    neptune = kernel.start_video(NEPTUNE, (str(neptune_source.ip), 7200),
                                 local_port=6100, fps=30.0, policy=policy,
                                 outq_len=outq_frames, inq_len=64,
                                 prebuffer=prebuffer)
    neptune.sink.expected_frames = len(neptune_clip.frames)
    canyons = []
    for i, source in enumerate(canyon_sources):
        session = kernel.start_video(CANYON, (str(source.ip), 7200),
                                     local_port=6200 + i, fps=10.0,
                                     policy=policy, outq_len=outq_frames,
                                     prebuffer=prebuffer)
        session.sink.expected_frames = len(canyon_clip.frames)
        canyons.append(session)
    testbed.start_all()
    # Run for the Neptune playback duration plus settle time.
    testbed.run_seconds(neptune_frames / 30.0 + 4.0)
    return EdfRrResult(
        policy=policy,
        outq_frames=outq_frames,
        neptune_presented=neptune.frames_presented,
        neptune_missed=neptune.missed_deadlines,
        neptune_deadlines=neptune.frames_presented + neptune.missed_deadlines,
        canyon_missed=sum(c.missed_deadlines for c in canyons),
    )


def run_queue_sweep(queue_sizes: Optional[List[int]] = None,
                    seed: int = 2) -> List[EdfRrResult]:
    """The headline comparison plus the queue-size dependence."""
    if queue_sizes is None:
        queue_sizes = [16, 64, 128]
    results = []
    for outq in queue_sizes:
        for policy in ("edf", "rr"):
            results.append(run_edf_rr(policy, outq_frames=outq, seed=seed))
    return results


def format_edf_rr(results: List[EdfRrResult]) -> str:
    lines = [
        "E3 (Sec 4.3): 8x Canyon@10fps + Neptune@30fps, missed Neptune deadlines",
        f"(paper @128-frame queues: EDF misses 0, RR misses ~"
        f"{PAPER_RR_MISSES_AT_128}/{PAPER_NEPTUNE_DEADLINES})",
        f"{'policy':<8}{'outq':>6}{'presented':>11}{'missed':>8}"
        f"{'deadlines':>11}{'miss%':>8}",
    ]
    for r in results:
        lines.append(
            f"{r.policy:<8}{r.outq_frames:>6}{r.neptune_presented:>11}"
            f"{r.neptune_missed:>8}{r.neptune_deadlines:>11}"
            f"{r.miss_fraction * 100:>7.1f}%")
    return "\n".join(lines)


def check_edf_rr(results: List[EdfRrResult]) -> None:
    """EDF misses no deadline at any queue size; RR misses many with
    large queues, and more the larger the queue (the sweep must cover
    output queues of 16 and 128 frames)."""
    by_key = {(r.policy, r.outq_frames): r for r in results}
    for (policy, _outq), r in by_key.items():
        if policy == "edf":
            assert r.neptune_missed == 0, r
    rr_large = by_key[("rr", 128)]
    assert rr_large.neptune_missed > 50, rr_large
    rr_small = by_key[("rr", 16)]
    assert rr_large.neptune_missed > rr_small.neptune_missed, (rr_small,
                                                               rr_large)
