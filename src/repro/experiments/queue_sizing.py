"""E5 (Section 4.2): sizing the input queue.

"If processing a single packet requires more time than it takes to
request a new packet from the source, then an input queue that can hold
two packets is sufficient ... If the round-trip time (RTT) is greater
than the time to process a packet, then the input queue needs to be two
times the RTT x bandwidth product of the network."

The sweep varies the link RTT and the video path's input-queue capacity
and measures the achieved decode rate.  The predicted sufficient size
uses the paper's own formula with quantities the *system measures about
itself*: the RTT from MFLOW's echoed timestamps and the per-packet
processing time from the Section 4.2 measurement transformation
(``PA_AVG_PROC_TIME``).
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional

from ..core.attributes import PA_AVG_PROC_TIME
from ..mpeg.clips import NEPTUNE, ClipProfile
from .testbed import Testbed


class QueueSizingPoint(NamedTuple):
    latency_us: float
    inq_len: int
    fps: float
    measured_rtt_us: Optional[float]
    measured_proc_us: Optional[float]
    window_stalls: int

    @property
    def predicted_sufficient_inq(self) -> Optional[int]:
        """2 x RTT x consumption-bandwidth, in packets (the paper's rule),
        floored at 2 for the fast-RTT regime."""
        if not self.measured_rtt_us or not self.measured_proc_us:
            return None
        if self.measured_rtt_us <= self.measured_proc_us:
            return 2
        return max(2, math.ceil(2 * self.measured_rtt_us
                                / self.measured_proc_us))


def measure_point(latency_us: float, inq_len: int,
                  profile: ClipProfile = NEPTUNE,
                  nframes: Optional[int] = None,
                  seed: int = 0) -> QueueSizingPoint:
    if nframes is None:
        # The throughput estimate converges within a few hundred frames;
        # this sweep has 12 points, so cap it even under REPRO_FULL.
        nframes = min(250, profile.nframes)
    testbed = Testbed(seed=seed, latency_us=latency_us)
    source = testbed.add_video_source(profile, dst_port=6100, seed=seed,
                                      nframes=nframes)
    kernel = testbed.build_scout(rate_limited_display=False)
    session = kernel.start_video(profile, (str(source.ip), 7200),
                                 local_port=6100, inq_len=inq_len)
    testbed.start_all()
    testbed.run_until_sources_done(max_seconds=240.0)
    proc = session.path.attrs.get(PA_AVG_PROC_TIME)
    return QueueSizingPoint(
        latency_us=latency_us,
        inq_len=inq_len,
        fps=session.achieved_fps(),
        measured_rtt_us=source.avg_rtt_us(),
        measured_proc_us=proc,
        window_stalls=source.window_stalls,
    )


def run_queue_sizing(latencies_us: Optional[List[float]] = None,
                     inq_lens: Optional[List[int]] = None,
                     seed: int = 0) -> List[QueueSizingPoint]:
    if latencies_us is None:
        latencies_us = [100.0, 5_000.0, 20_000.0]
    if inq_lens is None:
        inq_lens = [1, 2, 4, 8, 16, 32]
    points = []
    for latency in latencies_us:
        for inq in inq_lens:
            points.append(measure_point(latency, inq, seed=seed))
    return points


def format_queue_sizing(points: List[QueueSizingPoint]) -> str:
    lines = [
        "E5 (Sec 4.2): input queue sizing — achieved fps vs queue capacity",
        "(the paper's rule: 2 x RTT x bandwidth is sufficient; marked '*')",
        f"{'latency':>9}{'inq':>5}{'fps':>8}{'rtt_us':>9}{'proc_us':>9}"
        f"{'2xRTTxBW':>10}{'stalls':>8}",
    ]
    for p in points:
        predicted = p.predicted_sufficient_inq
        marker = " *" if predicted is not None and p.inq_len >= predicted else ""
        lines.append(
            f"{p.latency_us:>9.0f}{p.inq_len:>5}{p.fps:>8.1f}"
            f"{(p.measured_rtt_us or 0):>9.0f}"
            f"{(p.measured_proc_us or 0):>9.1f}"
            f"{(predicted if predicted is not None else 0):>10}"
            f"{p.window_stalls:>8}{marker}")
    return "\n".join(lines)


def check_queue_sizing(points: List[QueueSizingPoint]) -> None:
    """The decode rate saturates once the input queue reaches the
    paper's 2 x RTT x bandwidth rule."""
    by_latency = {}
    for p in points:
        by_latency.setdefault(p.latency_us, []).append(p)
    for latency, series in by_latency.items():
        series.sort(key=lambda p: p.inq_len)
        best = max(p.fps for p in series)
        # Starved at the smallest queue on the slow link, saturated at
        # the largest.
        assert series[-1].fps >= 0.95 * best, series
        if latency >= 10_000.0:
            assert series[0].fps < 0.8 * best, series
        # Once the queue reaches the predicted sufficient size,
        # throughput is within 10% of saturation.
        for p in series:
            predicted = p.predicted_sufficient_inq
            if predicted is not None and p.inq_len >= predicted:
                assert p.fps >= 0.90 * best, p
