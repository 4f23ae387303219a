"""The trace experiment: replay the MPEG workload with tracing on.

The paper argues that making paths explicit makes resource accounting
explicit too — "the path then becomes the entity that is scheduled, and
the object to which resource usage is charged" (Section 4).  This
experiment demonstrates the claim operationally: a video path created
with ``PA_TRACE`` yields a complete per-message account of where virtual
CPU time went (per stage, exclusively attributed) and where virtual wall
time was spent waiting (per queue), with zero instrumentation on any
other path in the same kernel.

``run_trace`` streams a clip through a traced MPEG path and returns a
:class:`TraceReport`; ``format_trace`` renders the hottest stage spans,
the queue-wait profile, and the metrics snapshot.  The collapsed-stack
output (``report.collapsed``) is loadable by standard flamegraph tooling
and is the artifact the golden-trace regression test pins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..mpeg.clips import ClipProfile, clip_by_name
from .testbed import Testbed, frames_budget

#: Port the traced video session listens on (fixed for determinism).
TRACE_PORT = 6000


class TraceReport:
    """Everything ``run_trace`` observed about one traced playback."""

    def __init__(self, clip: str, frames_sent: int, frames_presented: int,
                 spans: int, evicted: int, open_spans: int,
                 hottest: List[Tuple[str, int, float, float]],
                 collapsed: str, digest: str, metrics_text: str,
                 metrics: Dict[str, float]):
        self.clip = clip
        self.frames_sent = frames_sent
        self.frames_presented = frames_presented
        self.spans = spans
        self.evicted = evicted
        self.open_spans = open_spans
        #: ``(label, count, total_cost_us, total_wall_us)`` rows.
        self.hottest = hottest
        self.collapsed = collapsed
        self.digest = digest
        self.metrics_text = metrics_text
        #: Headline scalars pulled out of the registry for assertions.
        self.metrics = metrics

    def __repr__(self) -> str:
        return (f"<TraceReport {self.clip} spans={self.spans} "
                f"digest={self.digest[:12]}>")


def run_trace(clip_name: str = "Neptune", seed: int = 0,
              nframes: Optional[int] = None, top: int = 12) -> TraceReport:
    """Stream *clip_name* through a traced path and account for it."""
    profile: ClipProfile = clip_by_name(clip_name)
    frames = nframes if nframes is not None \
        else frames_budget(profile, default_cap=120)

    testbed = Testbed(seed=seed)
    kernel = testbed.build_scout()
    source = testbed.add_video_source(profile, dst_port=TRACE_PORT,
                                      seed=seed, nframes=frames)
    session = kernel.start_video(profile, (source.ip, source.src_port),
                                 local_port=TRACE_PORT, trace=True)
    testbed.start_all()
    testbed.run_until_sources_done()

    observatory = kernel.observatory
    recorder = observatory.recorder
    registry = observatory.metrics
    metrics = {
        "messages_bwd": registry.total("path_messages_total",
                                       direction="BWD"),
        "cycles": registry.total("path_cycles_total"),
        "demux": registry.total("path_demux_total"),
        "drops": registry.total("path_drops_total"),
        "queue_drops": registry.total("queue_drops_total"),
        "traversals": registry.total("stage_traversals_total"),
        "cache_hits": registry.total("flow_cache_hits_total"),
    }
    return TraceReport(
        clip=profile.name,
        frames_sent=frames,
        frames_presented=session.frames_presented,
        spans=len(recorder),
        evicted=recorder.evicted,
        open_spans=recorder.open_count(),
        hottest=recorder.summary(top),
        collapsed=recorder.collapsed_text(),
        digest=recorder.digest(),
        metrics_text=registry.render(),
        metrics=metrics,
    )


def format_trace(report: TraceReport) -> str:
    """Render the report the way the other experiments print tables."""
    lines = [
        f"Traced playback of {report.clip}: "
        f"{report.frames_presented}/{report.frames_sent} frames presented, "
        f"{report.spans} spans retained "
        f"({report.evicted} evicted, {report.open_spans} still open)",
        "",
        f"{'span group':<28}{'count':>8}{'cost (us)':>14}{'wall (us)':>14}",
        "-" * 64,
    ]
    for label, count, cost_us, wall_us in report.hottest:
        lines.append(f"{label:<28}{count:>8}{cost_us:>14.1f}{wall_us:>14.1f}")
    lines += [
        "",
        f"collapsed-stack digest: {report.digest}",
        "",
        report.metrics_text,
    ]
    return "\n".join(lines)


def check_trace(report: TraceReport) -> None:
    """Tracing recorded the playback, the report reads the flow cache
    that classified it, and nothing leaked at quiescence."""
    assert report.frames_presented > 0
    assert report.spans > 0
    assert report.open_spans == 0
    assert report.metrics["cache_hits"] > 0
