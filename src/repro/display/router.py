"""The DISPLAY router: manages the framebuffer (Figure 9's topmost router).

Path creation is invoked *on* DISPLAY (SHELL maps ``mpeg_decode`` to
``pathCreate(DISPLAY, ...)``); the ``PA_PATHNAME`` attribute forces the
routing decision toward the MPEG router.  The DISPLAY stage charges each
frame's dither/display cost, registers the path's output queue as a vsync
sink, and installs the path's EDF ``wakeup`` callback driven off the
bottleneck (output) queue.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.attributes import (
    PA_FRAME_RATE,
    PA_PATHNAME,
    PA_SCHED_POLICY,
    PA_SCHED_PRIORITY,
    Attrs,
)
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.stage import BWD, FWD, Stage, forward
from ..mpeg.decoder import DecodedFrame
from ..mpeg.router import PA_VIDEO_PROFILE
from ..net.common import charge
from .framebuffer import Framebuffer, VideoSink

#: Frames buffered before realtime presentation starts.
PA_PREBUFFER = "PA_PREBUFFER"

#: EDF deadline computation mode (Section 4.3): ``"output"`` drives the
#: deadline off the output (display) queue only — "the implemented MPEG
#: decoder is currently optimized for the case where the output queue is
#: the bottleneck"; ``"min"`` takes the minimum of the output-queue
#: deadline and an input-queue deadline estimated from the measured
#: packet arrival rate — "the effective deadline can simply be computed
#: as the minimum of the deadlines associated with each queue".
PA_DEADLINE_MODE = "PA_DEADLINE_MODE"

#: Window of in-flight packets the input-side deadline tries to preserve.
_INPUT_PIPE_TARGET = 4


class DisplayStage(Stage):
    """DISPLAY's contribution to a video path (an extreme stage)."""

    def __init__(self, router: "DisplayRouter", exit_service):
        super().__init__(router, None, exit_service)
        self.sink: Optional[VideoSink] = None
        self.frames_dropped = 0
        self.set_deliver(FWD, self._down)
        self.set_deliver(BWD, self._present)

    def establish(self, attrs: Attrs) -> None:
        router: DisplayRouter = self.router  # type: ignore[assignment]
        fps = attrs.get(PA_FRAME_RATE)
        if fps is None:
            profile = attrs.get(PA_VIDEO_PROFILE)
            fps = profile.fps if profile is not None else 30.0
        self.sink = router.framebuffer.add_sink(
            f"path{self.path.pid}", self.path.output_queue(BWD), fps,
            prebuffer=int(attrs.get(PA_PREBUFFER, 0)))
        if attrs.get(PA_SCHED_POLICY, "edf") == "edf":
            self._install_edf_wakeup(attrs.get(PA_DEADLINE_MODE, "output"))
        else:
            self._install_rr_wakeup(attrs.get(PA_SCHED_PRIORITY, 0))

    def _install_edf_wakeup(self, mode: str) -> None:
        """The Section 4.3 mechanism: threads awakened to run in this path
        inherit a deadline computed from the bottleneck queue — the output
        queue by default, or the minimum over both queues in "min" mode."""
        sink = self.sink

        def output_deadline(path) -> float:
            return sink.next_frame_deadline()

        def input_deadline(path) -> float:
            """'The deadline is the time at which the input queue would
            have less than n free slots ... estimated based on the current
            length of the queue and the average packet arrival rate.'"""
            inq = path.input_queue(BWD)
            free = inq.free_slots
            interval = path.interarrival_us
            if free is None or interval is None or interval <= 0:
                return float("inf")
            slack = free - _INPUT_PIPE_TARGET
            if slack <= 0:
                return 0.0  # the pipe is about to stall: run now
            router: DisplayRouter = self.router  # type: ignore[assignment]
            return router.framebuffer.engine.now + slack * interval

        if mode == "min":
            def wakeup(path, thread):
                thread.deadline = min(output_deadline(path),
                                      input_deadline(path))

            def deadline_probe():
                return min(output_deadline(self.path),
                           input_deadline(self.path))
        else:
            def wakeup(path, thread):
                thread.deadline = output_deadline(path)

            def deadline_probe():
                return output_deadline(self.path)

        self.path.wakeup = wakeup
        # Expose the same deadline computation to the multipath layer:
        # the deadline-slack selection policy steers load toward group
        # members whose next deadline is furthest away.
        self.path.attrs["_edf_deadline_fn"] = deadline_probe

    def _install_rr_wakeup(self, priority: int) -> None:
        def wakeup(path, thread):
            thread.priority = priority

        self.path.wakeup = wakeup

    def destroy(self) -> None:
        router: DisplayRouter = self.router  # type: ignore[assignment]
        if self.sink is not None:
            router.framebuffer.remove_sink(self.sink.name)

    # -- deliver ----------------------------------------------------------------

    def _down(self, iface, msg, direction: int, **kwargs):
        return forward(iface, msg, direction, **kwargs)

    def _present(self, iface, frame, direction: int, account=None, **kwargs):
        router: DisplayRouter = self.router  # type: ignore[assignment]
        if not isinstance(frame, DecodedFrame):
            if isinstance(frame, Msg):
                frame.meta["drop_reason"] = "DISPLAY expects decoded frames"
            return None
        if account is not None:
            charge(account, frame.display_cost_us)
        frame.deadline = self.sink.next_frame_deadline() \
            if self.sink is not None else None
        if not self.path.output_queue(direction).try_enqueue(frame):
            # Route the discard through the path ledger like every other
            # drop site — the stage-local counter alone left these frames
            # invisible to PathStats/metrics reconciliation.
            self.frames_dropped += 1
            self.note_drop(frame, "display output queue full",
                           "outq_overflow")
            return None
        router.frames_queued += 1
        return None


@register_router("DisplayRouter")
class DisplayRouter(Router):
    """The framebuffer-managing router."""

    SERVICES = ("<down:net",)

    def __init__(self, name: str):
        super().__init__(name)
        self.framebuffer: Optional[Framebuffer] = None
        self.frames_queued = 0

    def attach_framebuffer(self, framebuffer: Framebuffer) -> None:
        self.framebuffer = framebuffer

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        if self.framebuffer is None:
            raise RuntimeError(f"{self.name} has no attached framebuffer")
        down = self.service("down")
        target_name = attrs.get(PA_PATHNAME)
        chosen = None
        for link in down.links:
            peer_router, peer_service = link.peer_of(down)
            if target_name is None or peer_router.name == target_name:
                chosen = (peer_router, peer_service)
                break
        if chosen is None:
            return None, None  # PA_PATHNAME named a router we don't reach
        stage = DisplayStage(self, down)
        return stage, NextHop(chosen[0], chosen[1], attrs)

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        return DemuxResult.drop(f"{self.name}: display does not classify")
