"""The MPEG router: decompression as a path stage (Figure 9).

"The MPEG router accepts messages from MFLOW, applies the MPEG
decompression algorithm to them, and sends the decoded images to the
DISPLAY router."

Each video path gets its own decoder instance (per-path state is exactly
what stages are for).  The stage charges the decode cost of each packet's
macroblocks to the message's cost account, and forwards completed frames
to the DISPLAY stage, passing the original message along as the
``account`` so display costs land on the same traversal.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.attributes import Attrs
from ..core.graph import register_router
from ..core.message import Msg
from ..core.router import DemuxResult, NextHop, Router, Service
from ..core.stage import BWD, FWD, Stage, forward
from ..net.common import charge
from .clips import ClipProfile
from .decoder import MpegDecodeError, MpegDecoder

#: Path attribute carrying the video's :class:`ClipProfile` (an invariant
#: of the stream the path was created for).
PA_VIDEO_PROFILE = "PA_VIDEO_PROFILE"

#: Optional path attribute: display only every Nth frame (reduced-quality
#: playback, Section 4.4).  1 or absent = full quality.
PA_FRAME_SKIP = "PA_FRAME_SKIP"


class MpegStage(Stage):
    """MPEG's contribution to a video path."""

    def __init__(self, router: "MpegRouter", enter_service, exit_service):
        super().__init__(router, enter_service, exit_service)
        self.decoder: Optional[MpegDecoder] = None
        self.skip_modulus = 1
        self.frames_skipped = 0
        self.decode_errors = 0
        self.set_deliver(FWD, self._down)
        self.set_deliver(BWD, self._decode)

    def establish(self, attrs: Attrs) -> None:
        profile = attrs.get(PA_VIDEO_PROFILE)
        if not isinstance(profile, ClipProfile):
            raise ValueError(
                "MPEG path requires the PA_VIDEO_PROFILE invariant")
        self.decoder = MpegDecoder(profile)
        self.skip_modulus = max(1, int(attrs.get(PA_FRAME_SKIP, 1)))

    # -- toward the network (control traffic passes through) ---------------------

    def _down(self, iface, msg, direction: int, **kwargs):
        return forward(iface, msg, direction, **kwargs)

    # -- decode -----------------------------------------------------------------------

    def _decode(self, iface, msg: Msg, direction: int, **kwargs):
        router: MpegRouter = self.router  # type: ignore[assignment]
        assert self.decoder is not None, "stage used before establish"
        try:
            result = self.decoder.feed(msg.to_bytes())
        except (MpegDecodeError, EOFError) as exc:  # EOF: record past body
            self.decode_errors += 1
            self.note_drop(msg, f"MPEG bitstream error: {exc}", "corrupt")
            return None
        charge(msg, result.cost_us)
        router.packets_decoded += 1
        frame = result.frame
        if frame is None:
            return None  # mid-frame packet: absorbed
        if not frame.complete:
            self.note_drop(msg, f"frame {frame.number} damaged by loss",
                           "damaged_frame")
            return None
        if frame.number % self.skip_modulus != 0:
            # Reduced-quality playback without early discard: the decode
            # cost above was already paid — the waste Section 4.4's early
            # drop avoids.
            self.frames_skipped += 1
            return None
        router.frames_produced += 1
        return forward(iface, frame, direction, account=msg, **kwargs)


@register_router("MpegRouter")
class MpegRouter(Router):
    """The MPEG decompression router."""

    SERVICES = ("up:net", "<down:net")

    def __init__(self, name: str):
        super().__init__(name)
        self.packets_decoded = 0
        self.frames_produced = 0

    def create_stage(self, enter_service: int, attrs: Attrs
                     ) -> Tuple[Optional[Stage], Optional[NextHop]]:
        enter = self.services[enter_service] if enter_service >= 0 else None
        down = self.service("down")
        if len(down.links) != 1:
            return None, None
        peer_router, peer_service = down.links[0].peer_of(down)
        stage = MpegStage(self, enter, down)
        return stage, NextHop(peer_router, peer_service, attrs)

    def demux(self, msg: Msg, service: Optional[Service],
              offset: int = 0) -> DemuxResult:
        # Classification never needs to reach MPEG: UDP/MFLOW already
        # identify the video path.  Anything that lands here is noise.
        return DemuxResult.drop(f"{self.name}: unexpected demux")
