"""The MPEG decoder: consumes ALF packets, produces decoded frames.

Thanks to ALF "the MPEG decoder does not have to maintain complex state
across packet boundaries": each packet carries an integral number of
macroblocks and self-describes (frame number, type, count, bit length),
so the decoder's only cross-packet state is which frame it is currently
accumulating.  Losing a packet damages exactly one frame.

The decoder really reads the bitstream — every macroblock record is
parsed and validated, its coefficients read back 32 bits at a time as
the Berkeley decoder reads them — and reports the per-packet decode cost
from the cost model so the executing thread can charge the CPU.
"""

from __future__ import annotations

import struct
from typing import Optional

from .bitstream import BitReader
from .clips import (
    FLAG_LAST_PACKET,
    FRAME_TYPE_NAMES,
    MB_INDEX_BITS,
    MB_SIZE_BITS,
    PACKET_HEADER_FORMAT,
    PACKET_HEADER_SIZE,
    PACKET_MAGIC,
    ClipProfile,
)
from .cost import decode_cost_us, display_cost_us


class DecodedFrame:
    """A fully decoded frame ready for display."""

    __slots__ = ("number", "ftype", "bits", "n_mb", "width", "height",
                 "decode_cost_us", "display_cost_us", "complete", "deadline")

    def __init__(self, number: int, ftype: int, bits: int, n_mb: int,
                 width: int, height: int, complete: bool = True):
        self.number = number
        self.ftype = ftype
        self.bits = bits
        self.n_mb = n_mb
        self.width = width
        self.height = height
        self.complete = complete
        self.decode_cost_us = decode_cost_us(bits, n_mb)
        self.display_cost_us = display_cost_us(width * height)
        #: Display deadline in virtual microseconds, set by DISPLAY.
        self.deadline: Optional[float] = None

    @property
    def pixels(self) -> int:
        return self.width * self.height

    def __repr__(self) -> str:
        state = "" if self.complete else " DAMAGED"
        return (f"<DecodedFrame #{self.number} "
                f"{FRAME_TYPE_NAMES[self.ftype]} {self.bits}b{state}>")


class PacketDecodeResult:
    """What one packet contributed."""

    __slots__ = ("cost_us", "frame", "damaged_frame")

    def __init__(self, cost_us: float, frame: Optional[DecodedFrame] = None,
                 damaged_frame: Optional[int] = None):
        self.cost_us = cost_us
        self.frame = frame
        self.damaged_frame = damaged_frame


class MpegDecodeError(ValueError):
    """The bitstream is malformed (bad magic, inconsistent lengths)."""


class MpegDecoder:
    """Stateful per-path decoder.

    Parameters
    ----------
    profile:
        The clip's geometry — an invariant of the video path, fixed at
        path creation.
    """

    def __init__(self, profile: ClipProfile):
        self.profile = profile
        self._current_frame: Optional[int] = None
        self._current_type = 0
        self._accum_bits = 0
        self._accum_mb = 0
        self._next_packet_index = 0
        self._lost_packets_in_frame = False
        #: Non-ALF packetization forces the decoder to buffer partial
        #: frames — "the need for undesirable queueing between MPEG and
        #: MFLOW" that ALF obviates.  ALF streams never use this.
        self._stream_buffer = bytearray()
        # statistics
        self.frames_decoded = 0
        self.frames_damaged = 0
        self.packets_decoded = 0
        self.bits_decoded = 0
        self.peak_buffered_bytes = 0

    # -- packet consumption ------------------------------------------------------

    def feed(self, payload: bytes) -> PacketDecodeResult:
        """Decode one MPEG packet payload.

        Returns the CPU cost of this packet's macroblocks, plus the
        completed frame when this packet finished one.
        """
        if len(payload) < PACKET_HEADER_SIZE:
            raise MpegDecodeError(
                f"packet shorter than header ({len(payload)} bytes)")
        magic, frame_no, ftype, pkt_index, flags, n_mb, payload_bits = \
            struct.unpack(PACKET_HEADER_FORMAT, payload[:PACKET_HEADER_SIZE])
        if magic != PACKET_MAGIC:
            raise MpegDecodeError(f"bad packet magic 0x{magic:02x}")
        body = payload[PACKET_HEADER_SIZE:]
        if payload_bits > len(body) * 8:
            raise MpegDecodeError(
                f"declared {payload_bits} bits but only {len(body) * 8} present")

        damaged: Optional[int] = None
        if self._current_frame is not None and frame_no != self._current_frame:
            # A new frame arrived while the old one was incomplete.
            damaged = self._abandon_current()
        if self._current_frame is None:
            self._current_frame = frame_no
            self._current_type = ftype
            self._accum_bits = 0
            self._accum_mb = 0
            self._next_packet_index = 0
            self._lost_packets_in_frame = False
        if pkt_index != self._next_packet_index:
            self._lost_packets_in_frame = True
        self._next_packet_index = pkt_index + 1

        if n_mb == 0 and not (flags & FLAG_LAST_PACKET):
            # Non-ALF stream packet: macroblocks straddle packets, so
            # nothing can be decoded yet — buffer until the frame's last
            # packet arrives (cost: one touch pass over the bytes).
            self._stream_buffer += body
            self.peak_buffered_bytes = max(self.peak_buffered_bytes,
                                           len(self._stream_buffer))
            self.packets_decoded += 1
            return PacketDecodeResult(len(body) * 0.004, damaged_frame=damaged)
        if self._stream_buffer:
            body = bytes(self._stream_buffer) + body
            self._stream_buffer = bytearray()

        try:
            bits_read = self._parse_macroblocks(body, n_mb)
        except (MpegDecodeError, EOFError):  # EOF: record past the body
            # The packet already advanced the frame's packet sequence, so
            # the frame would otherwise come out complete without it.
            self._lost_packets_in_frame = True
            raise
        self.packets_decoded += 1
        self.bits_decoded += bits_read
        self._accum_bits += bits_read
        self._accum_mb += n_mb
        cost = decode_cost_us(bits_read, n_mb)

        frame: Optional[DecodedFrame] = None
        if flags & FLAG_LAST_PACKET:
            complete = not self._lost_packets_in_frame
            frame = DecodedFrame(frame_no, ftype, self._accum_bits,
                                 self._accum_mb, self.profile.width,
                                 self.profile.height, complete=complete)
            if complete:
                self.frames_decoded += 1
            else:
                self.frames_damaged += 1
            self._current_frame = None
        return PacketDecodeResult(cost, frame=frame, damaged_frame=damaged)

    def _abandon_current(self) -> Optional[int]:
        abandoned = self._current_frame
        self._current_frame = None
        self._stream_buffer = bytearray()
        if abandoned is not None:
            self.frames_damaged += 1
        return abandoned

    def _parse_macroblocks(self, body: bytes, n_mb: int) -> int:
        """Read every macroblock record; returns total bits consumed."""
        reader = BitReader(body)
        total = 0
        previous_index = -1
        for _ in range(n_mb):
            index = reader.read(MB_INDEX_BITS)
            size = reader.read(MB_SIZE_BITS)
            if index <= previous_index:
                raise MpegDecodeError(
                    f"macroblock indices not increasing ({index} after "
                    f"{previous_index})")
            previous_index = index
            remaining = size
            while remaining > 0:
                chunk = min(32, remaining)
                reader.read(chunk)  # the pseudo-coefficients, by word
                remaining -= chunk
            reader.align()  # records are byte-aligned by the encoder
            total += MB_INDEX_BITS + MB_SIZE_BITS + size
        return total

    def reset(self) -> None:
        """Forget any partially accumulated frame (stream restart)."""
        self._current_frame = None
        self._lost_packets_in_frame = False
        self._stream_buffer = bytearray()


def peek_packet_header(payload: bytes):
    """Parse just the ALF header of an MPEG packet (classifier use).

    Returns ``(frame_no, ftype, flags)`` or ``None`` when the payload is
    not an MPEG packet.  This is what lets the kernel drop packets of
    skipped frames "as soon as they arrive at the network adapter"
    (Section 4.4) — the decision needs only the first few payload bytes.
    """
    if len(payload) < PACKET_HEADER_SIZE:
        return None
    magic, frame_no, ftype, _index, flags, _n_mb, _bits = struct.unpack(
        PACKET_HEADER_FORMAT, payload[:PACKET_HEADER_SIZE])
    if magic != PACKET_MAGIC:
        return None
    return frame_no, ftype, flags
