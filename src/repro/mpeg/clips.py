"""Synthetic video clips and the MPEG-like encoder.

The paper evaluates on four clips (Flower, Neptune, RedsNightmare,
Canyon) that are not available; we synthesize statistical stand-ins.  A
clip profile fixes resolution, length, and the frame-size distribution
(mean bits per frame, I/P/B ratios over the GOP, lognormal jitter); the
encoder then emits a *real* bitstream — every macroblock record is
written field by field and read back by the decoder — packetized per ALF
(Section 4.1): "the MPEG source sends Ethernet MTU-sized packets that
contain an integral number of work-units (MPEG macroblocks)".

The profiles' ``avg_frame_bits`` were chosen so the cost model's decode +
display time per frame matches the paper's Table 1 Scout column (see
EXPERIMENTS.md for the arithmetic).
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .. import params
from .bitstream import BitWriter

#: Frame types.
I_FRAME, P_FRAME, B_FRAME = 0, 1, 2
FRAME_TYPE_NAMES = ("I", "P", "B")

#: ALF packet header: magic(1) frame_no(4) ftype(1) packet_index(1)
#: flags(1) n_mb(2) payload_bits(4).
PACKET_HEADER_FORMAT = "!BIBBBHI"
PACKET_HEADER_SIZE = struct.calcsize(PACKET_HEADER_FORMAT)
PACKET_MAGIC = 0xA5
FLAG_LAST_PACKET = 0x1
FLAG_FIRST_PACKET = 0x2

#: Bit widths of the per-macroblock record: index(10) size(14) + payload.
MB_INDEX_BITS = 10
MB_SIZE_BITS = 14
MB_MAX_PAYLOAD_BITS = (1 << MB_SIZE_BITS) - 1


class ClipProfile:
    """Statistical description of a video clip."""

    def __init__(self, name: str, width: int, height: int, nframes: int,
                 fps: float, avg_frame_bits: int,
                 gop: str = "IBBPBBPBB",
                 type_ratios: Optional[Dict[int, float]] = None,
                 size_jitter: float = 0.30):
        if width <= 0 or height <= 0:
            raise ValueError("resolution must be positive")
        self.name = name
        self.width = width
        self.height = height
        self.nframes = nframes
        self.fps = fps
        self.avg_frame_bits = avg_frame_bits
        self.gop = gop
        self.type_ratios = type_ratios or {I_FRAME: 2.5, P_FRAME: 1.3,
                                           B_FRAME: 0.55}
        self.size_jitter = size_jitter

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def macroblocks(self) -> int:
        return math.ceil(self.width / 16) * math.ceil(self.height / 16)

    def frame_type(self, frame_no: int) -> int:
        letter = self.gop[frame_no % len(self.gop)]
        return {"I": I_FRAME, "P": P_FRAME, "B": B_FRAME}[letter]

    def _gop_mean_ratio(self) -> float:
        ratios = [self.type_ratios[self.frame_type(i)]
                  for i in range(len(self.gop))]
        return sum(ratios) / len(ratios)

    def mean_bits_for_type(self, ftype: int) -> float:
        """Mean frame size for a type, normalized so the GOP-wide average
        equals ``avg_frame_bits``."""
        return self.avg_frame_bits * self.type_ratios[ftype] / self._gop_mean_ratio()

    def __repr__(self) -> str:
        return (f"ClipProfile({self.name!r} {self.width}x{self.height} "
                f"{self.nframes}f @{self.fps}fps ~{self.avg_frame_bits}b)")


#: The paper's four clips.  avg_frame_bits is the *coefficient* budget
#: per frame; the encoder adds 24 bits of record overhead per macroblock,
#: so the decoded total lands on the Table 1 calibration targets
#: (Flower 86.7 kb, Neptune 69 kb, RedsNightmare 38 kb, Canyon ~11 kb —
#: see EXPERIMENTS.md for the fit).
FLOWER = ClipProfile("Flower", 352, 240, 150, 30.0, avg_frame_bits=78_800,
                     size_jitter=0.25)
NEPTUNE = ClipProfile("Neptune", 352, 240, 1345, 30.0, avg_frame_bits=61_100,
                      size_jitter=0.30)
REDS_NIGHTMARE = ClipProfile("RedsNightmare", 320, 240, 1210, 30.0,
                             avg_frame_bits=30_800, size_jitter=0.35)
CANYON = ClipProfile("Canyon", 160, 120, 1758, 30.0, avg_frame_bits=9_000,
                     size_jitter=0.25)

PAPER_CLIPS: Sequence[ClipProfile] = (FLOWER, NEPTUNE, REDS_NIGHTMARE, CANYON)


def clip_by_name(name: str) -> ClipProfile:
    for profile in PAPER_CLIPS:
        if profile.name.lower() == name.lower():
            return profile
    raise KeyError(f"no clip profile named {name!r}; "
                   f"known: {[p.name for p in PAPER_CLIPS]}")


class EncodedFrame:
    """One encoded frame: its ALF packets plus bookkeeping."""

    __slots__ = ("number", "ftype", "bits", "n_mb", "packets")

    def __init__(self, number: int, ftype: int, bits: int, n_mb: int,
                 packets: List[bytes]):
        self.number = number
        self.ftype = ftype
        self.bits = bits          # total payload bits across packets
        self.n_mb = n_mb
        self.packets = packets

    def __repr__(self) -> str:
        return (f"<EncodedFrame #{self.number} "
                f"{FRAME_TYPE_NAMES[self.ftype]} {self.bits}b "
                f"{len(self.packets)}pkts>")


class EncodedClip:
    """A fully encoded clip."""

    def __init__(self, profile: ClipProfile, frames: List[EncodedFrame]):
        self.profile = profile
        self.frames = frames

    @property
    def total_bits(self) -> int:
        return sum(frame.bits for frame in self.frames)

    @property
    def avg_frame_bits(self) -> float:
        return self.total_bits / len(self.frames) if self.frames else 0.0

    def packets(self) -> Iterator[bytes]:
        for frame in self.frames:
            yield from frame.packets

    def __repr__(self) -> str:
        return (f"<EncodedClip {self.profile.name} {len(self.frames)}f "
                f"avg={self.avg_frame_bits:.0f}b>")


class MpegEncoder:
    """The synthetic encoder.

    Parameters
    ----------
    profile:
        The clip to synthesize.
    seed:
        RNG seed; identical seeds give identical bitstreams.
    packet_payload_budget:
        Bytes available to MPEG per network packet — the Ethernet MTU
        minus the IP/UDP/MFLOW headers (ALF framing).
    alf:
        When False, packetize as a raw byte stream that ignores
        macroblock boundaries (the non-ALF ablation of DESIGN.md §5).
    """

    def __init__(self, profile: ClipProfile, seed: int = 0,
                 packet_payload_budget: Optional[int] = None,
                 alf: bool = True):
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        if packet_payload_budget is None:
            packet_payload_budget = (params.ETH_MTU - 20 - 8 - 12)
        self.packet_payload_budget = packet_payload_budget
        self.alf = alf

    # -- frame synthesis -------------------------------------------------------

    def _sample_frame_bits(self, ftype: int) -> int:
        mean = self.profile.mean_bits_for_type(ftype)
        sigma = self.profile.size_jitter
        factor = float(self.rng.lognormal(-0.5 * sigma * sigma, sigma))
        return max(200, int(mean * factor))

    def _macroblock_sizes(self, total_bits: int) -> List[int]:
        """Split a frame's coefficient budget across its macroblocks."""
        n_mb = self.profile.macroblocks
        weights = self.rng.random(n_mb) + 0.1
        weights /= weights.sum()
        sizes = [max(1, min(MB_MAX_PAYLOAD_BITS, int(total_bits * w)))
                 for w in weights]
        return sizes

    def encode_frame(self, frame_no: int) -> EncodedFrame:
        ftype = self.profile.frame_type(frame_no)
        target_bits = self._sample_frame_bits(ftype)
        mb_sizes = self._macroblock_sizes(target_bits)
        records: List[bytes] = []
        total_bits = 0
        for index, size in enumerate(mb_sizes):
            writer = BitWriter()
            writer.write(index, MB_INDEX_BITS)
            writer.write(size, MB_SIZE_BITS)
            # Pseudo-coefficients: random bits, written 16 at a time.
            remaining = size
            while remaining > 0:
                chunk = min(16, remaining)
                writer.write(int(self.rng.integers(0, 1 << chunk)), chunk)
                remaining -= chunk
            writer.align()
            records.append(writer.getvalue())
            total_bits += MB_INDEX_BITS + MB_SIZE_BITS + size
        packets = (self._packetize_alf(frame_no, ftype, records)
                   if self.alf else
                   self._packetize_stream(frame_no, ftype, records))
        return EncodedFrame(frame_no, ftype, total_bits,
                            len(mb_sizes), packets)

    # -- packetization -------------------------------------------------------------

    def _make_packet(self, frame_no: int, ftype: int, index: int,
                     flags: int, n_mb: int, payload: bytes) -> bytes:
        header = struct.pack(PACKET_HEADER_FORMAT, PACKET_MAGIC, frame_no,
                             ftype, index & 0xFF, flags, n_mb,
                             len(payload) * 8)
        return header + payload

    def _packetize_alf(self, frame_no: int, ftype: int,
                       records: List[bytes]) -> List[bytes]:
        """An integral number of macroblocks per packet."""
        budget = self.packet_payload_budget - PACKET_HEADER_SIZE
        groups: List[List[bytes]] = [[]]
        used = 0
        for record in records:
            if groups[-1] and used + len(record) > budget:
                groups.append([])
                used = 0
            groups[-1].append(record)
            used += len(record)
        packets = []
        for index, group in enumerate(groups):
            flags = 0
            if index == 0:
                flags |= FLAG_FIRST_PACKET
            if index == len(groups) - 1:
                flags |= FLAG_LAST_PACKET
            packets.append(self._make_packet(frame_no, ftype, index, flags,
                                             len(group), b"".join(group)))
        return packets

    def _packetize_stream(self, frame_no: int, ftype: int,
                          records: List[bytes]) -> List[bytes]:
        """Non-ALF ablation: split on byte boundaries, macroblocks may
        straddle packets (n_mb is only meaningful in aggregate)."""
        budget = self.packet_payload_budget - PACKET_HEADER_SIZE
        blob = b"".join(records)
        pieces = [blob[i:i + budget] for i in range(0, len(blob), budget)] \
            or [b""]
        packets = []
        for index, piece in enumerate(pieces):
            flags = 0
            if index == 0:
                flags |= FLAG_FIRST_PACKET
            if index == len(pieces) - 1:
                flags |= FLAG_LAST_PACKET
            n_mb = len(records) if index == len(pieces) - 1 else 0
            packets.append(self._make_packet(frame_no, ftype, index, flags,
                                             n_mb, piece))
        return packets

    # -- whole clips ----------------------------------------------------------------

    def encode(self, nframes: Optional[int] = None) -> EncodedClip:
        count = nframes if nframes is not None else self.profile.nframes
        frames = [self.encode_frame(i) for i in range(count)]
        return EncodedClip(self.profile, frames)


def synthesize_clip(profile: ClipProfile, seed: int = 0,
                    nframes: Optional[int] = None,
                    alf: bool = True) -> EncodedClip:
    """Convenience wrapper: encode *profile* deterministically."""
    return MpegEncoder(profile, seed=seed, alf=alf).encode(nframes)
