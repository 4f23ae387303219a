"""A RAM-backed block device: the storage behind the SCSI router.

The paper's Figure 3 web-server graph bottoms out at a SCSI driver; this
is its disk.  Sector-addressed, with access statistics the file-system
experiments read.
"""

from __future__ import annotations

from typing import List


class RamDisk:
    """A fixed-geometry in-memory disk."""

    def __init__(self, sectors: int = 4096, sector_size: int = 512):
        if sectors <= 0 or sector_size <= 0:
            raise ValueError("disk geometry must be positive")
        self.sectors = sectors
        self.sector_size = sector_size
        self._data: List[bytearray] = [bytearray(sector_size)
                                       for _ in range(sectors)]
        self.reads = 0
        self.writes = 0

    def _check(self, sector: int) -> None:
        if not 0 <= sector < self.sectors:
            raise IndexError(f"sector {sector} out of range "
                             f"(disk has {self.sectors})")

    def read_sector(self, sector: int) -> bytes:
        self._check(sector)
        self.reads += 1
        return bytes(self._data[sector])

    def write_sector(self, sector: int, data: bytes) -> None:
        self._check(sector)
        if len(data) > self.sector_size:
            raise ValueError(f"{len(data)} bytes exceed the "
                             f"{self.sector_size}-byte sector")
        self.writes += 1
        padded = bytes(data) + b"\x00" * (self.sector_size - len(data))
        self._data[sector] = bytearray(padded)

    def __repr__(self) -> str:
        return (f"<RamDisk {self.sectors}x{self.sector_size}B "
                f"r={self.reads} w={self.writes}>")
