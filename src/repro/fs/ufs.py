"""A small UNIX-flavoured filesystem on a block device.

This is the UFS router's on-disk logic for the Figure 3 web-server graph:
a real (if compact) filesystem — superblock, inode table, a flat root
directory, direct block pointers, a free-block bitmap — not a dict
masquerading as one.  Everything round-trips through the sector interface
so the SCSI access statistics mean something.

Layout (sector granularity)::

    sector 0                superblock
    sectors 1..NI           inode table (8 inodes per sector)
    sector  NI+1            block allocation bitmap
    sectors NI+2..          data blocks

Inode 0 is the root directory.  Filenames are flat (no subdirectories —
the paper's web server serves a handful of documents; hierarchy would be
mechanical and is documented as out of scope).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from .blockdev import RamDisk

MAGIC = 0x53465355  # "USFS"
INODE_SIZE = 64
DIRECT_BLOCKS = 12
DIR_ENTRY_SIZE = 32  # 28-byte name + 4-byte inode number
MAX_NAME = 27

_SUPER_FORMAT = "!IHHHH"  # magic, n_inodes, bitmap_sector, data_start, n_sectors


class FsError(Exception):
    """Filesystem-level failure (no space, missing file, bad name)."""


class Inode:
    __slots__ = ("number", "used", "links", "size", "blocks")

    def __init__(self, number: int):
        self.number = number
        self.used = False
        self.links = 0
        self.size = 0
        self.blocks: List[int] = [0] * DIRECT_BLOCKS

    def pack(self) -> bytes:
        body = struct.pack("!BxHI", 1 if self.used else 0, self.links,
                           self.size)
        body += struct.pack("!" + "H" * DIRECT_BLOCKS, *self.blocks)
        return body + b"\x00" * (INODE_SIZE - len(body))

    @classmethod
    def unpack(cls, number: int, data: bytes) -> "Inode":
        inode = cls(number)
        used, links, size = struct.unpack("!BxHI", data[:8])
        inode.used = bool(used)
        inode.links = links
        inode.size = size
        inode.blocks = list(struct.unpack(
            "!" + "H" * DIRECT_BLOCKS, data[8:8 + 2 * DIRECT_BLOCKS]))
        return inode


class Ufs:
    """The mounted filesystem object."""

    def __init__(self, disk: RamDisk, n_inodes: int = 64):
        self.disk = disk
        self.n_inodes = n_inodes
        self.sector_size = disk.sector_size
        self._inodes_per_sector = self.sector_size // INODE_SIZE
        self._inode_sectors = -(-n_inodes // self._inodes_per_sector)
        self.bitmap_sector = 1 + self._inode_sectors
        self.data_start = self.bitmap_sector + 1
        self.mounted = False

    # -- formatting and mounting ------------------------------------------------

    def mkfs(self) -> "Ufs":
        """Format the disk and create an empty root directory."""
        super_block = struct.pack(_SUPER_FORMAT, MAGIC, self.n_inodes,
                                  self.bitmap_sector, self.data_start,
                                  self.disk.sectors)
        self.disk.write_sector(0, super_block)
        for sector in range(1, self.data_start):
            self.disk.write_sector(sector, b"\x00" * self.sector_size)
        root = Inode(0)
        root.used = True
        root.links = 1
        self._write_inode(root)
        self.mounted = True
        return self

    def mount(self) -> "Ufs":
        """Verify the superblock and go live."""
        raw = self.disk.read_sector(0)
        magic, n_inodes, bitmap, data_start, n_sectors = struct.unpack(
            _SUPER_FORMAT, raw[:struct.calcsize(_SUPER_FORMAT)])
        if magic != MAGIC:
            raise FsError(f"bad superblock magic 0x{magic:08x}")
        if n_sectors != self.disk.sectors:
            raise FsError("superblock geometry does not match the disk")
        self.n_inodes = n_inodes
        self.bitmap_sector = bitmap
        self.data_start = data_start
        self.mounted = True
        return self

    def _require_mounted(self) -> None:
        if not self.mounted:
            raise FsError("filesystem is not mounted")

    # -- inode table ---------------------------------------------------------------

    def _inode_location(self, number: int):
        if not 0 <= number < self.n_inodes:
            raise FsError(f"inode {number} out of range")
        sector = 1 + number // self._inodes_per_sector
        offset = (number % self._inodes_per_sector) * INODE_SIZE
        return sector, offset

    def read_inode(self, number: int) -> Inode:
        sector, offset = self._inode_location(number)
        raw = self.disk.read_sector(sector)
        return Inode.unpack(number, raw[offset:offset + INODE_SIZE])

    def _write_inode(self, inode: Inode) -> None:
        sector, offset = self._inode_location(inode.number)
        raw = bytearray(self.disk.read_sector(sector))
        raw[offset:offset + INODE_SIZE] = inode.pack()
        self.disk.write_sector(sector, bytes(raw))

    def _alloc_inode(self) -> Inode:
        for number in range(1, self.n_inodes):  # 0 is the root
            inode = self.read_inode(number)
            if not inode.used:
                inode.used = True
                inode.links = 1
                inode.size = 0
                inode.blocks = [0] * DIRECT_BLOCKS
                self._write_inode(inode)
                return inode
        raise FsError("out of inodes")

    # -- block allocation --------------------------------------------------------------

    def _alloc_block(self) -> int:
        bitmap = bytearray(self.disk.read_sector(self.bitmap_sector))
        data_sectors = self.disk.sectors - self.data_start
        for index in range(data_sectors):
            byte, bit = divmod(index, 8)
            if byte >= len(bitmap):
                break
            if not bitmap[byte] & (1 << bit):
                bitmap[byte] |= 1 << bit
                self.disk.write_sector(self.bitmap_sector, bytes(bitmap))
                return self.data_start + index
        raise FsError("out of disk blocks")

    def _free_block(self, sector: int) -> None:
        index = sector - self.data_start
        bitmap = bytearray(self.disk.read_sector(self.bitmap_sector))
        byte, bit = divmod(index, 8)
        bitmap[byte] &= ~(1 << bit) & 0xFF
        self.disk.write_sector(self.bitmap_sector, bytes(bitmap))

    def blocks_free(self) -> int:
        bitmap = self.disk.read_sector(self.bitmap_sector)
        data_sectors = self.disk.sectors - self.data_start
        used = 0
        for index in range(data_sectors):
            byte, bit = divmod(index, 8)
            if bitmap[byte] & (1 << bit):
                used += 1
        return data_sectors - used

    # -- directory (flat root) ------------------------------------------------------------

    def _dir_entries(self) -> Dict[str, int]:
        root = self.read_inode(0)
        entries: Dict[str, int] = {}
        raw = self._read_inode_data(root)
        for offset in range(0, root.size, DIR_ENTRY_SIZE):
            chunk = raw[offset:offset + DIR_ENTRY_SIZE]
            name = chunk[:MAX_NAME + 1].rstrip(b"\x00").decode("utf-8")
            (number,) = struct.unpack("!I", chunk[28:32])
            if name:
                entries[name] = number
        return entries

    def lookup(self, name: str) -> Inode:
        self._require_mounted()
        entries = self._dir_entries()
        if name not in entries:
            raise FsError(f"no such file: {name!r}")
        return self.read_inode(entries[name])

    def listdir(self) -> List[str]:
        self._require_mounted()
        return sorted(self._dir_entries())

    def create(self, name: str) -> Inode:
        self._require_mounted()
        if not name or len(name.encode("utf-8")) > MAX_NAME:
            raise FsError(f"bad file name {name!r} (max {MAX_NAME} bytes)")
        if "/" in name:
            raise FsError("subdirectories are out of scope (flat root only)")
        if name in self._dir_entries():
            raise FsError(f"file exists: {name!r}")
        inode = self._alloc_inode()
        entry = name.encode("utf-8").ljust(28, b"\x00") \
            + struct.pack("!I", inode.number)
        root = self.read_inode(0)
        self._append_inode_data(root, entry)
        return inode

    def unlink(self, name: str) -> None:
        self._require_mounted()
        entries = self._dir_entries()
        if name not in entries:
            raise FsError(f"no such file: {name!r}")
        victim = self.read_inode(entries[name])
        for sector in victim.blocks:
            if sector:
                self._free_block(sector)
        victim.used = False
        self._write_inode(victim)
        # Rewrite the directory without the entry.
        root = self.read_inode(0)
        survivors = [(n, i) for n, i in entries.items() if n != name]
        blob = b"".join(
            n.encode("utf-8").ljust(28, b"\x00") + struct.pack("!I", i)
            for n, i in survivors)
        self._truncate_inode(root)
        self._append_inode_data(root, blob)

    # -- file data ----------------------------------------------------------------------------

    def _read_inode_data(self, inode: Inode) -> bytes:
        out = bytearray()
        remaining = inode.size
        for sector in inode.blocks:
            if remaining <= 0:
                break
            if not sector:
                out += b"\x00" * min(remaining, self.sector_size)
            else:
                out += self.disk.read_sector(sector)[:remaining]
            remaining -= self.sector_size
        return bytes(out[: inode.size])

    def _truncate_inode(self, inode: Inode) -> None:
        for sector in inode.blocks:
            if sector:
                self._free_block(sector)
        inode.blocks = [0] * DIRECT_BLOCKS
        inode.size = 0
        self._write_inode(inode)

    def _append_inode_data(self, inode: Inode, data: bytes) -> None:
        current = self._read_inode_data(inode)
        self._truncate_inode(inode)
        self._write_blob(inode, current + data)

    def _write_blob(self, inode: Inode, blob: bytes) -> None:
        max_size = DIRECT_BLOCKS * self.sector_size
        if len(blob) > max_size:
            raise FsError(f"file too large ({len(blob)} > {max_size} bytes; "
                          "indirect blocks are out of scope)")
        for index in range(0, len(blob), self.sector_size):
            sector = self._alloc_block()
            inode.blocks[index // self.sector_size] = sector
            self.disk.write_sector(sector, blob[index:index + self.sector_size])
        inode.size = len(blob)
        self._write_inode(inode)

    def write_file(self, name: str, data: bytes) -> Inode:
        """Create-or-replace *name* with *data*."""
        self._require_mounted()
        try:
            inode = self.lookup(name)
            self._truncate_inode(inode)
        except FsError:
            inode = self.create(name)
        self._write_blob(inode, data)
        return inode

    def read_file(self, name: str, offset: int = 0,
                  length: Optional[int] = None) -> bytes:
        self._require_mounted()
        inode = self.lookup(name)
        data = self._read_inode_data(inode)
        if length is None:
            return data[offset:]
        return data[offset:offset + length]

    def __repr__(self) -> str:
        state = "mounted" if self.mounted else "unmounted"
        return f"<Ufs {state} inodes={self.n_inodes} on {self.disk!r}>"
