"""Bit-level I/O for the synthetic MPEG codec.

The real Berkeley decoder reads the stream 32 bits at a time — the
property Section 4.1 exploits when fusing the UDP checksum into MPEG's
data read.  These classes give the synthetic codec the same shape: the
encoder writes macroblock records field by field, the decoder reads every
bit back in 32-bit words, and both therefore actually touch all the data
they claim to.

Neither class loops over bits.  A read converts the bytes that cover the
field with one ``int.from_bytes`` and takes the field out with one shift
and one mask; a write merges the field into the partial final byte and
appends whole bytes with one ``int.to_bytes``.  A field of 64 bits costs
the same Python work as a field of one.  The decode *cost* is the
virtual-time model of ``cost.decode_cost_us``, not this code's speed.
"""

from __future__ import annotations


class BitWriter:
    """Append-only bit stream writer (MSB first)."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._bitpos = 0  # bits used in the final byte

    def write(self, value: int, nbits: int) -> None:
        """Append the low *nbits* of *value*."""
        if nbits < 0 or nbits > 64:
            raise ValueError(f"bad field width {nbits}")
        if value < 0 or (value >> nbits and nbits < 64):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        if not nbits:
            return
        value &= (1 << nbits) - 1
        used = self._bitpos
        total = used + nbits
        field = (value << (-total & 7)).to_bytes((total + 7) >> 3, "big")
        if used:
            # The final byte's unused low bits are zero: OR the field's
            # leading byte into it and append the rest.
            self._buffer[-1] |= field[0]
            field = field[1:]
        self._buffer += field
        self._bitpos = total & 7

    def write_bytes(self, data: bytes) -> None:
        for byte in data:
            self.write(byte, 8)

    def align(self) -> None:
        """Pad with zero bits to the next byte boundary."""
        self._bitpos = 0  # the final byte's unused bits are already zero

    @property
    def bit_length(self) -> int:
        total = len(self._buffer) * 8
        if self._bitpos:
            total -= 8 - self._bitpos
        return total

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class BitReader:
    """Sequential bit stream reader (MSB first)."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # absolute bit position

    def read(self, nbits: int) -> int:
        """Read *nbits* as an unsigned integer."""
        if nbits < 0 or nbits > 64:
            raise ValueError(f"bad field width {nbits}")
        pos = self._pos
        end = pos + nbits
        if end > len(self._data) * 8:
            raise EOFError(f"bitstream exhausted at bit {pos} (+{nbits})")
        self._pos = end
        word = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (word >> (-end & 7)) & ((1 << nbits) - 1)

    def skip(self, nbits: int) -> None:
        if self._pos + nbits > len(self._data) * 8:
            raise EOFError("cannot skip past end of bitstream")
        self._pos += nbits

    def align(self) -> None:
        self._pos = (self._pos + 7) & ~7

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    @property
    def bit_position(self) -> int:
        return self._pos
