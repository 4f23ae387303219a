"""x-kernel style messages.

Scout inherited its message abstraction from the x-kernel: a message is a
byte string that protocol routers manipulate almost exclusively by
*pushing* headers on the front (send side) and *popping* them off (receive
side).  Making those two operations cheap is what lets a path traverse many
routers without copying — the Python analogue of the fbuf observation that
data should live in a buffer "already accessible to all the modules along
the path".

``Msg`` therefore stores its contents as a chain of immutable chunks with a
consumed-offset into the first one: ``push`` prepends a chunk (O(1)),
``pop`` consumes bytes off the front without copying the remainder, and
``split``/``join`` support IP fragmentation and reassembly.  A small
``meta`` mapping carries per-message bookkeeping that is *not* wire data
(arrival timestamp, classified path, source device).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional


class Msg:
    """A message flowing along a path.

    Parameters
    ----------
    data:
        Initial contents (payload before any headers are pushed).
    meta:
        Optional out-of-band bookkeeping copied into :attr:`meta`.
    """

    __slots__ = ("_chunks", "_offset", "_length", "meta")

    def __init__(self, data: bytes = b"", meta: Optional[Dict[str, Any]] = None):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"message data must be bytes-like, got {type(data).__name__}")
        data = bytes(data)
        self._chunks: List[bytes] = [data] if data else []
        self._offset = 0
        self._length = len(data)
        self.meta: Dict[str, Any] = dict(meta) if meta else {}

    # -- size --------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return True  # an empty message is still a message

    # -- header manipulation ------------------------------------------------

    def push(self, header: bytes) -> "Msg":
        """Prepend *header* to the message (send-side header attach)."""
        header = bytes(header)
        if not header:
            return self
        if self._offset:
            # Materialize the partially consumed first chunk so offsets
            # never apply to anything but chunk 0.
            self._chunks[0] = self._chunks[0][self._offset:]
            self._offset = 0
        self._chunks.insert(0, header)
        self._length += len(header)
        return self

    def pop(self, nbytes: int) -> bytes:
        """Remove and return the first *nbytes* bytes (receive-side strip).

        Raises ``ValueError`` if the message is shorter than *nbytes* —
        a protocol router must verify lengths before popping, exactly the
        per-layer length check the paper notes can be merged by a path
        transformation.
        """
        if nbytes < 0:
            raise ValueError("cannot pop a negative number of bytes")
        if nbytes > self._length:
            raise ValueError(
                f"cannot pop {nbytes} bytes from a {self._length}-byte message"
            )
        out = bytearray()
        need = nbytes
        while need:
            chunk = self._chunks[0]
            avail = len(chunk) - self._offset
            take = min(avail, need)
            out += chunk[self._offset : self._offset + take]
            need -= take
            if take == avail:
                self._chunks.pop(0)
                self._offset = 0
            else:
                self._offset += take
        self._length -= nbytes
        return bytes(out)

    def strip(self, nbytes: int) -> None:
        """Remove the first *nbytes* bytes without materializing them.

        Identical post-state to :meth:`pop` — the specialized execution
        tier uses it to coalesce several stages' header strips into one
        operation when nobody needs the stripped bytes.
        """
        if nbytes < 0:
            raise ValueError("cannot strip a negative number of bytes")
        if nbytes > self._length:
            raise ValueError(
                f"cannot strip {nbytes} bytes from a {self._length}-byte message"
            )
        need = nbytes
        while need:
            chunk = self._chunks[0]
            avail = len(chunk) - self._offset
            if need >= avail:
                self._chunks.pop(0)
                self._offset = 0
                need -= avail
            else:
                self._offset += need
                need = 0
        self._length -= nbytes

    def peek(self, nbytes: int, at: int = 0) -> bytes:
        """Return *nbytes* bytes starting at offset *at* without consuming.

        Classifiers use this: demux must inspect headers but leave the
        message intact for the path that will actually process it.  A
        range inside the first chunk (every received frame's headers) is
        one slice of it; only a range spanning chunks is gathered.
        """
        if nbytes < 0 or at < 0:
            raise ValueError("peek offsets must be non-negative")
        begin = self._offset + at
        if self._chunks and begin + nbytes <= len(self._chunks[0]):
            return self._chunks[0][begin : begin + nbytes]
        if at + nbytes > self._length:
            raise ValueError(
                f"cannot peek [{at}:{at + nbytes}] of a {self._length}-byte message"
            )
        out = bytearray()
        skip = at  # bytes of live content still to skip before copying
        need = nbytes
        for index, chunk in enumerate(self._chunks):
            start = self._offset if index == 0 else 0
            avail = len(chunk) - start
            if skip >= avail:
                skip -= avail
                continue
            begin = start + skip
            take = min(len(chunk) - begin, need)
            out += chunk[begin : begin + take]
            need -= take
            skip = 0
            if not need:
                break
        return bytes(out)

    # -- whole-message operations --------------------------------------------

    def to_bytes(self) -> bytes:
        """Return the full contents as a single ``bytes`` object."""
        if not self._chunks:
            return b""
        first = self._chunks[0][self._offset:]
        if len(self._chunks) == 1:
            return first
        return first + b"".join(self._chunks[1:])

    def copy(self) -> "Msg":
        """Return an independent copy (chunks are shared, both immutable)."""
        dup = Msg()
        dup._chunks = list(self._chunks)
        dup._offset = self._offset
        dup._length = self._length
        dup.meta = dict(self.meta)
        return dup

    def split(self, nbytes: int) -> "Msg":
        """Remove and return the first *nbytes* bytes as a new ``Msg``.

        This is the fragmentation primitive: IP carves a datagram into
        MTU-sized fragments with repeated ``split`` calls.  ``meta`` is
        copied to the fragment.
        """
        head = Msg(self.pop(nbytes), meta=self.meta)
        return head

    @classmethod
    def join(cls, pieces: Iterable["Msg"], meta: Optional[Dict[str, Any]] = None) -> "Msg":
        """Concatenate *pieces* into one message (reassembly primitive)."""
        out = cls(meta=meta)
        for piece in pieces:
            chunk = piece.to_bytes()
            if chunk:
                out._chunks.append(chunk)
                out._length += len(chunk)
        return out

    # -- accounting -----------------------------------------------------------

    def footprint(self) -> int:
        """Approximate buffer footprint in bytes (sum of live chunk bytes).

        Used by per-path memory accounting: a path is charged for the
        chunks its messages keep alive, including bytes already consumed
        from a partially popped chunk.
        """
        return sum(map(len, self._chunks))

    def __repr__(self) -> str:
        preview = self.to_bytes()[:16]
        suffix = "..." if self._length > 16 else ""
        return f"Msg(len={self._length}, head={preview!r}{suffix})"
