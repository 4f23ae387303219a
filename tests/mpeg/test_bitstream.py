"""Unit and property tests for bit-level I/O."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.mpeg import BitReader, BitWriter
from repro.mpeg import bitstream


class LoopWriter:
    """A per-bit writer: the reference ``BitWriter`` must match."""

    def __init__(self):
        self.buffer = bytearray()
        self.bitpos = 0

    def write(self, value, nbits):
        if nbits < 0 or nbits > 64:
            raise ValueError(f"bad field width {nbits}")
        if value < 0 or (nbits < 64 and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        for shift in range(nbits - 1, -1, -1):
            bit = (value >> shift) & 1
            if self.bitpos == 0:
                self.buffer.append(0)
            self.buffer[-1] |= bit << (7 - self.bitpos)
            self.bitpos = (self.bitpos + 1) % 8

    def align(self):
        if self.bitpos:
            self.write(0, 8 - self.bitpos)

    @property
    def bit_length(self):
        total = len(self.buffer) * 8
        if self.bitpos:
            total -= 8 - self.bitpos
        return total


class LoopReader:
    """A per-bit reader: the reference ``BitReader`` must match."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self, nbits):
        if nbits < 0 or nbits > 64:
            raise ValueError(f"bad field width {nbits}")
        if self.pos + nbits > len(self.data) * 8:
            raise EOFError(
                f"bitstream exhausted at bit {self.pos} (+{nbits})")
        value = 0
        pos = self.pos
        for _ in range(nbits):
            byte = self.data[pos >> 3]
            value = (value << 1) | ((byte >> (7 - (pos & 7))) & 1)
            pos += 1
        self.pos = pos
        return value

    def skip(self, nbits):
        if self.pos + nbits > len(self.data) * 8:
            raise EOFError("cannot skip past end of bitstream")
        self.pos += nbits

    def align(self):
        self.pos = (self.pos + 7) & ~7


def outcome(call, *args):
    """A call's result, or its exception's type and message."""
    try:
        return ("ok", call(*args))
    except (ValueError, EOFError) as exc:
        return (type(exc).__name__, str(exc))


class TestBitWriter:
    def test_single_bits(self):
        w = BitWriter()
        for bit in (1, 0, 1, 1):
            w.write(bit, 1)
        assert w.getvalue() == bytes([0b10110000])
        assert w.bit_length == 4

    def test_multibyte_field(self):
        w = BitWriter()
        w.write(0xABC, 12)
        assert w.bit_length == 12
        assert w.getvalue() == bytes([0xAB, 0xC0])

    def test_align_pads_with_zeros(self):
        w = BitWriter()
        w.write(0b1, 1)
        w.align()
        assert w.bit_length == 8
        assert w.getvalue() == bytes([0b10000000])

    def test_align_on_boundary_is_noop(self):
        w = BitWriter()
        w.write(0xFF, 8)
        w.align()
        assert w.bit_length == 8

    def test_write_bytes(self):
        w = BitWriter()
        w.write_bytes(b"\x12\x34")
        assert w.getvalue() == b"\x12\x34"

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 4)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, 65)


class TestBitReader:
    def test_reads_back_fields(self):
        r = BitReader(bytes([0xAB, 0xCD]))
        assert r.read(4) == 0xA
        assert r.read(8) == 0xBC
        assert r.read(4) == 0xD

    def test_eof_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(EOFError):
            r.read(1)

    def test_skip_and_align(self):
        r = BitReader(bytes([0b10100000, 0xCC]))
        r.read(3)
        r.align()
        assert r.read(8) == 0xCC

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16
        r.read(5)
        assert r.bits_remaining == 11

    def test_skip_past_end_raises(self):
        with pytest.raises(EOFError):
            BitReader(b"\x00").skip(9)


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=32),
                          st.integers(min_value=0)),
                min_size=1, max_size=30))
def test_write_read_roundtrip(fields):
    """Any sequence of (width, value) fields round-trips exactly."""
    fields = [(width, value % (1 << width)) for width, value in fields]
    w = BitWriter()
    for width, value in fields:
        w.write(value, width)
    r = BitReader(w.getvalue())
    for width, value in fields:
        assert r.read(width) == value


WIDTHS = st.integers(min_value=-2, max_value=66)
WRITE_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"),
              st.integers(min_value=-3, max_value=1 << 70), WIDTHS),
    st.tuples(st.just("field"), st.integers(min_value=0),
              st.integers(min_value=0, max_value=64)),
    st.tuples(st.just("align"))), max_size=40)


@given(WRITE_OPS)
def test_writer_matches_the_per_bit_writer(ops):
    """Every write (valid or not, widths 0-64 and beyond), every align:
    the same bytes, bit length, return values and error messages."""
    fast, oracle = BitWriter(), LoopWriter()
    for op in ops:
        if op[0] == "align":
            fast.align()
            oracle.align()
        else:
            value, width = op[1], op[2]
            if op[0] == "field":
                value %= 1 << width
            assert outcome(fast.write, value, width) == \
                outcome(oracle.write, value, width)
        assert fast.getvalue() == bytes(oracle.buffer)
        assert fast.bit_length == oracle.bit_length


READ_OPS = st.lists(st.one_of(
    st.tuples(st.just("read"), WIDTHS),
    st.tuples(st.just("skip"), st.integers(min_value=0, max_value=80)),
    st.tuples(st.just("align"))), max_size=30)


@given(st.binary(max_size=24), st.integers(min_value=0, max_value=15),
       READ_OPS)
def test_reader_matches_the_per_bit_reader(data, start, ops):
    """From any (unaligned) start, every read, skip and align: the same
    values, positions and ``ValueError``/``EOFError`` messages."""
    fast, oracle = BitReader(data), LoopReader(data)
    assert outcome(fast.skip, start) == outcome(oracle.skip, start)
    for op in ops:
        if op[0] == "align":
            fast.align()
            oracle.align()
        else:
            verb = op[0]
            assert outcome(getattr(fast, verb), op[1]) == \
                outcome(getattr(oracle, verb), op[1])
        assert fast.bit_position == oracle.pos
        assert fast.bits_remaining == len(data) * 8 - oracle.pos


@given(st.binary(min_size=1, max_size=12), st.integers(min_value=0, max_value=7))
def test_eof_exactly_at_the_boundary(data, start):
    """A read that ends on the last bit succeeds; one bit more fails
    with its message and leaves the position where it was."""
    reader, oracle = BitReader(data), LoopReader(data)
    reader.skip(start)
    oracle.skip(start)
    while reader.bits_remaining:
        width = min(64, reader.bits_remaining)
        assert reader.read(width) == oracle.read(width)
    end = len(data) * 8
    assert reader.read(0) == 0
    for width in (1, 64):
        with pytest.raises(EOFError) as caught:
            reader.read(width)
        assert str(caught.value) == f"bitstream exhausted at bit {end} (+{width})"
    assert reader.bit_position == end
    with pytest.raises(EOFError, match="cannot skip past end"):
        reader.skip(1)
    reader.skip(0)


def opcodes_run(call, *args):
    """Python bytecodes *call* executes inside ``bitstream.py``."""
    executed = 0

    def trace(frame, event, _arg):
        nonlocal executed
        if frame.f_code.co_filename != bitstream.__file__:
            return None
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            executed += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    assert executed > 0
    return executed


class TestWidthIndependence:
    """A field of 64 bits costs the bytecodes of a field of one, so a
    per-bit loop cannot come back unnoticed on any Python version."""

    @pytest.mark.parametrize("start", [0, 3])
    def test_read(self, start):
        counts = set()
        for width in (1, 17, 32, 64):
            reader = BitReader(b"\xa5" * 12)
            reader.skip(start)
            counts.add(opcodes_run(reader.read, width))
        assert len(counts) == 1, counts

    @pytest.mark.parametrize("start", [0, 3])
    def test_write(self, start):
        counts = set()
        for width in (1, 17, 32, 64):
            writer = BitWriter()
            writer.write(0, start)
            counts.add(opcodes_run(writer.write, (1 << width) - 1, width))
        assert len(counts) == 1, counts
