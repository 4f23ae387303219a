"""Property tests for message fragmentation and batched traversal.

Three invariant families (DESIGN.md §13):

* ``Msg.split``/``join``/``peek`` edge cases — zero-length pieces and
  peeks that span fragment (chunk) boundaries;
* ``MsgBatch`` split/merge invariants — restructuring a batch never
  reorders, drops, or duplicates a message;
* batch-traversal exactness — delivering a batch produces the same bytes
  in the same order as delivering its messages one at a time.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Attrs, BWD, FWD, Msg, MsgBatch, path_create
from ..helpers import make_chain


# ---------------------------------------------------------------------------
# Msg.split / join / peek edge cases
# ---------------------------------------------------------------------------

def fragmented_msg(chunks, consume=0):
    """Build a Msg whose internal storage has one chunk per element of
    *chunks* (headers push as separate chunks), optionally with *consume*
    bytes already popped off the front."""
    msg = Msg(chunks[-1]) if chunks else Msg()
    for chunk in reversed(chunks[:-1]):
        msg.push(chunk)
    if consume:
        msg.pop(consume)
    return msg


class TestMsgSplitJoinEdges:
    def test_split_zero_bytes_yields_empty_fragment(self):
        msg = Msg(b"datagram")
        head = msg.split(0)
        assert head.to_bytes() == b"" and len(head) == 0
        assert msg.to_bytes() == b"datagram"

    def test_split_everything_leaves_empty_message(self):
        msg = Msg(b"datagram")
        head = msg.split(8)
        assert head.to_bytes() == b"datagram"
        assert len(msg) == 0 and msg.to_bytes() == b""

    def test_split_beyond_length_raises(self):
        with pytest.raises(ValueError):
            Msg(b"abc").split(4)

    def test_split_copies_meta_to_fragment(self):
        msg = Msg(b"abcd", meta={"rx_time": 7.0})
        head = msg.split(2)
        assert head.meta["rx_time"] == 7.0
        head.meta["rx_time"] = 9.0
        assert msg.meta["rx_time"] == 7.0  # a copy, not a share

    def test_join_with_zero_length_pieces(self):
        pieces = [Msg(b""), Msg(b"ab"), Msg(b""), Msg(b"cd"), Msg(b"")]
        joined = Msg.join(pieces)
        assert joined.to_bytes() == b"abcd"
        assert len(joined) == 4

    def test_join_of_nothing_is_empty(self):
        assert Msg.join([]).to_bytes() == b""

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=64),
           st.lists(st.integers(min_value=0, max_value=64), max_size=6))
    def test_split_then_join_roundtrips(self, payload, cuts):
        """Any sequence of valid split() calls reassembles exactly."""
        msg = Msg(payload)
        pieces = []
        for cut in cuts:
            pieces.append(msg.split(min(cut, len(msg))))
        pieces.append(msg)
        assert Msg.join(pieces).to_bytes() == payload

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=8), min_size=1,
                    max_size=6),
           st.data())
    def test_peek_spans_fragment_boundaries(self, chunks, data):
        """peek(n, at) returns the same bytes as slicing the flattened
        contents, regardless of how the message is chunked internally or
        how much of the first chunk was already consumed."""
        flat = b"".join(chunks)
        consume = data.draw(st.integers(min_value=0, max_value=len(flat)))
        msg = fragmented_msg(chunks, consume=consume)
        live = flat[consume:]
        at = data.draw(st.integers(min_value=0, max_value=len(live)))
        nbytes = data.draw(st.integers(min_value=0,
                                       max_value=len(live) - at))
        assert msg.peek(nbytes, at=at) == live[at:at + nbytes]

    def test_peek_across_three_chunks(self):
        msg = fragmented_msg([b"ETH-", b"IPv4", b"payload"])
        assert msg.peek(8, at=2) == b"H-IPv4pa"

    def test_peek_after_partial_pop_spans_boundary(self):
        msg = fragmented_msg([b"ETH-", b"IPv4", b"payload"], consume=2)
        assert msg.peek(6) == b"H-IPv4"

    def test_peek_zero_bytes_at_end_is_empty(self):
        msg = Msg(b"abc")
        assert msg.peek(0, at=3) == b""

    def test_peek_beyond_end_raises(self):
        with pytest.raises(ValueError):
            Msg(b"abc").peek(2, at=2)


# ---------------------------------------------------------------------------
# MsgBatch split / merge invariants
# ---------------------------------------------------------------------------

def payload_batch(payloads, **meta):
    return MsgBatch([Msg(p) for p in payloads], meta=meta or None)


class TestMsgBatchInvariants:
    def test_split_head_preserves_order_and_identity(self):
        msgs = [Msg(bytes([i])) for i in range(5)]
        batch = MsgBatch(msgs)
        head = batch.split(2)
        assert head.msgs == msgs[:2]
        assert batch.msgs == msgs[2:]

    def test_split_zero_and_all(self):
        batch = payload_batch([b"a", b"b"])
        assert len(batch.split(0)) == 0
        head = batch.split(2)
        assert len(head) == 2 and len(batch) == 0

    def test_split_too_many_raises(self):
        with pytest.raises(ValueError):
            payload_batch([b"a"]).split(2)

    def test_split_negative_raises(self):
        with pytest.raises(ValueError):
            payload_batch([b"a"]).split(-1)

    def test_split_copies_shared_meta(self):
        batch = payload_batch([b"a", b"b"], source="cache")
        head = batch.split(1)
        assert head.meta == {"source": "cache"}
        head.meta["source"] = "demux"
        assert batch.meta["source"] == "cache"

    def test_merge_meta_first_batch_wins(self):
        merged = MsgBatch.merge([payload_batch([b"a"], flow=1),
                                 payload_batch([b"b"], flow=2)])
        assert merged.meta == {"flow": 1}

    def test_merge_explicit_meta_overrides(self):
        merged = MsgBatch.merge([payload_batch([b"a"], flow=1)],
                                meta={"flow": 9})
        assert merged.meta == {"flow": 9}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.binary(max_size=4), max_size=12), st.data())
    def test_split_merge_roundtrips(self, payloads, data):
        """split() then merge() restores the exact message sequence."""
        batch = payload_batch(payloads)
        original = list(batch.msgs)
        cut = data.draw(st.integers(min_value=0, max_value=len(payloads)))
        head = batch.split(cut)
        merged = MsgBatch.merge([head, batch])
        assert merged.msgs == original

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(max_size=6), max_size=10))
    def test_accounting_sums_per_message(self, payloads):
        batch = payload_batch(payloads)
        assert batch.total_bytes() == sum(len(p) for p in payloads)
        assert batch.footprint() == sum(Msg(p).footprint()
                                        for p in payloads)


# ---------------------------------------------------------------------------
# Batch traversal == per-message traversal
# ---------------------------------------------------------------------------

def traverse(payloads, direction, batched):
    """Deliver *payloads* down a fresh 3-stage path and return the bytes
    that reach the output queue, in order."""
    _, routers = make_chain("A", "B", "C")
    path = path_create(routers[0], Attrs())
    msgs = [Msg(p) for p in payloads]
    if batched:
        path.deliver_batch(msgs, direction)
    else:
        for msg in msgs:
            path.deliver(msg, direction)
    outq = path.output_queue(direction)
    return [m.to_bytes() for m in outq.dequeue_batch()], msgs


class TestBatchTraversalParity:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                    max_size=8),
           st.sampled_from([FWD, BWD]))
    def test_same_bytes_same_order(self, payloads, direction):
        solo, _ = traverse(payloads, direction, batched=False)
        batch, _ = traverse(payloads, direction, batched=True)
        assert batch == solo == payloads

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=8), min_size=1,
                    max_size=6))
    def test_every_message_traverses_every_stage(self, payloads):
        _, msgs = traverse(payloads, FWD, batched=True)
        for msg in msgs:
            assert [name for name, _d in msg.meta["trace"]] \
                == ["A", "B", "C"]

    def test_batch_bumps_stats_per_message(self):
        _, routers = make_chain("A", "B")
        path = path_create(routers[0], Attrs())
        before = path.stats.messages_fwd
        path.deliver_batch([Msg(b"x"), Msg(b"y"), Msg(b"z")], FWD)
        assert path.stats.messages_fwd == before + 3
