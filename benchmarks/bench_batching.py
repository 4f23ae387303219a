"""Batched path execution acceptance benchmark (DESIGN.md §13).

One claim gates the batching subsystem: on the warm UDP fast path —
flow-cache classification feeding a scheduler-driven path thread — a
batch size of 32 must deliver **at least 2x** the throughput of
per-message dispatch, with *nothing else* changing: the drop ledger
(``offered == delivered + dropped``) and every classifier, cache,
queue, and per-path counter must reconcile exactly against the
per-message run.

The measured pipeline is the kernel's receive shape end to end:
``classify``/``classify_batch`` over an annotating :class:`FlowCache`
(the validated-run fast receive), ``try_enqueue``/``try_enqueue_batch``
onto the path input queue, and a simulated path thread that wakes via
``Dequeue``/``DequeueBatch``, reserves output space, traverses the
path, and charges decode cost — one scheduler dispatch per
message versus one per batch.

Results land in ``benchmarks/results/BENCH_batching.json`` (sections
``throughput`` and ``overflow``), uploaded by CI's bench-smoke job.
"""

import gc
import time

from repro.core import (ClassifierStats, FlowCache, Msg, PathQueue,
                        classify, classify_batch)
from repro.core.stage import BWD
from repro.experiments.micro import Fig7Stack
from repro.sim import (Compute, Dequeue, DequeueBatch, SimWorld, WaitSpace,
                       YIELD)

PORT = 6100

#: Acceptance floor (ISSUE acceptance criteria).
MIN_BATCH_SPEEDUP = 2.0

BATCH = 32
FRAMES = BATCH * 64

#: Modeled decode cost per message, charged to the simulated CPU (the
#: simulation's virtual microseconds are free at the wall clock; they
#: only shape the scheduler's dispatch pattern).
COST_US = 100.0

#: Wall-clock rounds per mode; the minimum filters scheduler noise.
ROUNDS = 7


def _annotate(msg, key):
    """What the kernel's flow-cache annotate hook guarantees: the key
    match re-validated the ETH/IP/UDP headers, so stages may take their
    validated fast receive."""
    meta = msg.meta
    meta["eth_validated"] = True
    meta["ip_validated"] = True
    meta["udp_validated"] = True


class _Pipeline:
    """One warm UDP receive pipeline: stack, path, cache, queues, and a
    path thread parameterized by dispatch mode."""

    def __init__(self):
        self.stack = Fig7Stack()
        self.path = self.stack.create_udp_path(PORT)
        self.cache = FlowCache(capacity=64, annotate=_annotate)
        self.stats = ClassifierStats()
        self.frames = [self.stack.udp_frame(PORT, payload=b"x" * 64)
                       for _ in range(FRAMES)]
        # Warm the flow entry so every measured arrival is a cache hit.
        classify(self.stack.eth, Msg(self.stack.udp_frame(PORT)),
                 stats=self.stats, cache=self.cache)
        self.world = SimWorld(seed=0)
        self.inq = PathQueue(maxlen=FRAMES)

    def _thread(self, batched):
        path, inq = self.path, self.inq
        outq = path.output_queue(BWD)
        processed = 0
        while processed < FRAMES:
            if batched:
                msgs = yield DequeueBatch(inq, BATCH)
                yield WaitSpace(outq)
                path.deliver_batch(msgs, BWD)
                cost = 0.0
                for msg in msgs:
                    cost += COST_US
                    path.stats.release_memory(msg.footprint())
                outq.dequeue_batch()
                yield Compute(cost)
                processed += len(msgs)
            else:
                msg = yield Dequeue(inq)
                yield WaitSpace(outq)
                path.deliver(msg, BWD)
                yield Compute(COST_US)
                path.stats.release_memory(msg.footprint())
                outq.try_dequeue()
                processed += 1
            yield YIELD

    def run(self, batched):
        """Offer every frame, drain them all, return wall seconds."""
        self.world.spawn(self._thread(batched), name="drain")
        path, inq = self.path, self.inq
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            if batched:
                for i in range(0, FRAMES, BATCH):
                    msgs = [Msg(f) for f in self.frames[i:i + BATCH]]
                    classify_batch(self.stack.eth, msgs, stats=self.stats,
                                   cache=self.cache)
                    for msg in msgs:
                        path.stats.charge_memory(msg.footprint())
                    inq.try_enqueue_batch(msgs)
            else:
                for frame in self.frames:
                    msg = Msg(frame)
                    classify(self.stack.eth, msg, stats=self.stats,
                             cache=self.cache)
                    path.stats.charge_memory(msg.footprint())
                    inq.try_enqueue(msg)
            self.world.run_until_idle()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def books(self):
        """Every counter that must not depend on the dispatch mode."""
        stack, path = self.stack, self.path
        return {
            "delivered": len(stack.test.received),
            "classified": self.stats.classified,
            "classifier_cache_hits": self.stats.cache_hits,
            "cache": (self.cache.hits, self.cache.misses),
            "inq": (self.inq.enqueued, self.inq.dequeued,
                    self.inq.dropped),
            "outq": (self.path.output_queue(BWD).enqueued,
                     self.path.output_queue(BWD).dequeued,
                     self.path.output_queue(BWD).dropped),
            "path_messages_bwd": path.stats.messages_bwd,
            "path_drops": path.stats.drops,
            "path_mem_outstanding": path.stats.mem_bytes,
            "eth_rx_validated": stack.eth.rx_validated,
            "ip_rx_validated": stack.ip.rx_validated,
            "sink_overflows": stack.test.sink_overflows,
        }


def test_batch32_throughput_vs_per_message(record_bench):
    """Batch size 32 versus per-message dispatch on the warm UDP path:
    >= 2x delivered throughput, identical books."""
    solo_books = batched_books = None
    solo_s = batched_s = float("inf")
    for _ in range(ROUNDS):
        pipe = _Pipeline()
        solo_s = min(solo_s, pipe.run(batched=False))
        solo_books = pipe.books()
        pipe = _Pipeline()
        batched_s = min(batched_s, pipe.run(batched=True))
        batched_books = pipe.books()

    # Exact reconciliation: batching changed *when* work ran, not what
    # happened — every ledger equal, nothing dropped, memory returned.
    assert batched_books == solo_books
    assert batched_books["delivered"] == FRAMES
    assert batched_books["path_drops"] == 0
    assert batched_books["path_mem_outstanding"] == 0
    assert batched_books["eth_rx_validated"] == FRAMES

    speedup = solo_s / batched_s
    record_bench("batching", "throughput", {
        "batch": BATCH,
        "frames": FRAMES,
        "rounds": ROUNDS,
        "per_message_msgs_per_s": round(FRAMES / solo_s),
        "batched_msgs_per_s": round(FRAMES / batched_s),
        "speedup": round(speedup, 2),
        "books": {k: v for k, v in batched_books.items()
                  if not isinstance(v, tuple)},
    })
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batch={BATCH} dispatch must deliver >= {MIN_BATCH_SPEEDUP}x "
        f"per-message throughput on the warm UDP path (got "
        f"{speedup:.2f}x: solo {FRAMES / solo_s:.0f}/s, "
        f"batched {FRAMES / batched_s:.0f}/s)")


def _offer_overloaded(batched, capacity=32, burst=96):
    """Offer *burst* classified frames at a *capacity*-slot input queue
    in one round — no drain between arrivals — and account every
    rejection.  Returns (offered, accepted, books)."""
    stack = Fig7Stack()
    path = stack.create_udp_path(PORT)
    cache = FlowCache(capacity=64, annotate=_annotate)
    classify(stack.eth, Msg(stack.udp_frame(PORT)), cache=cache)
    inq = PathQueue(maxlen=capacity)
    frames = [stack.udp_frame(PORT, payload=b"y" * 32) for _ in range(burst)]
    if batched:
        msgs = [Msg(f) for f in frames]
        classify_batch(stack.eth, msgs, cache=cache)
        accepted = inq.try_enqueue_batch(msgs)
        for msg in msgs[accepted:]:
            path.note_drop(msg, "path input queue full", "inq_overflow")
    else:
        accepted = 0
        for frame in frames:
            msg = Msg(frame)
            classify(stack.eth, msg, cache=cache)
            if inq.try_enqueue(msg):
                accepted += 1
            else:
                path.note_drop(msg, "path input queue full", "inq_overflow")
    books = {
        "accepted": accepted,
        "queue_dropped": inq.dropped,
        "path_drops": path.stats.drops,
        "drop_reasons": dict(path.stats.drop_reasons),
        "cache_hits": cache.hits,
    }
    return burst, accepted, books


def test_overflow_drop_ledger_matches_per_item(record_bench):
    """``try_enqueue_batch`` under overload drops exactly the messages
    per-item enqueue would, with identical categorized accounting."""
    offered_s, accepted_s, solo_books = _offer_overloaded(batched=False)
    offered_b, accepted_b, batched_books = _offer_overloaded(batched=True)

    assert batched_books == solo_books
    assert offered_b == accepted_b + batched_books["path_drops"]
    assert offered_s == accepted_s + solo_books["path_drops"]
    assert batched_books["path_drops"] > 0  # the queue really overflowed
    assert batched_books["queue_dropped"] == batched_books["path_drops"]

    record_bench("batching", "overflow", {
        "offered": offered_b,
        "accepted": accepted_b,
        "dropped": batched_books["path_drops"],
        "drop_reasons": batched_books["drop_reasons"],
    })
