"""Warm-UDP throughput: exec-generated fused functions vs the reference
walk (DESIGN.md §11).

The workload is the specialized tier's home turf — validated runs over
the Figure 7 receive chain, exactly what a flow-cache hit hands the path
in the kernel.  Both arms run the identical workload shape (pre-built
stamped frames, batched delivery, output queue drained per run) so the
measured gap is the dispatch structure alone: one generated straight-line
body versus one recursive ``forward()`` walk per message.

The gate is the acceptance bar: the specialized tier must be at least
2x the reference walk on this workload, with the books — delivered
bytes, drop ledger, rx_validated counters — reconciling exactly.
"""

import time

from repro.core import Attrs, Msg, path_create
from repro.core.attributes import PA_NET_PARTICIPANTS
from repro.core.flowcache import VALIDATED_STAMPS
from repro.core.stage import BWD
from repro.experiments.micro import Fig7Stack, REMOTE_IP
from repro.net.common import PA_LOCAL_PORT

BATCH = 32
LOOPS = 400
PAYLOAD = b"x" * 64


def _build(specialize, port):
    stack = Fig7Stack()
    path = path_create(stack.test,
                       Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                              PA_LOCAL_PORT: port}),
                       specialize=specialize)
    return stack, path


def _make_runs(stack, port, loops, batch):
    runs = []
    for _ in range(loops):
        run = []
        for _ in range(batch):
            msg = Msg(stack.udp_frame(port, payload=PAYLOAD))
            for stamp in VALIDATED_STAMPS:
                msg.meta[stamp] = True
            run.append(msg)
        runs.append(run)
    return runs


def _time_arm(specialize):
    stack, path = _build(specialize, 6100)
    outq = path.output_queue(BWD)
    # Interpreter warm-up (and, for the specialized arm, generation).
    for run in _make_runs(stack, 6100, 3, BATCH):
        path.deliver_batch(run, BWD)
        outq.dequeue_batch()
    stack.test.received.clear()
    warmup_specialized = path.specialized_msgs
    runs = _make_runs(stack, 6100, LOOPS, BATCH)
    start = time.perf_counter()
    for run in runs:
        path.deliver_batch(run, BWD)
        outq.dequeue_batch()
    elapsed = time.perf_counter() - start
    per_msg_us = elapsed / (LOOPS * BATCH) * 1e6
    books = {
        "delivered": len(stack.test.received),
        "first": stack.test.received[0].to_bytes(),
        "last": stack.test.received[-1].to_bytes(),
        "drops": path.stats.drops,
        "drop_reasons": dict(path.stats.drop_reasons),
        "sink_overflows": stack.test.sink_overflows,
        "rx_validated": (stack.eth.rx_validated, stack.ip.rx_validated,
                         path.stage_of("UDP").rx_validated),
        "cycles": path.stats.cycles,
    }
    return per_msg_us, books, path.specialized_msgs - warmup_specialized, path


def test_warm_udp_specialized_vs_reference(record_bench):
    reference_us, reference_books, _, _ = _time_arm(specialize=False)
    specialized_us, specialized_books, specialized_msgs, path = \
        _time_arm(specialize=True)

    # Reconciliation first: a fast wrong answer is not a result.  Both
    # arms saw the identical byte stream, so every book must agree.
    assert specialized_books == reference_books
    assert specialized_books["delivered"] == LOOPS * BATCH
    assert specialized_books["drops"] == 0
    # ...and the specialized arm really ran generated code, start to end.
    assert specialized_msgs == LOOPS * BATCH
    spec_fn = path._specialized[BWD]
    speedup = reference_us / specialized_us

    record_bench("fastpath", "specialize", {
        "reference_us": round(reference_us, 4),
        "specialized_us": round(specialized_us, 4),
        "speedup": round(speedup, 2),
        "batch": BATCH,
        "loops": LOOPS,
        "fused_stages": spec_fn.__specialized_stages__,
        "delivered": specialized_books["delivered"],
    })
    # The acceptance gate: fused straight-line code must at least double
    # warm-UDP batched throughput over the per-message reference walk.
    assert speedup >= 2.0, (
        f"specialized tier only {speedup:.2f}x over the reference walk "
        f"({specialized_us:.3f}us vs {reference_us:.3f}us per message)")


def test_specialized_scalar_deliver_not_slower(record_bench):
    """Batch=1 rides the same generated function; it must never lose to
    the reference walk (no gate beyond parity-with-slack — scalar
    dispatch overhead dominates at this size)."""

    def time_scalar(specialize):
        stack, path = _build(specialize, 6100)
        outq = path.output_queue(BWD)
        for run in _make_runs(stack, 6100, 3, 1):
            path.deliver(run[0], BWD)
            outq.dequeue_batch()
        stack.test.received.clear()
        runs = _make_runs(stack, 6100, LOOPS, 1)
        start = time.perf_counter()
        for run in runs:
            path.deliver(run[0], BWD)
            outq.dequeue_batch()
        return (time.perf_counter() - start) / LOOPS * 1e6

    reference_us = time_scalar(False)
    specialized_us = time_scalar(True)
    record_bench("fastpath", "specialize_scalar", {
        "reference_us": round(reference_us, 4),
        "specialized_us": round(specialized_us, 4),
        "speedup": round(reference_us / specialized_us, 2),
        "loops": LOOPS,
    })
    assert specialized_us <= 1.5 * reference_us
