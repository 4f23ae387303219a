"""Multipath acceptance benchmarks: warm pools and load-aware groups.

Two claims gate the multipath subsystem:

* **pool** — acquiring a warm path from a :class:`PathPool` must be at
  least 5x faster than the four-phase cold ``path_create`` it replaces
  (the pool's whole point is amortizing creation for churny workloads);
* **group** — a 4-member ``least_loaded`` path group must sustain at
  least 2x the delivered throughput of a single path under the same
  offered load, with the drop ledger reconciling *exactly*:
  ``offered == delivered + dropped``, every drop categorized.

Results land in ``benchmarks/results/BENCH_multipath.json`` (sections
``pool`` and ``group``), uploaded by CI's bench-smoke job.
"""

import time

from repro.core import Attrs, FlowCache, Msg, PA_NET_PARTICIPANTS, classify
from repro.core.path_create import path_create, path_delete
from repro.core.stage import BWD
from repro.experiments.micro import Fig7Stack, REMOTE_IP
from repro.multipath import PathGroup, PathPool
from repro.net.common import PA_LOCAL_PORT

PORT = 6100

#: Acceptance floors (ISSUE acceptance criteria).
MIN_POOL_SPEEDUP = 5.0
MIN_GROUP_THROUGHPUT_RATIO = 2.0

COLD_LOOPS = 200

#: Offered load per round: three times a single path's 32-slot input
#: queue, so one path saturates while a 4-member group (128 slots,
#: load-balanced) absorbs the whole burst.
BURST = 96
ROUNDS = 20


def _conn_attrs() -> Attrs:
    return Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                  PA_LOCAL_PORT: PORT})


def test_pooled_acquire_vs_cold_create(benchmark, record_bench):
    """A warm acquire+release cycle against the cold create+delete cycle
    it replaces."""
    stack = Fig7Stack()

    start = time.perf_counter()
    for _ in range(COLD_LOOPS):
        path_delete(path_create(stack.test, _conn_attrs()))
    cold_us = (time.perf_counter() - start) / COLD_LOOPS * 1e6

    pool = PathPool(stack.test)
    pool.prewarm(_conn_attrs(), count=1)
    warm_attrs = _conn_attrs()

    def churn():
        path = pool.acquire(warm_attrs)
        pool.release(path)

    benchmark(churn)
    warm_us = benchmark.stats.stats.mean * 1e6
    speedup = cold_us / warm_us
    record_bench("multipath", "pool", {
        "cold_create_us": round(cold_us, 4),
        "pooled_acquire_us": round(warm_us, 4),
        "speedup": round(speedup, 2),
        "cold_loops": COLD_LOOPS,
        "pool_hits": pool.hits,
        "pool_misses": pool.misses,
    })
    assert pool.misses == 0  # every cycle was a warm hit
    assert speedup >= MIN_POOL_SPEEDUP, (
        f"pooled acquisition must be >= {MIN_POOL_SPEEDUP}x faster than "
        f"cold path_create (got {speedup:.2f}x: cold {cold_us:.2f}us, "
        f"warm {warm_us:.2f}us)")


def _offer_and_drain(stack, members, cache, rounds=ROUNDS, burst=BURST):
    """Drive *burst* classified packets per round at the port, then let
    each path drain its input queue once per round (the service rate a
    saturated consumer sustains).  Returns (offered, delivered)."""
    offered = delivered = 0
    for _ in range(rounds):
        for _ in range(burst):
            msg = Msg(stack.udp_frame(PORT))
            offered += 1
            path = classify(stack.eth, msg, cache=cache)
            if path is None:
                raise AssertionError("classification must never miss here")
            if not path.input_queue(BWD).try_enqueue(msg):
                path.note_drop(msg, "path input queue full", "inq_overflow")
        for path in members:
            queue = path.input_queue(BWD)
            while queue.try_dequeue() is not None:
                delivered += 1
    return offered, delivered


def _dropped(members) -> int:
    return sum(p.stats.drops for p in members)


def test_group_throughput_vs_single_path(record_bench):
    """Same offered load, same per-path queue capacity: the group must
    deliver >= 2x what the single path can, and both ledgers must
    reconcile exactly."""
    single_stack = Fig7Stack()
    single = single_stack.create_udp_path(local_port=PORT)
    offered_s, delivered_s = _offer_and_drain(
        single_stack, [single], cache=FlowCache(capacity=128))
    dropped_s = _dropped([single])

    group_stack = Fig7Stack()
    group = PathGroup("least_loaded", name="bench")
    members = [group.add(group_stack.create_udp_path(PORT))
               for _ in range(4)]
    offered_g, delivered_g = _offer_and_drain(
        group_stack, members, cache=FlowCache(capacity=128))
    dropped_g = _dropped(members)

    # Exact drop-ledger reconciliation: nothing vanished uncounted.
    assert offered_s == delivered_s + dropped_s
    assert offered_g == delivered_g + dropped_g
    for path in [single] + members:
        assert path.stats.drops == sum(path.stats.drop_reasons.values())

    ratio = delivered_g / max(delivered_s, 1)
    record_bench("multipath", "group", {
        "members": len(members),
        "policy": "least_loaded",
        "rounds": ROUNDS,
        "burst": BURST,
        "offered": offered_g,
        "single_delivered": delivered_s,
        "single_dropped": dropped_s,
        "group_delivered": delivered_g,
        "group_dropped": dropped_g,
        "throughput_ratio": round(ratio, 2),
        "group_dispatches": group.dispatches,
    })
    assert dropped_s > 0  # the single path really was overloaded
    assert ratio >= MIN_GROUP_THROUGHPUT_RATIO, (
        f"a 4-member least_loaded group must sustain >= "
        f"{MIN_GROUP_THROUGHPUT_RATIO}x a single path's delivered "
        f"throughput (got {ratio:.2f}x: single {delivered_s}, "
        f"group {delivered_g})")
