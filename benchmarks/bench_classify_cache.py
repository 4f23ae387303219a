"""The demux fast path: an exact-match flow cache in front of the
refinement chain.

Cold classification walks the ETH -> IP -> UDP refinement chain — one
demux call per router, each a header parse plus dictionary probe.  A
warm flow-cache hit replaces the walk with a single exact-match lookup
on the peeked header bytes.  Acceptance: the warm lookup is at least 3x
faster than the cold chain.

Results land in ``benchmarks/results/BENCH_fastpath.json`` (section
``classify``) alongside the traversal numbers from
``bench_path_micro.py``.
"""

import time

from repro.core import FlowCache, Msg, classify
from repro.experiments import Fig7Stack

LOOPS = 5000

#: The acceptance floor for the warm/cold ratio.
MIN_SPEEDUP = 3.0


def _classify_us(stack, msg, cache, loops=LOOPS):
    """Steady-state per-call cost, excluding Msg construction (both
    variants would pay it identically; the demux decision is what is
    being compared)."""
    classify(stack.eth, msg, cache=cache)  # warm the interpreter
    start = time.perf_counter()
    for _ in range(loops):
        classify(stack.eth, msg, cache=cache)
    return (time.perf_counter() - start) / loops * 1e6


def test_flow_cache_hit_vs_cold_chain(benchmark, record_bench):
    stack = Fig7Stack()
    path = stack.create_udp_path(local_port=6100)
    msg = Msg(stack.udp_frame(6100))

    cold_us = _classify_us(stack, msg, cache=None)

    cache = FlowCache(capacity=128)
    classify(stack.eth, Msg(stack.udp_frame(6100)), cache=cache)  # populate
    assert cache.lookup(msg) is path  # precondition: the flow is cached

    def warm_hit():
        found = classify(stack.eth, msg, cache=cache)
        assert found is path

    benchmark(warm_hit)
    warm_us = benchmark.stats.stats.mean * 1e6
    speedup = cold_us / warm_us
    record_bench("fastpath", "classify", {
        "cold_chain_us": round(cold_us, 4),
        "warm_cache_us": round(warm_us, 4),
        "speedup": round(speedup, 2),
        "loops": LOOPS,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"warm flow-cache classify must be >= {MIN_SPEEDUP}x faster than "
        f"the cold chain (got {speedup:.2f}x: cold {cold_us:.2f}us, "
        f"warm {warm_us:.2f}us)")


def test_cache_eviction_churn_cost(benchmark):
    """Worst case: every packet belongs to a different flow, so a bounded
    cache thrashes — each lookup misses, each insert evicts.  This must
    stay within the same order as an uncached classification (the cache
    must never be a tax on cold traffic)."""
    stack = Fig7Stack()
    stack.create_udp_path(local_port=6100)
    cache = FlowCache(capacity=16)
    # 64 distinct flows round-robin through a 16-entry cache: pure churn.
    msgs = []
    for index in range(64):
        frame = bytearray(stack.udp_frame(6100))
        frame[34] = index  # vary the source port: a distinct flow key
        msgs.append(Msg(bytes(frame)))
    cursor = iter([])

    def churn():
        nonlocal cursor
        msg = next(cursor, None)
        if msg is None:
            cursor = iter(msgs)
            msg = next(cursor)
        classify(stack.eth, msg, cache=cache)

    benchmark(churn)
    assert cache.evictions > 0  # the churn really happened
