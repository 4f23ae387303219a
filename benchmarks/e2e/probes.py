"""Standalone probes: what one outside span cannot split.

Each probe drives one public call in a tight loop over the benchmark's
own 64-byte frames, three rounds of :data:`CALLS` calls, and reports the
median nanoseconds per frame.  Only public calls are used; a probe whose
target no longer exists (a deleted traversal tier, a removed shim)
reports ``None`` instead of crashing, so later simplification PRs need
not edit this file.

Expected interaction, printed by the traced suite next to the measured
value: ``probe.core.message.alloc_ns + probe.core.classify.hit_ns +
probe.core.queues.enq_deq_ns`` is about ``kernel.scout.rx_burst_us`` on
``sim_warm``.
"""

from __future__ import annotations

import inspect
import socket
import statistics
import time
import warnings
from typing import Any, Callable, Dict, List, Optional

from repro import api
from repro.api import BWD, Msg, PathQueue, Scout, SimWorld, classify

from .workloads import (
    BURST,
    LOCAL_MAC,
    REMOTE_IP,
    REMOTE_MAC,
    SINK_PORT,
    SRC_PORT,
    FrameSet,
)

_clock = time.perf_counter_ns

CALLS = 20_480
ROUNDS = 3
WARM_FLOWS = 4
COLD_FLOWS = 512
COLD_SINKS = 16
PATH_BATCH = 16

#: What "the probe's target is gone" looks like from the outside.
_GONE = (AttributeError, TypeError, ImportError, NotImplementedError)


def _median_ns(run: Callable[[], int]) -> float:
    """Median over rounds of ``run() -> elapsed ns`` per frame."""
    return statistics.median(run() / CALLS for _ in range(ROUNDS))


def _kernel(seed: int, sinks: int, **sink_kwargs: Any) -> Any:
    """A booted simulated kernel with *sinks* UDP sink paths."""
    scout = Scout(seed=seed, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    paths = [scout.kernel.start_udp_sink(
        SINK_PORT + i, (str(REMOTE_IP), SRC_PORT + i), **sink_kwargs)
        for i in range(sinks)]
    return scout.kernel, paths


def _legacy(name: str) -> Any:
    """A name the facade only still reaches through its deprecation
    fallback (thread ops live in ``repro.sim``); ``None`` once that goes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return getattr(api, name, None)


def probe_alloc(frames: List[bytes]) -> float:
    def run() -> int:
        start = _clock()
        for frame in frames:
            Msg(frame, meta={"rx_time": 0.0})
        return _clock() - start
    return _median_ns(run)


def probe_classify(kernel: Any, frames: List[bytes]) -> float:
    eth, cache = kernel.eth, kernel.flow_cache

    def run() -> int:
        msgs = [Msg(frame) for frame in frames]
        start = _clock()
        for msg in msgs:
            classify(eth, msg, cache=cache)
        return _clock() - start
    run()  # fill (or start thrashing) the flow cache
    return _median_ns(run)


def probe_enq_deq(frames: List[bytes]) -> float:
    queue = PathQueue(maxlen=256)

    def run() -> int:
        start = _clock()
        for frame in frames:
            queue.try_enqueue(frame)
            queue.dequeue()
        return _clock() - start
    return _median_ns(run)


def probe_path(seed: int, frames: List[bytes], specialize: bool,
               interpret_only: bool) -> Optional[float]:
    """``deliver_batch`` of 16 classified messages through one sink path,
    on the tier selected by the public ``specialize=`` switch and the
    ``interpret_only`` pin."""
    kernel, paths = _kernel(seed, WARM_FLOWS, batch=PATH_BATCH, inq_len=256,
                            specialize=specialize)
    if interpret_only:
        for path in paths:
            if not hasattr(path, "interpret_only"):
                return None
            path.interpret_only = True
    eth, cache, received = kernel.eth, kernel.flow_cache, kernel.test.received
    for frame in frames[:WARM_FLOWS]:
        classify(eth, Msg(frame), cache=cache)

    def run() -> int:
        msgs = [Msg(frame, meta={"rx_time": 0.0}) for frame in frames]
        for msg in msgs:
            classify(eth, msg, cache=cache)
        elapsed = 0
        for flow, path in enumerate(paths):
            mine = msgs[flow::WARM_FLOWS]
            outq = path.output_queue(BWD)
            for i in range(0, len(mine), PATH_BATCH):
                chunk = mine[i:i + PATH_BATCH]
                start = _clock()
                path.deliver_batch(chunk, BWD)
                elapsed += _clock() - start
                outq.dequeue_batch()
            received.clear()
        return elapsed

    before = sum(getattr(p, "specialized_msgs", 0) for p in paths)
    result = _median_ns(run)
    fused = sum(getattr(p, "specialized_msgs", 0) for p in paths) - before
    if specialize and fused < 0.99 * ROUNDS * CALLS:
        return None     # the switch no longer selects a fused tier
    return result


def _hop_body(dequeue: Any, yield_op: Any, queue: Any):
    while True:
        yield dequeue(queue)
        yield yield_op


def probe_sched_hop(seed: int, frames: List[bytes]) -> Optional[float]:
    dequeue, yield_op = _legacy("Dequeue"), _legacy("YIELD")
    if dequeue is None or yield_op is None:
        return None
    world = SimWorld(seed=seed)
    queue = PathQueue(maxlen=256)
    world.spawn(_hop_body(dequeue, yield_op, queue), name="probe-hop")

    def run() -> int:
        start = _clock()
        for i in range(0, len(frames), BURST):
            for frame in frames[i:i + BURST]:
                queue.try_enqueue(frame)
            world.run_until_idle()
        return _clock() - start
    return _median_ns(run)


async def probe_aio_hop(seed: int, frames: List[bytes]) -> Optional[float]:
    dequeue, yield_op = _legacy("Dequeue"), _legacy("YIELD")
    if dequeue is None or yield_op is None:
        return None
    world = api.AioWorld(seed=seed)
    queue = PathQueue(maxlen=256)
    world.spawn(_hop_body(dequeue, yield_op, queue), name="probe-hop")
    await world.executor.start()
    samples = []
    try:
        for _ in range(ROUNDS):
            start = _clock()
            for i in range(0, len(frames), BURST):
                for frame in frames[i:i + BURST]:
                    queue.try_enqueue(frame)
                await world.executor.drain()
            samples.append((_clock() - start) / CALLS)
    finally:
        await world.executor.close()
    return statistics.median(samples)


async def probe_sockdev_rx(frames: List[bytes]) -> Optional[float]:
    """The device alone, no kernel: a window of 64 datagrams sent, then
    awaited back out of ``next_burst``; the senders' own ``sendto`` time
    is measured and subtracted."""
    device = api.SocketNetDevice(LOCAL_MAC)
    address = await device.open()
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender.setblocking(False)
    samples = []
    try:
        for _ in range(ROUNDS):
            total = sending = 0
            for i in range(0, len(frames), BURST):
                burst = frames[i:i + BURST]
                start = _clock()
                for frame in burst:
                    sender.sendto(frame, address)
                sent = _clock()
                got = 0
                while got < len(burst):
                    got += len(await device.next_burst(limit=BURST))
                total += _clock() - start
                sending += sent - start
            samples.append((total - sending) / CALLS)
    finally:
        sender.close()
        device.close()
    return statistics.median(samples)


async def run_probes(seed: int) -> Dict[str, Optional[float]]:
    """Every probe, by its ``BENCHMARK.json`` name."""
    warm = FrameSet(seed, CALLS, WARM_FLOWS, WARM_FLOWS).frames
    cold = FrameSet(seed, CALLS, COLD_FLOWS, COLD_SINKS).frames
    kernel, _paths = _kernel(seed, COLD_SINKS)
    probes: Dict[str, Callable[[], Any]] = {
        "probe.core.message.alloc_ns": lambda: probe_alloc(warm),
        "probe.core.classify.hit_ns": lambda: probe_classify(kernel, warm),
        "probe.core.classify.miss_ns": lambda: probe_classify(kernel, cold),
        "probe.core.queues.enq_deq_ns": lambda: probe_enq_deq(warm),
        "probe.core.path.specialized_ns":
            lambda: probe_path(seed, warm, True, False),
        "probe.core.path.compiled_ns":
            lambda: probe_path(seed, warm, False, False),
        "probe.core.path.interpreted_ns":
            lambda: probe_path(seed, warm, False, True),
        "probe.sim.sched.hop_ns": lambda: probe_sched_hop(seed, warm),
        "probe.sim.aio.hop_ns": lambda: probe_aio_hop(seed, warm),
        "probe.net.sockdev.rx_ns": lambda: probe_sockdev_rx(warm),
    }
    out: Dict[str, Optional[float]] = {}
    for name, probe in probes.items():
        try:
            value = probe()
            out[name] = await value if inspect.isawaitable(value) else value
        except _GONE:
            out[name] = None
    return out
