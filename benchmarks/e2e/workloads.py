"""The six workloads.

Every workload offers a fixed frame count per round (never a fixed time),
builds all of its inputs from ``--seed`` in :meth:`Workload.setup`, checks
the fate of every frame it offered, and reports one :class:`Round` per
round.  Only ``repro.api`` is imported; everything else is reached through
the public attributes of the objects that facade hands back.

A *frame* is what the generator hands the system: an Ethernet frame on
``sock_*`` / ``sim_*``, a video packet or echo request on ``video_flood``,
a 1400-byte datagram on ``transit_frag``.  Its *expected fate* is delivery
to the sink (byte-identical, exactly once) or, where the workload says so,
one specific ledgered drop.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import socket
import time
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional

from repro.api import (
    BWD,
    NEPTUNE,
    POLICY_RR,
    EthAddr,
    IpAddr,
    Scout,
    SimWorld,
    Testbed,
    Topology,
    build_udp_frame,
    synthesize_clip,
)

from .trace import (
    StepSpans,
    Tracer,
    first_arg_len,
    result_len,
    wrap,
    wrap_path,
)

_pc = time.perf_counter

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100
SRC_PORT = 7000
UNBOUND_PORT = 5999
BURST = 64

#: Share of a full round the discarded warm-up round offers: enough to fill
#: the flow cache, compile every chain and warm the allocator, small enough
#: that ``setup_s`` (which includes it) can be sampled three times a run.
WARMUP_SHARE = 4


#: Slices a round is cut into.  Slice ``i`` carries the same frames in every
#: round, which is what lets the runner compare it across rounds.
SLICES = 32


class Slice(NamedTuple):
    """One slice of a round: how many frames, their wall seconds and their
    median latency."""

    frames: int
    seconds: float
    p50_us: float


class Round(NamedTuple):
    """One round's outcome, as the runner aggregates it."""

    offered: int
    ok: int                     # frames that met their expected fate
    window_s: float             # measured wall seconds (setup/checks excluded)
    slices: List[Slice]
    digest: str                 # sink bytes + ledgers; repeats every round
    problems: List[str]
    p99_us: Optional[float] = None  # per-frame latency tail (socket edge)


def _middle(values: List[float]) -> float:
    """Median by rank; 0 when nothing was delivered (the round's fate
    check reports that)."""
    return sorted(values)[len(values) // 2] if values else 0.0


def _cut(seconds: List[float], latencies: List[List[float]]) -> List[Slice]:
    """Fold per-unit (burst, group) times and latencies into ``SLICES``
    slices of near-equal unit count."""
    units = len(seconds)
    count = min(SLICES, units)
    out = []
    for k in range(count):
        lo, hi = k * units // count, (k + 1) * units // count
        mine = [x for unit in latencies[lo:hi] for x in unit]
        out.append(Slice(len(mine), sum(seconds[lo:hi]), _middle(mine)))
    return out


def _digest(*parts: Any) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


class FrameSet:
    """Pre-built UDP frames: *flows* source ports spread over *sinks* ports.

    Frame ``i`` belongs to flow ``i % flows``; with *unbound_every* = k,
    every k-th frame is addressed to a port nobody listens on.  Payloads
    carry ``flow.index`` plus seeded noise, so a lost, duplicated,
    reordered or corrupted frame changes its sink's stream digest.
    """

    def __init__(self, seed: int, count: int, flows: int, sinks: int,
                 unbound_every: int = 0, payload_len: int = 64):
        rng = random.Random(seed)
        noise = rng.randbytes(payload_len + 251)
        self.sinks = sinks
        self.frames: List[bytes] = []
        self.payloads: List[bytes] = []
        self.sink_of: List[int] = []        # -1: unbound port
        for i in range(count):
            flow = i % flows
            tag = b"%04d.%07d." % (flow, i)
            cut = rng.randrange(251)
            payload = tag + noise[cut:cut + payload_len - len(tag)]
            unbound = bool(unbound_every) and i % unbound_every == unbound_every - 1
            sink = -1 if unbound else flow % sinks
            self.frames.append(build_udp_frame(
                REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP, SRC_PORT + flow,
                UNBOUND_PORT if unbound else SINK_PORT + sink, payload))
            self.payloads.append(payload)
            self.sink_of.append(sink)
        self._expected: Dict[int, tuple] = {}

    def expected(self, n: int) -> tuple:
        """``(per-sink (count, stream digest), per-sink frame indices)`` for
        the first *n* frames, in offered order."""
        if n not in self._expected:
            order: List[List[int]] = [[] for _ in range(self.sinks)]
            for i in range(n):
                if self.sink_of[i] >= 0:
                    order[self.sink_of[i]].append(i)
            streams = [(len(idx), hashlib.blake2b(
                b"".join([self.payloads[i] for i in idx]),
                digest_size=16).hexdigest()) for idx in order]
            self._expected[n] = (streams, order)
        return self._expected[n]


class SinkTap:
    """The consumer on one sink path's output queue.

    It takes each message the moment the TEST sink deposits it and stamps
    the time, so neither the queue nor ``TestRouter.received`` grows with
    run length; :meth:`fold` moves what was taken into a running digest.
    """

    def __init__(self, path: Any, notify=None):
        self.path = path
        self.stamps: List[float] = []
        self._got: List[Any] = []
        self._notify = notify
        self._hasher = hashlib.blake2b(digest_size=16)
        self._count = 0
        path.output_queue(BWD).on_enqueue(self._take)

    def _take(self, queue: Any) -> None:
        self._got.append(queue.dequeue())
        self.stamps.append(_pc())
        if self._notify is not None:
            self._notify()

    def fold(self) -> None:
        if self._got:
            self._hasher.update(b"".join([m.to_bytes() for m in self._got]))
            self._count += len(self._got)
            self._got.clear()

    def finish(self) -> tuple:
        """``(count, stream digest)`` since the last call; resets."""
        self.fold()
        out = (self._count, self._hasher.hexdigest())
        self._hasher = hashlib.blake2b(digest_size=16)
        self._count = 0
        self.stamps.clear()
        return out


class Workload:
    """Base: lifecycle plus the hooks the runner calls."""

    name = ""
    frames_per_round = 0
    #: The metric ``RESIDUE`` time is reported under (socket workloads only;
    #: elsewhere the generator's windows are spans end to end).
    residue_metric: Optional[str] = None
    #: ``trace.coverage`` below this fails the traced run.
    coverage_gate = 0.90
    #: Every slice of a round does the same work (not only slice ``i`` of
    #: every round), so the runner may pool them.
    uniform_slices = True

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        #: This run will be instrumented later: set up whatever has to be
        #: in place from the start (pass-through until then).
        self.traced = traced
        self.tracer: Optional[Tracer] = None

    async def setup(self) -> None:
        raise NotImplementedError

    async def run_round(self, n: int) -> Round:
        raise NotImplementedError

    async def warmup(self) -> Round:
        return await self.run_round(self.frames_per_round // WARMUP_SHARE)

    async def close(self) -> None:
        pass

    def instrument(self, tracer: Tracer) -> None:
        """Install the span wrappers (traced pass only)."""
        self.tracer = tracer

    def counters(self) -> Dict[str, float]:
        """Layer counters; the runner reads them before and after the
        traced rounds and hands both to :meth:`count_metrics`."""
        return {}

    def count_metrics(self, before: Dict[str, float],
                      after: Dict[str, float],
                      frames: int) -> Dict[str, Optional[float]]:
        return {}


def _sink_counters(kernel: Any, taps: List[SinkTap]) -> Dict[str, float]:
    stats = kernel.stats()
    classifier = getattr(kernel, "classifier_stats", None)
    return {
        "cache_hits": stats.get("flow_cache_hits", 0),
        "cache_misses": stats.get("flow_cache_misses", 0),
        "refinements": getattr(classifier, "refinements", 0),
        "inq_overflow": stats.get("inq_overflow_drops", 0),
        "delivered": sum(t.path.stats.messages_bwd for t in taps),
        "specialized": sum(getattr(t.path, "specialized_msgs", 0)
                           for t in taps),
        "path_drops": sum(t.path.stats.drops for t in taps),
        # A high-water mark, not a counter: read as a level.
        "inq_depth_max": max(t.path.input_queue(BWD).high_watermark
                             for t in taps),
    }


def _delta(before: Dict[str, float],
           after: Dict[str, float]) -> Dict[str, float]:
    return {key: value - before[key] for key, value in after.items()}


def _sink_count_metrics(before: Dict[str, float], after: Dict[str, float],
                        frames: int) -> Dict[str, Optional[float]]:
    delta = _delta(before, after)
    lookups = delta["cache_hits"] + delta["cache_misses"]
    delivered = delta["delivered"]
    return {
        "core.flowcache.hit_ratio":
            delta["cache_hits"] / lookups if lookups else None,
        "core.classify.refinements_per_frame": delta["refinements"] / frames,
        "core.queues.inq_depth_max": after["inq_depth_max"],
        "core.queues.inq_overflow_drops": delta["inq_overflow"],
        "core.path.specialized_share":
            delta["specialized"] / delivered if delivered else None,
        "core.path.drops": delta["path_drops"],
    }


def _check_streams(taps: List[SinkTap], streams: List[tuple],
                   problems: List[str]) -> int:
    """Compare every sink's ``(count, digest)`` with what was offered;
    returns how many frames arrived as expected."""
    ok = 0
    for index, (tap, want) in enumerate(zip(taps, streams)):
        got = tap.finish()
        if got == want:
            ok += want[0]
        else:
            problems.append(
                f"sink {index}: stream differs from what was offered "
                f"(delivered {got[0]}, offered {want[0]})")
    return ok


# ---------------------------------------------------------------------------
# sock_stream / sock_w1: the real UDP socket edge
# ---------------------------------------------------------------------------

class SockWorkload(Workload):
    """Loopback UDP socket -> asyncio executor -> specialized sink paths.

    One process, one thread, one sender socket; the generator shares the
    event loop with the kernel under test and keeps *window* frames in
    flight (closed loop) while ``Scout.serve()`` pumps.
    """

    residue_metric = "api.serve.residue_us"
    #: What runs between the spans here is asyncio itself (recvfrom, handle
    #: and task switching, about five loop iterations a frame), which no
    #: public boundary of the system under test brackets; measured coverage
    #: is 0.72-0.91.  The gate only catches spans going missing wholesale.
    coverage_gate = 0.60
    #: Fold taken messages into the digests this often (completions), well
    #: under the sinks' 64-slot output queues.
    FOLD_EVERY = 32
    ROUND_TIMEOUT_S = 60.0

    def __init__(self, seed: int, traced: bool, name: str, flows: int,
                 window: int, frames_per_round: int):
        super().__init__(seed, traced)
        self.name = name
        self.flows = flows
        self.window = window
        self.frames_per_round = frames_per_round
        self.ring_depth_max = 0

    async def setup(self) -> None:
        self.frameset = FrameSet(self.seed, self.frames_per_round,
                                 self.flows, self.flows)
        self.scout = Scout(seed=self.seed, backend="socket",
                           executor="asyncio")
        loop = asyncio.get_running_loop()
        self._protocol = None
        if self.traced:
            # Every task created from here to the end of setup is one of
            # the executor's path threads.
            loop.set_task_factory(lambda loop, coro, **kwargs: asyncio.Task(
                StepSpans(coro, self, "sim.aio.dispatch"), loop=loop,
                **kwargs))
            # The device hands asyncio a DatagramProtocol; keep it, so its
            # datagram_received() callback can carry a span later.
            endpoint = loop.create_datagram_endpoint

            def spy(factory, *args, **kwargs):
                def keep():
                    self._protocol = factory()
                    return self._protocol
                return endpoint(keep, *args, **kwargs)
            loop.create_datagram_endpoint = spy
        await self.scout.start()
        if self.traced:
            del loop.create_datagram_endpoint
        # No loopback socket is a hard failure, never a skip.
        self.sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sender.bind(("127.0.0.1", 0))
        self.sender.setblocking(False)
        self.scout.add_peer(REMOTE_IP, REMOTE_MAC, self.sender.getsockname())
        self.drops: Counter = Counter()
        self.scout.kernel.drop_hook = \
            lambda msg, category: self.drops.update((category,))
        self._done = 0
        self._wake = asyncio.Event()
        self.taps = [
            SinkTap(self.scout.kernel.start_udp_sink(
                SINK_PORT + flow, (str(REMOTE_IP), SRC_PORT + flow),
                batch=16, inq_len=256, specialize=True),
                notify=self._completed)
            for flow in range(self.flows)]
        loop.set_task_factory(None)
        serve = self.scout.serve()
        self._serve = asyncio.create_task(
            StepSpans(serve, self, "api.serve") if self.traced else serve)

    def _completed(self) -> None:
        self._done += 1
        self._wake.set()

    def _fold(self) -> None:
        for tap in self.taps:
            tap.fold()
        self.scout.kernel.test.received.clear()

    async def run_round(self, n: int) -> Round:
        frames = self.frameset.frames
        streams, order = self.frameset.expected(n)
        device = self.scout.device
        address = device.address
        sendto = self.sender.sendto
        window = self.window
        tracer = self.tracer
        tsend = [0.0] * n
        rx_before = device.rx_frames
        dev_drops_before = sum(device.drop_ledger().values()) + device.rx_missed
        kernel_drops_before = sum(self.drops.values())
        self._done = sent = folded = 0
        gave_up = []

        def give_up() -> None:
            gave_up.append(True)
            self._wake.set()
        timer = asyncio.get_running_loop().call_later(self.ROUND_TIMEOUT_S,
                                                      give_up)
        if tracer is not None:
            tracer.open_window()
        started = _pc()
        while self._done < n and not gave_up:
            if tracer is not None:
                span = tracer.enter("loadgen.send")
            first = sent
            while sent < n and sent - self._done < window:
                tsend[sent] = _pc()
                sendto(frames[sent], address)
                sent += 1
            if self._done - folded >= self.FOLD_EVERY:
                self._fold()
                folded = self._done
            if tracer is not None:
                tracer.exit("loadgen.send", span, sent - first)
            # The window is full (or everything is sent) whenever the
            # generator yields: it never leaves the kernel idle with room.
            self._wake.clear()
            await self._wake.wait()
        window_s = _pc() - started
        if tracer is not None:
            tracer.close_window()
        timer.cancel()

        problems: List[str] = []
        if gave_up:
            problems.append(f"round timed out with {self._done}/{n} frames "
                            f"delivered")
        # (completion stamp, latency) in completion order; a slice is a run
        # of consecutive completions and lasts from the previous slice's
        # last completion to its own.
        done = sorted((stamp, (stamp - tsend[i]) * 1e6)
                      for tap, idx in zip(self.taps, order)
                      for stamp, i in zip(tap.stamps, idx))
        slices = []
        edge = started
        for k in range(SLICES if len(done) >= SLICES else 0):
            part = done[k * len(done) // SLICES:(k + 1) * len(done) // SLICES]
            slices.append(Slice(len(part), part[-1][0] - edge,
                                _middle([lat for _, lat in part])))
            edge = part[-1][0]
        tail = sorted(lat for _, lat in done)
        p99 = tail[int(len(tail) * 0.99)] if tail else None
        self._fold()
        ok = _check_streams(self.taps, streams, problems)
        delivered = self._done
        kernel_drops = sum(self.drops.values()) - kernel_drops_before
        dev_drops = (sum(device.drop_ledger().values()) + device.rx_missed
                     - dev_drops_before)
        accepted = device.rx_frames - rx_before
        if accepted != delivered + kernel_drops:
            problems.append(f"device accepted {accepted} frames but "
                            f"{delivered} delivered + {kernel_drops} dropped")
        if kernel_drops or dev_drops:
            problems.append(f"unexpected drops: kernel {dict(self.drops)}, "
                            f"device {device.drop_ledger()}")
        if delivered + kernel_drops + dev_drops != n:
            problems.append(f"fate not exactly-once: {delivered} delivered + "
                            f"{kernel_drops + dev_drops} ledgered != {n}")
        return Round(n, ok, window_s, slices,
                     _digest(streams, kernel_drops, dev_drops), problems, p99)

    async def close(self) -> None:
        self.scout.device.close()
        await self._serve
        self.sender.close()
        await self.scout.aclose()

    def _burst_units(self, args: tuple, result: Any) -> int:
        count = result_len(args, result)
        depth = count + self.scout.device.pending()
        if depth > self.ring_depth_max:
            self.ring_depth_max = depth
        return count

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        scout = self.scout
        wrap(tracer, scout.device, "next_burst", "net.sockdev.rx",
             units=self._burst_units)
        if self._protocol is not None:
            wrap(tracer, self._protocol, "datagram_received",
                 "net.sockdev.rx", units=lambda args, result: None)
        wrap(tracer, scout.kernel, "rx_burst", "kernel.scout.rx_burst",
             units=first_arg_len, role="rx")
        for tap in self.taps:
            wrap_path(tracer, tap.path, "core.path.traverse")

    def counters(self) -> Dict[str, float]:
        device = self.scout.device
        out = _sink_counters(self.scout.kernel, self.taps)
        out["dev_drops"] = sum(device.drop_ledger().values()) + device.rx_missed
        return out

    def count_metrics(self, before, after, frames):
        out = _sink_count_metrics(before, after, frames)
        out["net.sockdev.ring_depth_max"] = self.ring_depth_max
        out["net.sockdev.drops"] = after["dev_drops"] - before["dev_drops"]
        return out


# ---------------------------------------------------------------------------
# sim_warm / sim_cold: the same frames with no socket, loop or asyncio
# ---------------------------------------------------------------------------

class SimWorkload(Workload):
    """``kernel.rx_burst(64 frames)`` then ``world.run_until_idle()`` on the
    deterministic executor.  The measured window is the time inside those
    two calls; building, draining and checking happen outside it."""

    def __init__(self, seed: int, traced: bool, name: str, flows: int,
                 sinks: int, frames_per_round: int, unbound_every: int,
                 sink_kwargs: Dict[str, Any]):
        super().__init__(seed, traced)
        self.name = name
        self.flows = flows
        self.sinks = sinks
        self.frames_per_round = frames_per_round
        self.unbound_every = unbound_every
        self.sink_kwargs = sink_kwargs

    async def setup(self) -> None:
        self.frameset = FrameSet(self.seed, self.frames_per_round,
                                 self.flows, self.sinks, self.unbound_every)
        frames = self.frameset.frames
        self.bursts = [frames[i:i + BURST]
                       for i in range(0, len(frames), BURST)]
        self.scout = Scout(seed=self.seed, udp_sink=True, display=False)
        self.scout.add_peer(REMOTE_IP, REMOTE_MAC)
        self.drops: Counter = Counter()
        self.scout.kernel.drop_hook = \
            lambda msg, category: self.drops.update((category,))
        self.taps = [
            SinkTap(self.scout.kernel.start_udp_sink(
                SINK_PORT + sink, (str(REMOTE_IP), SRC_PORT + sink),
                **self.sink_kwargs))
            for sink in range(self.sinks)]

    async def run_round(self, n: int) -> Round:
        streams, _order = self.frameset.expected(n)
        kernel, world = self.scout.kernel, self.scout.world
        received = kernel.test.received
        tracer = self.tracer
        drops_before = Counter(self.drops)
        seconds: List[float] = []
        latencies: List[List[float]] = []
        for burst in self.bursts[:n // BURST]:
            if tracer is not None:
                tracer.open_window()
            started = _pc()
            kernel.rx_burst(burst)
            world.run_until_idle()
            seconds.append(_pc() - started)
            if tracer is not None:
                tracer.close_window()
            mine: List[float] = []
            for tap in self.taps:
                mine.extend([(s - started) * 1e6 for s in tap.stamps])
                tap.stamps.clear()
                tap.fold()
            latencies.append(mine)
            received.clear()

        problems: List[str] = []
        ok = _check_streams(self.taps, streams, problems)
        drops = self.drops - drops_before
        unbound = n // self.unbound_every if self.unbound_every else 0
        if drops != Counter({"unclassified": unbound} if unbound else {}):
            problems.append(f"drop ledger {dict(drops)} != expected "
                            f"unclassified={unbound}")
        else:
            ok += unbound
        delivered = sum(count for count, _ in streams)
        if delivered + sum(drops.values()) != n:
            problems.append(f"fate not exactly-once: {delivered} delivered + "
                            f"{sum(drops.values())} ledgered != {n}")
        return Round(n, ok, sum(seconds), _cut(seconds, latencies),
                     _digest(streams, sorted(drops.items())), problems)

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        wrap(tracer, self.scout.kernel, "rx_burst", "kernel.scout.rx_burst",
             units=first_arg_len, role="rx")
        wrap(tracer, self.scout.world, "run_until_idle", "sim.sched.dispatch")
        for tap in self.taps:
            wrap_path(tracer, tap.path, "core.path.traverse")

    def counters(self) -> Dict[str, float]:
        out = _sink_counters(self.scout.kernel, self.taps)
        out["events"] = self.scout.world.engine.events_processed
        return out

    def count_metrics(self, before, after, frames):
        out = _sink_count_metrics(before, after, frames)
        out["sim.engine.events_per_frame"] = \
            (after["events"] - before["events"]) / frames
        return out


# ---------------------------------------------------------------------------
# video_flood: the paper's Table 2 cell
# ---------------------------------------------------------------------------

class VideoFloodWorkload(Workload):
    """A Scout kernel plays a Neptune clip at RR priority 0 while a
    ``ping -f`` flooder hammers the lower-priority ICMP path; all in
    virtual time, from the pieces ``experiments.table2`` uses.

    A fresh testbed is built every round (outside the measured window) and
    the clip, synthesised once in setup, is replayed.  The generator hands
    the system *slices* of virtual time, not frames, so the latency sample
    here is wall microseconds per frame handled, one sample per slice.
    """

    name = "video_flood"
    uniform_slices = False      # an I-frame slice is not a B-frame slice
    CLIP_FRAMES = 150
    SLICE_US = 20_000.0
    DRAIN_US = 2_000_000.0

    def __init__(self, seed: int, traced: bool = False):
        super().__init__(seed, traced)
        self._last: Dict[str, float] = {}

    async def setup(self) -> None:
        self.clip = synthesize_clip(NEPTUNE, seed=self.seed,
                                    nframes=self.CLIP_FRAMES)
        self.frames_per_round = sum(len(f.packets) for f in self.clip.frames)

    async def run_round(self, n: int) -> Round:
        # The clip is the unit of work: the warm-up round plays it whole
        # too (the source is unpaced, so that is about 1.5 s of wall).
        testbed = Testbed(seed=self.seed)
        source = testbed.add_video_source(self.clip, dst_port=SINK_PORT)
        flooder = testbed.add_flooder()
        kernel = testbed.build_scout(rate_limited_display=False)
        session = kernel.start_video(NEPTUNE, (str(source.ip), 7200),
                                     local_port=SINK_PORT, policy=POLICY_RR,
                                     priority=0)
        world = testbed.world
        tracer = self.tracer
        if tracer is not None:
            wrap(tracer, world, "run_for", "sim.sched.dispatch")
            wrap_path(tracer, session.path, "mpeg.path.traverse")
            wrap_path(tracer, kernel.icmp_path, "icmp.path.traverse")
        video, icmp = session.path.stats, kernel.icmp_path.stats

        def fated() -> int:
            return (video.messages_bwd + video.drops
                    + icmp.messages_bwd + icmp.drops)

        def slice_(duration_us: float) -> float:
            if tracer is not None:
                tracer.open_window()
            started = _pc()
            world.run_for(duration_us)
            elapsed = _pc() - started
            if tracer is not None:
                tracer.close_window()
            return elapsed

        slices: List[Slice] = []
        testbed.start_all()
        while not source.done:
            before = fated()
            elapsed = slice_(self.SLICE_US)
            handled = max(1, fated() - before)
            slices.append(Slice(handled, elapsed, elapsed * 1e6 / handled))
        # Stop the flood, then let everything in flight meet its fate.
        flooder.stop()
        before = fated()
        elapsed = slice_(self.DRAIN_US)
        handled = max(1, fated() - before)
        slices.append(Slice(handled, elapsed, elapsed * 1e6 / handled))
        window_s = sum(s.seconds for s in slices)

        # Expected fates: every video packet traverses the MPEG path; an
        # echo request is served, or shed at the ICMP path's full input
        # queue (the flood is meant to overrun the low-priority path).
        offered = source.packets_sent + flooder.requests_sent
        ok = (video.messages_bwd + icmp.messages_bwd
              + icmp.drop_reasons.get("inq_overflow", 0))
        problems: List[str] = []
        if video.drops or video.messages_bwd != source.packets_sent:
            problems.append(f"video path took {video.messages_bwd} of "
                            f"{source.packets_sent} packets, ledger "
                            f"{video.drop_reasons}")
        if ok != offered or fated() != offered:
            problems.append(f"fate not exactly-once: {ok} as expected, "
                            f"{fated()} fated, {offered} offered; ICMP "
                            f"ledger {icmp.drop_reasons}")
        self._last = {"events": world.engine.events_processed,
                      "offered": offered}
        digest = _digest(source.packets_sent, flooder.requests_sent,
                         kernel.icmp.echo_requests,
                         sorted(icmp.drop_reasons.items()),
                         session.achieved_fps(), session.missed_deadlines,
                         session.frames_presented,
                         world.engine.events_processed)
        return Round(offered, ok, window_s, slices, digest, problems)

    def count_metrics(self, before, after, frames):
        # A fresh engine per round: the last round's totals are the counts.
        if not self._last:
            return {}
        return {"sim.engine.events_per_frame":
                self._last["events"] / self._last["offered"]}


# ---------------------------------------------------------------------------
# transit_frag: fragment, forward, reassemble across three hops
# ---------------------------------------------------------------------------

class TransitFragWorkload(Workload):
    """sender --1500-- r1 --600-- r2 --1500-- receiver, PMTUD off: every
    1400-byte datagram is cut into 3 fragments at r1, forwarded by r2 and
    reassembled at the receiver.  The topology is the one
    ``experiments.multihop_exp.build_three_hop`` builds."""

    name = "transit_frag"
    frames_per_round = 4000
    GROUP = 50
    PAYLOAD = 1400
    SETTLE_US = 1_000_000.0

    async def setup(self) -> None:
        rng = random.Random(self.seed)
        noise = rng.randbytes(self.PAYLOAD + 251)
        self.payloads = []
        for i in range(self.frames_per_round):
            tag = b"%07d." % i
            cut = rng.randrange(251)
            self.payloads.append(
                tag + noise[cut:cut + self.PAYLOAD - len(tag)])
        self.world = SimWorld(seed=self.seed)
        topo = self.topo = Topology(self.world)
        for name, mtu in (("L1", 1500), ("L2", 600), ("L3", 1500)):
            topo.segment(name, mtu=mtu, bandwidth_mbps=100.0, latency_us=20.0)
        topo.host("sender", "L1", "10.0.1.1")
        topo.host("receiver", "L3", "10.0.3.1")
        topo.router("r1", {"a": ("L1", "10.0.1.254"), "b": ("L2", "10.0.2.1")})
        topo.router("r2", {"a": ("L2", "10.0.2.254"), "b": ("L3", "10.0.3.254")})
        self.pp = topo.provision("sender", "receiver", pmtud=False)
        self.tap = SinkTap(self.pp.sink_path)

    def _ledgers(self) -> Dict[str, Any]:
        nodes = {**self.topo.routers, **self.topo.hosts}
        return {name: dict(node.drop_ledger()) for name, node in nodes.items()}

    async def run_round(self, n: int) -> Round:
        pp, world, tap, tracer = self.pp, self.world, self.tap, self.tracer
        received = pp.dst.test.received
        payloads = self.payloads[:n]
        before = self.counters()
        seconds: List[float] = []
        latencies: List[List[float]] = []
        for start in range(0, n, self.GROUP):
            tsend: List[float] = []
            if tracer is not None:
                tracer.open_window()
            started = _pc()
            for payload in payloads[start:start + self.GROUP]:
                tsend.append(_pc())
                pp.send(payload)
            world.run_for(self.SETTLE_US)
            seconds.append(_pc() - started)
            if tracer is not None:
                tracer.close_window()
            latencies.append([(s - t) * 1e6
                              for s, t in zip(tap.stamps, tsend)])
            tap.stamps.clear()
            tap.fold()
            received.clear()

        problems: List[str] = []
        want = (n, hashlib.blake2b(b"".join(payloads),
                                   digest_size=16).hexdigest())
        ok = _check_streams([tap], [want], problems)
        delta = _delta(before, self.counters())
        if delta["fragments"] != 3 * n:
            problems.append(f"r1 created {delta['fragments']} fragments for "
                            f"{n} datagrams, expected {3 * n}")
        if delta["reassembled"] != n:
            problems.append(f"receiver reassembled {delta['reassembled']} "
                            f"of {n} datagrams")
        ledgers = self._ledgers()
        if any(ledgers.values()):
            problems.append(f"unexpected drops {ledgers}")
        return Round(n, ok, sum(seconds), _cut(seconds, latencies),
                     _digest(want, delta["fragments"], delta["reassembled"],
                             sorted(ledgers.items())), problems)

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)
        wrap(tracer, self.world, "run_for", "sim.sched.dispatch")
        wrap_path(tracer, self.pp.path, "topo.host.tx")
        for router in self.topo.routers.values():
            for path in router.paths():
                wrap_path(tracer, path, "kernel.router.forward")
        receiver = self.pp.dst
        for path in (self.pp.sink_path, receiver.frag_path):
            wrap_path(tracer, path, "topo.host.rx")

    def counters(self) -> Dict[str, float]:
        reassembly = self.pp.dst.frag_path.stage_of("IP")
        return {
            "fragments": self.topo.routers["r1"].stats()["fragments_created"],
            "reassembled": getattr(reassembly, "datagrams_reassembled", 0),
            "events": self.world.engine.events_processed,
        }

    def count_metrics(self, before, after, frames):
        delta = _delta(before, after)
        return {
            "net.forward.fragments_per_dgram": delta["fragments"] / frames,
            "net.ip.reassembled": delta["reassembled"],
            "sim.engine.events_per_frame": delta["events"] / frames,
        }


def create(name: str, seed: int, traced: bool = False) -> Workload:
    """Build the named workload (shapes fixed here, nowhere else)."""
    if name == "sock_stream":
        return SockWorkload(seed, traced, name, flows=4, window=64,
                            frames_per_round=40_000)
    if name == "sock_w1":
        return SockWorkload(seed, traced, name, flows=1, window=1,
                            frames_per_round=30_000)
    if name == "sim_warm":
        return SimWorkload(seed, traced, name, flows=4, sinks=4,
                           frames_per_round=128_000, unbound_every=0,
                           sink_kwargs=dict(batch=16, inq_len=256,
                                            specialize=True))
    if name == "sim_cold":
        # 448 delivering flows rotate through the 128-entry flow cache, so
        # every lookup misses; sinks keep the default tier resolution.
        return SimWorkload(seed, traced, name, flows=512, sinks=16,
                           frames_per_round=32_000, unbound_every=8,
                           sink_kwargs=dict(batch=1))
    if name == "video_flood":
        return VideoFloodWorkload(seed, traced)
    if name == "transit_frag":
        return TransitFragWorkload(seed, traced)
    raise ValueError(f"unknown workload {name!r}")
