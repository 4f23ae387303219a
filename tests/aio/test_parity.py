"""Differential parity: asyncio executor vs the deterministic scheduler.

The wall-clock edge's core promise (DESIGN.md §18) is that the asyncio
executor runs the *same* kernel — same thread bodies, same queues, same
admission boundary — so a burst injected at ``rx_burst`` must come out
byte-identical under either executor, with equal ledgers and equal
cycle books.

The scenarios exploit one structural fact: admission drops
(unclassified, early-discard, input-queue overflow) happen synchronously
*inside* ``rx_burst``, before any service thread runs.  Injecting the
whole burst first and then draining therefore exercises identical
classify/admit decisions and identical ``DequeueBatch`` run lengths in
both worlds, making exact equality — not statistical closeness — the
correct assertion.
"""

import asyncio

import pytest

from repro.api import EthAddr, IpAddr, Scout, build_udp_frame
from repro.sim.threads import DONE

LOCAL_MAC = EthAddr("02:00:00:00:00:01")
LOCAL_IP = IpAddr("10.0.0.1")
REMOTE_MAC = EthAddr("02:00:00:00:00:02")
REMOTE_IP = IpAddr("10.0.0.2")
SINK_PORT = 6100


def udp_frame(flow: int, sequence: int) -> bytes:
    payload = b"flow%02d-%06d" % (flow, sequence)
    return build_udp_frame(REMOTE_MAC, LOCAL_MAC, REMOTE_IP, LOCAL_IP,
                           7000 + flow, SINK_PORT + flow, payload)


def _setup(scout: Scout, flows: int, inq_len: int, batch: int,
           drops: list, specialize=None) -> None:
    # The deterministic scheduler keeps no roster; record spawns so the
    # per-thread CPU books can be compared across executors.
    spawned = []
    original_spawn = scout.world.spawn

    def recording_spawn(*args, **kwargs):
        thread = original_spawn(*args, **kwargs)
        spawned.append(thread)
        return thread

    scout.world.spawn = recording_spawn
    scout._parity_threads = spawned
    scout.kernel.drop_hook = lambda msg, category: drops.append(category)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    for flow in range(flows):
        scout.kernel.start_udp_sink(
            SINK_PORT + flow, (str(REMOTE_IP), 7000 + flow),
            batch=batch, inq_len=inq_len, specialize=specialize)


def _collect(scout: Scout, drops: list) -> dict:
    test = scout.kernel.test
    delivered = [msg.to_bytes() for msg in test.received]
    per_flow = {}
    for payload in delivered:
        per_flow.setdefault(payload[:6], []).append(payload)
    drop_counts = {}
    for category in drops:
        drop_counts[category] = drop_counts.get(category, 0) + 1
    return {
        "delivered": delivered,
        "per_flow": per_flow,
        "bytes": test.bytes_received,
        "sink_overflows": test.sink_overflows,
        "drops": drop_counts,
        "stats": scout.kernel.stats(),
        "path_cycles": {port: path.stats.cycles
                        for port, path in scout.kernel.sink_paths.items()},
        # Path ids are a process-global counter, so names differ between
        # back-to-back runs; the charged amounts must not.
        "thread_cpu": sorted(
            t.cpu_us for t in _threads(scout)
            if t.name.startswith("sink-")),
    }


def _threads(scout: Scout):
    return scout._parity_threads


def run_sim(frames, flows=1, inq_len=32, batch=8) -> dict:
    drops = []
    with Scout(seed=3, udp_sink=True, display=False) as scout:
        _setup(scout, flows, inq_len, batch, drops)
        scout.kernel.rx_burst(frames)
        scout.world.run_until_idle()
        return _collect(scout, drops)


def run_aio(frames, flows=1, inq_len=32, batch=8) -> dict:
    async def main():
        async with Scout(seed=3, executor="asyncio",
                         udp_sink=True) as scout:
            _setup(scout, flows, inq_len, batch, drops)
            scout.kernel.rx_burst(frames)
            await scout.settle()
            return _collect(scout, drops)

    drops = []
    return asyncio.run(main())


class TestWarmPathParity:
    def test_single_flow_byte_identical(self):
        frames = [udp_frame(0, seq) for seq in range(30)]
        sim = run_sim(frames)
        aio = run_aio(frames)
        assert aio["delivered"] == sim["delivered"]
        assert len(sim["delivered"]) == 30
        assert aio["bytes"] == sim["bytes"]
        assert aio["drops"] == sim["drops"] == {}
        assert aio["sink_overflows"] == sim["sink_overflows"] == 0

    def test_books_are_executor_independent(self):
        frames = [udp_frame(0, seq) for seq in range(30)]
        sim = run_sim(frames)
        aio = run_aio(frames)
        # The full kernel stats dict: classification counters, flow-cache
        # hits, drop tallies, and the CPU's virtual charge all match.
        assert aio["stats"] == sim["stats"]
        assert aio["path_cycles"] == sim["path_cycles"]
        assert aio["thread_cpu"] == sim["thread_cpu"]

    def test_multi_flow_per_flow_streams(self):
        frames = [udp_frame(seq % 3, seq) for seq in range(90)]
        sim = run_sim(frames, flows=3)
        aio = run_aio(frames, flows=3)
        # Inter-flow interleaving is a scheduling artifact; the per-flow
        # substreams (and every ledger) must still be byte-identical.
        assert aio["per_flow"] == sim["per_flow"]
        assert aio["bytes"] == sim["bytes"]
        assert aio["drops"] == sim["drops"]
        assert aio["stats"] == sim["stats"]
        assert aio["path_cycles"] == sim["path_cycles"]


class TestOverflowParity:
    def test_inq_overflow_drops_identical(self):
        # One burst far beyond the input queue: admission rejects the
        # excess inside rx_burst, identically under either executor.
        frames = [udp_frame(0, seq) for seq in range(40)]
        sim = run_sim(frames, inq_len=4)
        aio = run_aio(frames, inq_len=4)
        assert sim["drops"].get("inq_overflow", 0) > 0
        assert aio["drops"] == sim["drops"]
        assert aio["delivered"] == sim["delivered"]
        assert aio["stats"] == sim["stats"]

    def test_unclassified_drops_identical(self):
        # Frames for a port no sink owns drop as unclassified.
        frames = ([udp_frame(0, seq) for seq in range(10)]
                  + [build_udp_frame(REMOTE_MAC, LOCAL_MAC, REMOTE_IP,
                                     LOCAL_IP, 7009, 6999, b"stray")
                     for _ in range(5)])
        sim = run_sim(frames)
        aio = run_aio(frames)
        assert sim["drops"].get("unclassified", 0) == 5
        assert aio["drops"] == sim["drops"]
        assert aio["delivered"] == sim["delivered"]


class TestLyingTotalLength:
    """A frame on a cached flow whose IP total length is below IHL + 8:
    the flow key leaves total length out, so the cache stamps the frame
    validated, IP trims it to 5 bytes, and UDP must drop it (ledgered
    ``malformed``) instead of popping a header that is not there.  That
    ``ValueError`` used to kill the sink's thread under asyncio and
    raise out of ``run_until_idle`` under the simulator."""

    @staticmethod
    def _scenario(scout: Scout, specialize: bool):
        _setup(scout, flows=1, inq_len=32, batch=8, drops=[],
               specialize=specialize)
        path = scout.kernel.sink_paths[SINK_PORT]
        lying = bytearray(udp_frame(0, 3))
        lying[16:18] = (25).to_bytes(2, "big")
        scout.kernel.rx_burst([udp_frame(0, seq) for seq in range(3)])
        yield
        scout.kernel.rx_burst([bytes(lying)])
        yield
        scout.kernel.rx_burst([udp_frame(0, 4)])
        yield
        assert path.stats.drop_reasons == {"malformed": 1}
        assert scout.kernel.drop_ledger() == {"malformed": 1}
        assert [msg.to_bytes() for msg in scout.kernel.test.received] == \
            [b"flow00-%06d" % seq for seq in (0, 1, 2, 4)]
        threads = _threads(scout)
        assert threads and all(t.state != DONE for t in threads)

    @pytest.mark.parametrize("specialize", [True, False])
    def test_sim(self, specialize):
        with Scout(seed=3, udp_sink=True, display=False) as scout:
            for _ in self._scenario(scout, specialize):
                scout.world.run_until_idle()

    @pytest.mark.parametrize("specialize", [True, False])
    def test_asyncio(self, specialize):
        async def main():
            async with Scout(seed=3, executor="asyncio",
                             udp_sink=True) as scout:
                for _ in self._scenario(scout, specialize):
                    await scout.settle()

        asyncio.run(main())
