"""Unit tests for the asyncio executor (repro.sim.aio).

These drive hand-built thread bodies — the same generator protocol the
kernel's service threads speak — through :class:`AioExecutor` and pin
the op semantics: blocking dequeue, batched dequeue, backpressure via
``WaitSpace``/``Enqueue``, Compute accounting, and lifecycle (spawn
after start, cancellation running ``finally`` blocks).

No pytest-asyncio: each test wraps its coroutine in ``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.queues import PathQueue
from repro.sim.aio import AioWorld
from repro.sim.threads import (
    YIELD,
    Compute,
    Dequeue,
    DequeueBatch,
    Enqueue,
    WaitSpace,
)


class CycleLedger:
    """Stands in for a Path: records charge_cycles calls."""

    def __init__(self):
        self.cycles = 0.0

    def charge_cycles(self, cycles):
        self.cycles += cycles


def run(coro):
    return asyncio.run(coro)


class TestQueueOps:
    def test_producer_consumer_in_order(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=32, name="pc")
        got = []

        def producer():
            for i in range(10):
                yield Enqueue(q, i)

        def consumer():
            while True:
                item = yield Dequeue(q)
                got.append(item)
                if item == 9:
                    return

        ex.spawn(producer(), name="prod")
        ex.spawn(consumer(), name="cons")

        async def main():
            await ex.drain()

        run(main())
        assert got == list(range(10))

    def test_dequeue_blocks_until_arrival(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=4, name="late")
        got = []

        def consumer():
            got.append((yield Dequeue(q)))

        thread = ex.spawn(consumer(), name="cons")

        async def main():
            await ex.drain()          # consumer parks on the empty queue
            assert ex.idle()
            assert thread.blocks == 1
            q.enqueue("late-item")    # listener wakes the parked task
            assert not ex.idle()
            await ex.drain()

        run(main())
        assert got == ["late-item"]
        assert thread.wakeups == 1

    def test_dequeue_batch_run_lengths(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=32, name="batched")
        for i in range(7):
            q.enqueue(i)
        batches = []

        def consumer():
            while True:
                batch = yield DequeueBatch(q, 4)
                batches.append(batch)
                if sum(map(len, batches)) >= 7:
                    return

        ex.spawn(consumer(), name="cons")
        run(ex.drain())
        assert [len(b) for b in batches] == [4, 3]
        assert batches[0] == [0, 1, 2, 3]

    def test_enqueue_backpressure(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=2, name="narrow")
        got = []

        def producer():
            for i in range(6):
                yield Enqueue(q, i)

        def consumer():
            while len(got) < 6:
                got.append((yield Dequeue(q)))
                yield YIELD

        prod = ex.spawn(producer(), name="prod")
        ex.spawn(consumer(), name="cons")
        run(ex.drain())
        assert got == list(range(6))
        assert q.dropped == 0      # backpressure, never overflow
        assert prod.blocks > 0     # the narrow queue actually blocked it

    def test_waitspace_watcher(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=1, name="gate")
        q.enqueue("occupant")
        events = []

        def watcher():
            yield WaitSpace(q)
            events.append("space")

        ex.spawn(watcher(), name="watch")

        async def main():
            await ex.drain()
            assert events == []    # still full: watcher parked
            q.dequeue()
            await ex.drain()

        run(main())
        assert events == ["space"]


class TestAccounting:
    def test_compute_charges_thread_path_and_cpu(self):
        world = AioWorld(seed=0)
        ex = world.executor
        ledger = CycleLedger()

        def body():
            yield Compute(100.0)
            yield Compute(50.0)

        thread = ex.spawn(body(), name="worker", path=ledger)
        run(ex.drain())
        assert thread.cpu_us == pytest.approx(150.0)
        assert world.cpu.compute_us == pytest.approx(150.0)
        assert ledger.cycles == pytest.approx(150.0 * world.cpu.mhz)


class TestLifecycle:
    def test_spawn_after_start(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=8, name="late-spawn")
        got = []

        def consumer():
            got.append((yield Dequeue(q)))

        async def main():
            await ex.start()
            ex.spawn(consumer(), name="late")
            q.enqueue("x")
            await ex.drain()

        run(main())
        assert got == ["x"]

    def test_close_runs_finally_blocks(self):
        world = AioWorld(seed=0)
        ex = world.executor
        q = PathQueue(maxlen=8, name="forever")
        cleaned = []

        def server():
            try:
                while True:
                    yield Dequeue(q)
            finally:
                cleaned.append(True)

        ex.spawn(server(), name="server")

        async def main():
            await ex.drain()
            await ex.close()

        run(main())
        assert cleaned == [True]

    def test_spawn_after_close_rejected(self):
        world = AioWorld(seed=0)
        ex = world.executor

        async def main():
            await ex.start()
            await ex.close()

        run(main())
        with pytest.raises(RuntimeError):
            ex.spawn(iter(()), name="zombie")

    def test_unknown_op_fails_the_task(self):
        world = AioWorld(seed=0)
        ex = world.executor

        def body():
            yield object()

        thread = ex.spawn(body(), name="bad")

        async def main():
            await ex.start()
            with pytest.raises(TypeError):
                await thread.task

        run(main())
