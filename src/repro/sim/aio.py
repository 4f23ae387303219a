"""The asyncio executor: the same path threads, driven on wall-clock time.

The deterministic :class:`~repro.sim.sched.Scheduler` owns tier-1: it
replays a seeded world in virtual microseconds.  This module is the
wall-clock edge (DESIGN.md §18): the *same* thread-body generators —
``Dequeue`` / ``DequeueBatch`` / ``Enqueue`` / ``WaitSpace`` /
``Compute`` / ``YIELD`` — run as asyncio tasks, with the queue-blocking
operations awaited against real arrivals instead of simulated ones.
Nothing in the kernel changes: a body written for the simulator is a
body this executor can run, which is what makes the two executors
differentially testable (``tests/aio/test_parity.py``).

Cycle accounting is preserved, not discarded: every ``Compute`` still
charges the path (``Path.charge_cycles``) and the world CPU's
``compute_us`` exactly as the simulated scheduler would, so a kernel's
books are executor-independent; the
:class:`~repro.observe.wallclock.WallClockBridge` then relates those
virtual charges to real elapsed time.

Three pieces:

* :class:`AioExecutor` — adopts thread bodies, runs each as a task, and
  maps every yielded :class:`~repro.sim.threads.Op` onto an awaitable;
* :class:`AioThread` — the task-side stand-in for
  :class:`~repro.sim.threads.SimThread` (same accounting fields);
* :class:`AioWorld` — a :class:`~repro.sim.world.SimWorld` whose
  ``spawn`` registers bodies with the executor instead of the
  deterministic scheduler, so an unmodified kernel boots onto it.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..core.queues import PathQueue
from .threads import (
    BLOCKED,
    DONE,
    READY,
    RUNNING,
    Compute,
    Dequeue,
    DequeueBatch,
    Enqueue,
    Op,
    Sleep,
    ThreadBody,
    WaitSpace,
    _Yield,
)
from .world import SimWorld

__all__ = ["AioExecutor", "AioThread", "AioWorld"]

_aio_thread_ids = itertools.count(1)


class AioThread:
    """A path thread adopted by the asyncio executor.

    Carries the same accounting fields as
    :class:`~repro.sim.threads.SimThread` (``cpu_us``, ``blocks``,
    ``wakeups``, ``state``) so kernel code that inspects its spawned
    threads sees the shape it expects; ``policy``/``priority`` are kept
    for diagnostics — the asyncio event loop is the only scheduler here.
    """

    def __init__(self, body: ThreadBody, name: str = "",
                 policy: str = "rr", priority: int = 0, path=None):
        self.tid = next(_aio_thread_ids)
        self.body = body
        self.name = name or f"aiothread{self.tid}"
        self.policy = policy
        self.priority = priority
        self.path = path
        self.state = READY
        self.deadline = float("inf")
        self.task: Optional["asyncio.Task"] = None
        # accounting (same fields as SimThread)
        self.cpu_us = 0.0
        self.blocks = 0
        self.wakeups = 0

    def __repr__(self) -> str:
        return (f"<AioThread {self.name} {self.state} "
                f"policy={self.policy} prio={self.priority}>")


class _Gate:
    """Wait lists for one queue: fill waiters (consumers blocked on
    empty) and space waiters (producers/watchers blocked on full)."""

    __slots__ = ("fill_waiters", "space_waiters")

    def __init__(self) -> None:
        self.fill_waiters: Deque["asyncio.Future"] = deque()
        self.space_waiters: Deque["asyncio.Future"] = deque()


class AioExecutor:
    """Run thread-body generators as asyncio tasks.

    Parameters
    ----------
    world:
        The :class:`~repro.sim.world.SimWorld` whose CPU accounting the
        executor keeps consistent (``cpu.compute_us`` advances exactly
        as the simulated scheduler would advance it).

    ``Compute`` and ``Sleep`` run as fast as the event loop allows: the
    virtual cost is *accounted*, never slept.
    """

    def __init__(self, world: SimWorld):
        self.world = world
        self.threads: List[AioThread] = []
        self.threads_spawned = 0
        self._gates: Dict[int, _Gate] = {}
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._started = False
        self._closed = False
        #: Tasks currently inside an ``await`` on a queue gate.
        self._parked = 0
        #: Futures a waker resolved whose task has not resumed yet.
        self._wakes_pending = 0
        #: Tasks whose driver coroutine is live (started, not finished).
        self._alive = 0
        #: Tasks created but whose driver has not yet had a first tick.
        self._unstarted = 0

    # -- registration ------------------------------------------------------

    def spawn(self, body: ThreadBody, name: str = "", policy: str = "rr",
              priority: int = 0, path=None) -> AioThread:
        """Adopt *body*; it starts when :meth:`start` runs (or
        immediately, when the executor is already serving)."""
        if self._closed:
            raise RuntimeError("executor is closed")
        thread = AioThread(body, name=name, policy=policy,
                           priority=priority, path=path)
        self.threads.append(thread)
        self.threads_spawned += 1
        if self._started:
            self._create_task(thread)
        return thread

    def _create_task(self, thread: AioThread) -> None:
        self._unstarted += 1
        thread.task = self._loop.create_task(self._drive(thread))

    async def start(self) -> None:
        """Create one task per adopted thread (idempotent)."""
        if self._closed:
            raise RuntimeError("executor is closed")
        self._loop = asyncio.get_running_loop()
        if self._started:
            return
        self._started = True
        for thread in self.threads:
            if thread.task is None:
                self._create_task(thread)

    # -- idle detection ----------------------------------------------------

    def idle(self) -> bool:
        """True when every live task is parked on a queue with no wakeup
        in flight — the wall-clock analogue of a drained event heap."""
        return (self._started and self._unstarted == 0
                and self._wakes_pending == 0
                and self._parked == self._alive)

    async def drain(self) -> None:
        """Run until every task is parked on an empty/full queue.

        The asyncio analogue of ``SimWorld.run_until_idle``: inject a
        burst (``kernel.rx_burst``), then ``await drain()`` and the
        kernel is quiescent.  Hangs on self-perpetuating loads, exactly
        like its virtual-time counterpart.
        """
        if not self._started:
            await self.start()
        while not self.idle():
            await asyncio.sleep(0)

    async def close(self) -> None:
        """Cancel every task and run the bodies' ``finally`` blocks."""
        self._closed = True
        tasks = [t.task for t in self.threads if t.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._started = False

    # -- the driver --------------------------------------------------------

    async def _drive(self, thread: AioThread) -> None:
        self._unstarted -= 1
        self._alive += 1
        thread.state = RUNNING
        body = thread.body
        send_value: Any = None
        try:
            while True:
                try:
                    op = body.send(send_value)
                except StopIteration:
                    return
                send_value = await self._perform(thread, op)
        except asyncio.CancelledError:
            body.close()
            raise
        finally:
            self._alive -= 1
            thread.state = DONE

    async def _perform(self, thread: AioThread, op: Op) -> Any:
        if isinstance(op, Compute):
            us = op.us
            thread.cpu_us += us
            if thread.path is not None:
                thread.path.charge_cycles(us * self.world.cpu.mhz)
            # Keep the world CPU's books executor-independent: the
            # simulated scheduler adds the same amount via start_compute.
            self.world.cpu.compute_us += us
            await asyncio.sleep(0)
            return None
        if isinstance(op, Dequeue):
            await self._wait_fill(thread, op.queue)
            return op.queue.dequeue()
        if isinstance(op, DequeueBatch):
            await self._wait_fill(thread, op.queue)
            return op.queue.dequeue_batch(op.limit)
        if isinstance(op, Enqueue):
            await self._wait_space(thread, op.queue)
            op.queue.enqueue(op.item)
            return None
        if isinstance(op, WaitSpace):
            await self._wait_space(thread, op.queue)
            return None
        if isinstance(op, (Sleep, _Yield)):
            await asyncio.sleep(0)
            return None
        raise TypeError(f"{thread.name} yielded unknown op {op!r}")

    # -- queue gating ------------------------------------------------------

    async def _wait_fill(self, thread: AioThread, queue: PathQueue) -> None:
        gate = self._watch(queue)
        while queue.is_empty():
            thread.state = BLOCKED
            thread.blocks += 1
            await self._park(gate.fill_waiters)
            thread.state = RUNNING
            thread.wakeups += 1

    async def _wait_space(self, thread: AioThread, queue: PathQueue) -> None:
        gate = self._watch(queue)
        while queue.is_full():
            thread.state = BLOCKED
            thread.blocks += 1
            await self._park(gate.space_waiters)
            thread.state = RUNNING
            thread.wakeups += 1

    def _watch(self, queue: PathQueue) -> _Gate:
        gate = self._gates.get(id(queue))
        if gate is None:
            gate = _Gate()
            self._gates[id(queue)] = gate
            queue.on_enqueue(lambda q, g=gate: self._wake_one(g.fill_waiters))
            queue.on_dequeue(lambda q, g=gate: self._wake_all(g.space_waiters))
        return gate

    async def _park(self, waiters: Deque["asyncio.Future"]) -> None:
        fut = self._loop.create_future()
        waiters.append(fut)
        self._parked += 1
        try:
            await fut
        finally:
            self._parked -= 1
            if getattr(fut, "_woken", False):
                self._wakes_pending -= 1

    def _resolve(self, fut: "asyncio.Future") -> None:
        fut._woken = True  # type: ignore[attr-defined]
        self._wakes_pending += 1
        fut.set_result(None)

    def _wake_one(self, waiters: Deque["asyncio.Future"]) -> None:
        # One item arrived: wake one consumer (the simulated scheduler's
        # _wake_one semantics); a spuriously woken task re-parks after
        # rechecking, so over-waking would be waste, not a bug.
        while waiters:
            fut = waiters.popleft()
            if not fut.done():
                self._resolve(fut)
                return

    def _wake_all(self, waiters: Deque["asyncio.Future"]) -> None:
        # A slot freed: wake every watcher and producer; each rechecks
        # fullness and re-parks if another producer won the slot (the
        # WaitSpace-vs-Enqueue budget dance of sched._queue_drained,
        # collapsed to recheck loops).
        while waiters:
            fut = waiters.popleft()
            if not fut.done():
                self._resolve(fut)

    # -- introspection -----------------------------------------------------

    def ready_count(self) -> int:
        return self._alive - self._parked

    def __repr__(self) -> str:
        return (f"<AioExecutor threads={len(self.threads)} "
                f"alive={self._alive} parked={self._parked}>")


class AioWorld(SimWorld):
    """A SimWorld whose spawned threads run on the asyncio executor.

    Everything else — engine, CPU model, seeded randomness, segment
    construction — is inherited unchanged, so a kernel boots onto an
    ``AioWorld`` exactly as it boots onto a ``SimWorld``; only the
    executor of its path threads differs.  The virtual-time engine still
    exists (path-create machinery and protocol timers schedule against
    it) but nothing pumps it while the asyncio executor serves: the
    wall-clock forms run headless kernels (``display=False``) whose
    correctness does not depend on timer-driven behaviour.
    """

    def __init__(self, seed: int = 0, **world_kwargs):
        super().__init__(seed=seed, **world_kwargs)
        self.executor = AioExecutor(self)

    def spawn(self, body, name: str = "", policy: str = "rr",
              priority: int = 0, path=None):
        return self.executor.spawn(body, name=name, policy=policy,
                                   priority=priority, path=path)

    def __repr__(self) -> str:
        return f"<AioWorld seed={self.seed} {self.executor!r}>"
