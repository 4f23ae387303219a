"""Scheduling policies and the non-preemptive scheduler.

Section 3.4: "Scout supports an arbitrary number of scheduling policies,
and allocates a percentage of CPU time to each.  The minimum share that
each policy gets is determined by a system-tunable parameter.  Two
scheduling policies have been implemented to date: (1) fixed-priority
round-robin, and (2) earliest-deadline first (EDF)."

Both policies are implemented here, plus the share mechanism: the
scheduler picks among policies with ready threads by smallest
share-weighted virtual time (a stride-scheduler), which converges to the
configured CPU percentages whenever multiple policies compete.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..core.queues import PathQueue
from .cpu import CPU
from .engine import Engine
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
    SimThread,
    ThreadBody,
    WaitSpace,
    _Yield,
)


class Policy:
    """A ready-queue discipline."""

    def add(self, thread: SimThread) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[SimThread]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FixedPriorityRR(Policy):
    """Fixed-priority round-robin: strict priority between levels
    (lower number = higher priority), FIFO within a level."""

    def __init__(self, levels: int = 16):
        if levels < 1:
            raise ValueError("need at least one priority level")
        self.levels = levels
        self._queues: List[Deque[SimThread]] = [deque() for _ in range(levels)]
        self._count = 0

    def add(self, thread: SimThread) -> None:
        level = min(max(thread.priority, 0), self.levels - 1)
        self._queues[level].append(thread)
        self._count += 1

    def pop(self) -> Optional[SimThread]:
        for queue in self._queues:
            if queue:
                self._count -= 1
                return queue.popleft()
        return None

    def __len__(self) -> int:
        return self._count


class EDF(Policy):
    """Earliest-deadline-first: the policy Scout uses for realtime MPEG
    paths (Section 4.3)."""

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._seq = itertools.count()

    def add(self, thread: SimThread) -> None:
        heapq.heappush(self._heap, (thread.deadline, next(self._seq), thread))

    def pop(self) -> Optional[SimThread]:
        if not self._heap:
            return None
        _deadline, _seq, thread = heapq.heappop(self._heap)
        return thread

    def __len__(self) -> int:
        return len(self._heap)


class _PolicySlot:
    __slots__ = ("policy", "share", "vtime")

    def __init__(self, policy: Policy, share: float):
        self.policy = policy
        self.share = share
        self.vtime = 0.0  # share-weighted CPU consumed


class Scheduler:
    """The non-preemptive thread scheduler.

    One thread runs at a time; it keeps the CPU until it blocks, yields,
    or finishes.  Wakeups go through the path's ``wakeup`` callback first
    so a path can impose its scheduling requirements on the thread about
    to run on its behalf.
    """

    def __init__(self, engine: Engine, cpu: CPU):
        self.engine = engine
        self.cpu = cpu
        self._slots: Dict[str, _PolicySlot] = {}
        self.current: Optional[SimThread] = None
        self._dispatch_pending = False
        self._deq_waiters: Dict[int, Deque[SimThread]] = {}
        self._enq_waiters: Dict[int, Deque[SimThread]] = {}
        self._watched_queues: set = set()
        self.context_switches = 0
        self.threads_spawned = 0

    # -- policy management ---------------------------------------------------

    def add_policy(self, name: str, policy: Policy, share: float = 1.0) -> None:
        if share <= 0:
            raise ValueError("policy share must be positive")
        self._slots[name] = _PolicySlot(policy, share)

    def policy(self, name: str) -> Policy:
        return self._slots[name].policy

    # -- thread management ------------------------------------------------------

    def spawn(self, body: ThreadBody, name: str = "", policy: str = "rr",
              priority: int = 0, path=None) -> SimThread:
        """Create a thread and make it runnable."""
        if policy not in self._slots:
            raise KeyError(f"no scheduling policy named {policy!r}")
        thread = SimThread(body, name=name, policy=policy,
                           priority=priority, path=path)
        self.threads_spawned += 1
        self.make_runnable(thread)
        return thread

    def make_runnable(self, thread: SimThread, *, floor: bool = True) -> None:
        """Wake *thread*: run its path's wakeup callback, then enqueue it
        on its policy's ready queue."""
        if thread.state in (DONE, READY, RUNNING):
            return  # finished, already queued, or already on the CPU
        if thread.path is not None and thread.path.wakeup is not None:
            thread.path.wakeup(thread.path, thread)
        slot = self._slots[thread.policy]
        # A policy that slept must not carry stale credit: advance its
        # virtual time to the busiest competitor's so shares stay fair.
        # The RUNNING thread's slot counts as a competitor even though its
        # ready queue is momentarily empty — otherwise a policy waking
        # opposite a lone compute-bound thread keeps its stale (low)
        # virtual time and monopolizes the CPU until it catches up.
        # The floor is for policies waking from *idle* only: a yielding
        # thread's policy never left the competition, and its low virtual
        # time is earned priority, not stale credit (``floor=False``).
        if floor:
            active = [s.vtime for s in self._slots.values() if len(s.policy)]
            if self.current is not None and self.current.state == RUNNING:
                active.append(self._slots[self.current.policy].vtime)
            if active:
                slot.vtime = max(slot.vtime, min(active))
        thread.state = READY
        thread.wakeups += 1
        slot.policy.add(thread)
        self._request_dispatch()

    # -- dispatch loop ----------------------------------------------------------

    def _request_dispatch(self) -> None:
        if self._dispatch_pending or self.current is not None:
            return
        self._dispatch_pending = True
        when = max(self.engine.now, self.cpu.busy_until)
        self.engine.schedule_at(when, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if self.current is not None:
            return
        slot = self._pick_policy()
        if slot is None:
            return
        thread = slot.policy.pop()
        if thread is None:
            return
        self.current = thread
        thread.state = RUNNING
        self.context_switches += 1
        if thread.pending_op is not None:
            op, thread.pending_op = thread.pending_op, None
            self._handle_op(thread, op)
        else:
            self._step(thread, None)

    def _pick_policy(self) -> Optional[_PolicySlot]:
        best: Optional[_PolicySlot] = None
        for slot in self._slots.values():
            if not len(slot.policy):
                continue
            if best is None or slot.vtime < best.vtime:
                best = slot
        return best

    # -- thread stepping -----------------------------------------------------------

    def _step(self, thread: SimThread, send_value: Any) -> None:
        """Advance *thread* until it blocks, computes, yields, or ends."""
        try:
            op = thread.body.send(send_value)
        except StopIteration:
            self._finish(thread)
            return
        self._handle_op(thread, op)

    def _finish(self, thread: SimThread) -> None:
        thread.state = DONE
        if self.current is thread:
            self.current = None
        self._request_dispatch()

    def _handle_op(self, thread: SimThread, op: Op) -> None:
        while True:
            if isinstance(op, Compute):
                self._start_compute(thread, op)
                return
            if isinstance(op, Dequeue):
                if op.queue.is_empty():
                    self._block(thread, op, self._deq_waiters)
                    return
                next_op = self._advance(thread, op.queue.dequeue())
            elif isinstance(op, DequeueBatch):
                if op.queue.is_empty():
                    self._block(thread, op, self._deq_waiters)
                    return
                # One scheduler operation moves the whole run: the thread
                # paid one wakeup and one dispatch for up to `limit` items.
                next_op = self._advance(thread,
                                        op.queue.dequeue_batch(op.limit))
            elif isinstance(op, Enqueue):
                if op.queue.is_full():
                    self._block(thread, op, self._enq_waiters)
                    return
                op.queue.enqueue(op.item)
                next_op = self._advance(thread, None)
            elif isinstance(op, WaitSpace):
                if op.queue.is_full():
                    self._block(thread, op, self._enq_waiters)
                    return
                next_op = self._advance(thread, None)
            elif isinstance(op, Sleep):
                self._sleep(thread, op.us)
                return
            elif isinstance(op, _Yield):
                self._yield_cpu(thread)
                return
            else:
                raise TypeError(f"{thread.name} yielded unknown op {op!r}")
            if next_op is _STOPPED:
                return
            op = next_op

    #: Sentinel: the generator finished while being advanced inline.
    # (module-private; compared by identity)

    def _advance(self, thread: SimThread, send_value: Any):
        try:
            return thread.body.send(send_value)
        except StopIteration:
            self._finish(thread)
            return _STOPPED

    def _start_compute(self, thread: SimThread, op: Compute) -> None:
        slot = self._slots[thread.policy]
        slot.vtime += op.us / slot.share
        thread.cpu_us += op.us
        if thread.path is not None:
            thread.path.charge_cycles(op.us * self.cpu.mhz)

        def done() -> None:
            if thread.state == RUNNING:
                self._step(thread, None)

        self.cpu.start_compute(op.us, done)

    def _block(self, thread: SimThread, op: Op,
               waiters: Dict[int, Deque[SimThread]]) -> None:
        queue: PathQueue = op.queue  # type: ignore[attr-defined]
        self._watch(queue)
        thread.state = BLOCKED
        thread.pending_op = op
        thread.blocks += 1
        waiters.setdefault(id(queue), deque()).append(thread)
        if self.current is thread:
            self.current = None
        self._request_dispatch()

    def _sleep(self, thread: SimThread, us: float) -> None:
        thread.state = BLOCKED
        if self.current is thread:
            self.current = None
        self.engine.schedule(us, self.make_runnable, thread)
        self._request_dispatch()

    def _yield_cpu(self, thread: SimThread) -> None:
        if self.current is thread:
            self.current = None
        thread.state = BLOCKED  # so make_runnable re-queues it
        self.make_runnable(thread, floor=False)
        self._request_dispatch()

    # -- queue wake plumbing -----------------------------------------------------------

    def _watch(self, queue: PathQueue) -> None:
        if id(queue) in self._watched_queues:
            return
        self._watched_queues.add(id(queue))
        queue.on_enqueue(self._queue_filled)
        queue.on_dequeue(self._queue_drained)

    def _queue_filled(self, queue: PathQueue) -> None:
        self._wake_one(self._deq_waiters.get(id(queue)))

    def _queue_drained(self, queue: PathQueue) -> None:
        waiters = self._enq_waiters.get(id(queue))
        if not waiters:
            return
        # Space waiters are of two kinds: WaitSpace watchers, which
        # consume nothing, and Enqueue waiters, which each need a free
        # slot.  Waking exactly one waiter per drain loses a wake-up
        # whenever a watcher sits ahead of an enqueuer — the watcher
        # absorbs the only wake and the enqueuer blocks forever.  Wake
        # every watcher, plus as many enqueuers as there are free slots,
        # keeping the rest in FIFO order.  (An overwoken enqueuer re-blocks
        # harmlessly at dispatch, so the budget is an efficiency bound,
        # not a correctness one.)
        budget = queue.free_slots
        kept: Deque[SimThread] = deque()
        while waiters:
            thread = waiters.popleft()
            if isinstance(thread.pending_op, Enqueue) \
                    and budget is not None:
                if budget <= 0:
                    kept.append(thread)
                    continue
                budget -= 1
            self.make_runnable(thread)
        waiters.extend(kept)

    def _wake_one(self, waiters: Optional[Deque[SimThread]]) -> None:
        if waiters:
            self.make_runnable(waiters.popleft())

    # -- introspection ---------------------------------------------------------------------

    def ready_count(self) -> int:
        return sum(len(slot.policy) for slot in self._slots.values())

    def idle(self) -> bool:
        """True when every thread is blocked or done.  O(1): a READY
        thread always has a dispatch pending or a thread on the CPU
        ahead of it (``make_runnable`` ends in ``_request_dispatch``)."""
        return self.current is None and not self._dispatch_pending

    def __repr__(self) -> str:
        running = self.current.name if self.current else "-"
        return (f"<Scheduler running={running} ready={self.ready_count()} "
                f"switches={self.context_switches}>")


class _Stopped:
    def __repr__(self) -> str:  # pragma: no cover
        return "<thread stopped>"


_STOPPED = _Stopped()
