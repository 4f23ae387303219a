"""Path queues.

Section 3.2: "The four path queues are stored in q.  These queues are
generic in the sense that the queuing discipline is unspecified.  The two
properties that are defined for any such queue is the current length and
the maximum length."

:class:`PathQueue` is that generic bounded queue.  The default discipline
is FIFO; :class:`LifoPathQueue` demonstrates that the discipline really is
pluggable.  Queues keep the statistics the demonstration application needs
(drops, high watermark, totals) and support listeners so the simulation's
thread layer can block/wake on empty/full transitions without the core
depending on the simulator.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional

from .errors import QueueFullError

#: Queue roles within a path's ``q[4]`` array: input/output for the
#: forward direction, input/output for the backward direction.
FWD_IN, FWD_OUT, BWD_IN, BWD_OUT = range(4)

QUEUE_ROLE_NAMES = ("fwd_in", "fwd_out", "bwd_in", "bwd_out")


class PathQueue:
    """A bounded queue decoupling path execution from arrival/departure.

    Parameters
    ----------
    maxlen:
        Maximum length (number of messages).  ``None`` means unbounded,
        which the demonstration paths never use but tests may.
    name:
        Diagnostic label, e.g. ``"video0.fwd_in"``.
    """

    def __init__(self, maxlen: Optional[int] = 32, name: str = ""):
        if maxlen is not None and maxlen < 0:
            raise ValueError("maxlen must be non-negative or None")
        self.maxlen = maxlen
        self.name = name
        #: Reason reported to drop listeners when :meth:`try_enqueue`
        #: rejects an item.  Harnesses that need overflow drops told apart
        #: from organic ones (e.g. adversarial injection) override this so
        #: the drop trail carries the distinction without re-deriving it.
        self.overflow_reason = "overflow"
        self._items: Deque[Any] = deque()
        # statistics
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.high_watermark = 0
        #: The item most recently enqueued / dequeued, so listeners (which
        #: receive only the queue) can identify the message that moved.
        self.last_enqueued: Any = None
        self.last_dequeued: Any = None
        self._enqueue_listeners: List[Callable[["PathQueue"], None]] = []
        self._dequeue_listeners: List[Callable[["PathQueue"], None]] = []
        self._drop_listeners: List[Callable[["PathQueue", Any, str], None]] = []

    # -- the two defined properties -----------------------------------------

    def __len__(self) -> int:
        """Current length."""
        return len(self._items)

    @property
    def capacity(self) -> Optional[int]:
        """Maximum length (``None`` = unbounded)."""
        return self.maxlen

    # -- state predicates -----------------------------------------------------

    def is_full(self) -> bool:
        return self.maxlen is not None and len(self._items) >= self.maxlen

    def is_empty(self) -> bool:
        return not self._items

    @property
    def free_slots(self) -> Optional[int]:
        """Open slots, which MFLOW advertises as its window (Section 4.2)."""
        if self.maxlen is None:
            return None
        return self.maxlen - len(self._items)

    # -- queue discipline (overridable) -----------------------------------------

    def _insert(self, item: Any) -> None:
        self._items.append(item)

    def _remove(self) -> Any:
        return self._items.popleft()

    # -- operations ---------------------------------------------------------------

    def try_enqueue(self, item: Any) -> bool:
        """Enqueue *item*; return False (counting a drop) when full."""
        depth = len(self._items) + 1
        if self.maxlen is not None and depth > self.maxlen:
            self.dropped += 1
            for listener in self._drop_listeners:
                listener(self, item, self.overflow_reason)
            return False
        self._insert(item)
        self.enqueued += 1
        self.last_enqueued = item
        if depth > self.high_watermark:
            self.high_watermark = depth
        for listener in self._enqueue_listeners:
            listener(self)
        return True

    def enqueue(self, item: Any) -> None:
        """Enqueue *item*, raising :class:`QueueFullError` when full."""
        if not self.try_enqueue(item):
            raise QueueFullError(f"queue {self.name or '?'} is full "
                                 f"({len(self._items)}/{self.maxlen})")

    def dequeue(self) -> Any:
        """Remove and return the next item (raises ``IndexError`` if empty)."""
        item = self._remove()
        self.dequeued += 1
        self.last_dequeued = item
        for listener in self._dequeue_listeners:
            listener(self)
        return item

    def try_dequeue(self) -> Optional[Any]:
        """Remove and return the next item, or ``None`` when empty."""
        if self.is_empty():
            return None
        return self.dequeue()

    def peek(self) -> Any:
        """Return the next item without removing it."""
        return self._items[0]

    # -- batch operations ---------------------------------------------------

    def dequeue_batch(self, limit: Optional[int] = None) -> List[Any]:
        """Remove and return up to *limit* items (all queued when ``None``).

        Order follows the queue discipline — a
        :class:`DeadlineOrderedQueue` drains in deadline order, item by
        item.  Statistics and dequeue listeners stay exact per item, so
        blocked-producer wakeups and queue-wait spans are indistinguishable
        from *limit* individual dequeues; the caller's scheduler interaction
        is what collapses to one operation per batch.
        """
        run = len(self._items)
        return [self.dequeue()
                for _ in range(run if limit is None else min(limit, run))]

    def drain(self, reason: str = "cleared") -> List[Any]:
        """Discard everything queued and return the discarded items.

        Each item counts as a drop and fires the drop listeners, so
        observers can close queue-wait spans and drop accounting stays
        consistent with :meth:`try_enqueue` rejections — a queue can
        never lose messages without the drop trail saying why.
        """
        items = list(self._items)
        self._items.clear()
        self.dropped += len(items)
        if self._drop_listeners:
            for item in items:
                for listener in self._drop_listeners:
                    listener(self, item, reason)
        return items

    def clear(self, reason: str = "cleared") -> int:
        """Drop everything queued; returns how many items were discarded."""
        return len(self.drain(reason))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    # -- listeners ---------------------------------------------------------------

    def on_enqueue(self, fn: Callable[["PathQueue"], None]) -> None:
        """Register *fn* to run after every successful enqueue."""
        self._enqueue_listeners.append(fn)

    def on_dequeue(self, fn: Callable[["PathQueue"], None]) -> None:
        """Register *fn* to run after every dequeue."""
        self._dequeue_listeners.append(fn)

    def on_drop(self, fn: Callable[["PathQueue", Any, str], None]) -> None:
        """Register ``fn(queue, item, reason)`` to run for every discarded
        item: overflow rejections and :meth:`drain`/:meth:`clear`."""
        self._drop_listeners.append(fn)

    def __repr__(self) -> str:
        cap = "inf" if self.maxlen is None else str(self.maxlen)
        return (f"<PathQueue {self.name or '?'} {len(self._items)}/{cap} "
                f"drops={self.dropped}>")


class LifoPathQueue(PathQueue):
    """LIFO discipline — exists to demonstrate discipline pluggability."""

    def _remove(self) -> Any:
        return self._items.pop()


class DeadlineOrderedQueue(PathQueue):
    """A queue that dequeues the item with the earliest deadline.

    Items must expose a ``deadline`` attribute or be ``(deadline, item)``
    tuples.  Used by display output queues when frames can arrive out of
    presentation order (non-ALF packetization ablation).
    """

    @staticmethod
    def _deadline_of(item: Any) -> float:
        if isinstance(item, tuple):
            return item[0]
        return getattr(item, "deadline", 0.0)

    def _remove(self) -> Any:
        best_index = 0
        best = self._deadline_of(self._items[0])
        for index, item in enumerate(self._items):
            when = self._deadline_of(item)
            if when < best:
                best = when
                best_index = index
        self._items.rotate(-best_index)
        item = self._items.popleft()
        self._items.rotate(best_index)
        return item
