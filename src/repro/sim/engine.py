"""Discrete-event engine: the virtual-time heart of the substrate.

All macro experiments (frame rates, interference, missed deadlines) run in
virtual time so results are deterministic and machine-independent.  Time is
measured in **microseconds** as a float; ties are broken by insertion
order (the heap holds ``(time, seq, fn, args, event)``), which keeps every
run reproducible.

Two ways in, one heap:

* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a
  cancellable :class:`Event` — for the callers that may take a timer back
  (retransmit timeouts, reassembly expiry, watchdogs);
* :meth:`Engine.call_at` carries no handle (``event`` is ``None`` in the
  entry) — for the per-hop callers that never cancel: scheduler dispatch,
  CPU completion and wire delivery.

Both draw from one sequence counter, so the event stream — which events
fire, at what virtual time, in what order — does not depend on which way
an event came in.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")


class Event:
    """A scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any],
                 args: Tuple[Any, ...]):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.3f} {getattr(self.fn, '__name__', '?')} {state}>"


class Engine:
    """A deterministic event loop over virtual microseconds."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Callable[..., Any],
                               Tuple[Any, ...], Optional[Event]]] = []
        self._seq = itertools.count()
        self.events_processed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay_us: float, fn: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``fn(*args)`` *delay_us* virtual microseconds from now."""
        if delay_us < 0:
            raise ValueError(f"cannot schedule {delay_us} us in the past")
        return self.schedule_at(self.now + delay_us, fn, *args)

    def schedule_at(self, time_us: float, fn: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual time *time_us*."""
        if time_us < self.now:
            raise ValueError(
                f"cannot schedule at {time_us} before now ({self.now})")
        event = Event(time_us, fn, args)
        heapq.heappush(self._heap,
                       (time_us, next(self._seq), fn, args, event))
        return event

    def call_at(self, time_us: float, fn: Callable[..., Any],
                *args: Any) -> None:
        """:meth:`schedule_at` without a cancel handle: the event takes
        the same place in the stream, but no :class:`Event` is built."""
        if time_us < self.now:
            raise ValueError(
                f"cannot schedule at {time_us} before now ({self.now})")
        heapq.heappush(self._heap, (time_us, next(self._seq), fn, args, None))

    # -- running ------------------------------------------------------------------

    def peek_next_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when drained."""
        heap = self._heap
        while heap and heap[0][4] is not None and heap[0][4].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Process exactly one event; returns False when none are pending.

        The wall-clock pump's single step (``SimWorld.run_ready``), kept
        apart from :meth:`_drain` so it costs one call per event."""
        heap = self._heap
        while heap:
            time, _seq, fn, args, event = heapq.heappop(heap)
            if event is not None and event.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            fn(*args)
            return True
        return False

    def run_until(self, time_us: float) -> None:
        """Process every event with time <= *time_us*, then advance the
        clock to exactly *time_us*."""
        self._drain(time_us, -1)
        if time_us > self.now:
            self.now = time_us

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event heap (bounded by *max_events* if given).

        Returns the number of events processed by this call.
        """
        return self._drain(_INF, -1 if max_events is None
                           else max(max_events, 0))

    def _drain(self, until: float, max_events: int) -> int:
        """The one event loop: fire events due at or before *until*, at
        most *max_events* of them (``-1``: no bound)."""
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap and processed != max_events and heap[0][0] <= until:
            time, _seq, fn, args, event = pop(heap)
            if event is not None and event.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            processed += 1
            fn(*args)
        return processed

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(event is None or not event.cancelled
                   for *_entry, event in self._heap)

    def __repr__(self) -> str:
        return f"<Engine now={self.now:.1f}us pending={self.pending()}>"
