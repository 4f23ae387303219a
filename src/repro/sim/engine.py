"""Discrete-event engine: the virtual-time heart of the substrate.

All macro experiments (frame rates, interference, missed deadlines) run in
virtual time so results are deterministic and machine-independent.  Time is
measured in **microseconds** as a float; ties are broken by insertion
order (the heap holds ``(time, seq, event)``), which keeps every run
reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


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
        self._heap: List[Tuple[float, int, Event]] = []
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
        heapq.heappush(self._heap, (time_us, next(self._seq), event))
        return event

    # -- running ------------------------------------------------------------------

    def peek_next_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or None when drained."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Process exactly one event; returns False when none are pending."""
        while self._heap:
            time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
            self.events_processed += 1
            event.fn(*event.args)
            return True
        return False

    def run_until(self, time_us: float) -> None:
        """Process every event with time <= *time_us*, then advance the
        clock to exactly *time_us*."""
        while True:
            next_time = self.peek_next_time()
            if next_time is None or next_time > time_us:
                break
            self.step()
        if time_us > self.now:
            self.now = time_us

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the event heap (bounded by *max_events* if given).

        Returns the number of events processed by this call.
        """
        processed = 0
        while max_events is None or processed < max_events:
            if not self.step():
                break
            processed += 1
        return processed

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(not event.cancelled for _t, _s, event in self._heap)

    def __repr__(self) -> str:
        return f"<Engine now={self.now:.1f}us pending={self.pending()}>"
