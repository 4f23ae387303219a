"""Spans recorded from the benchmark's side of each layer boundary.

The tracer never touches ``src/``: :func:`wrap` shadows a *bound method on
one instance* (``kernel.rx_burst``, ``path.deliver_batch``, ...) with a
wrapper that opens and closes a span around the call.  The program under
test is otherwise unchanged, so the traced pass runs the same code as the
untraced one plus the wrappers; ``trace.overhead_share`` reports what they
cost.

Attribution model.  The process has one thread, so every instant of a
measured window belongs to exactly one bucket: the innermost span open at
that instant, or ``RESIDUE`` when none is.  A span's *self time* is thus
its duration minus whatever its children (spans opened while it is open)
cover.  On the socket workloads spans of different asyncio tasks
interleave rather than nest; "innermost" then means "opened most
recently", which keeps the buckets a partition of the window, so the
layers sum to the whole by construction.
"""

from __future__ import annotations

import asyncio
import collections.abc
import inspect
import selectors
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

RESIDUE = "residue"


class Tracer:
    """Self-time, call and unit books per span name."""

    def __init__(self) -> None:
        self._clock = time.perf_counter_ns
        self._open: List[str] = []          # innermost last
        self._mark: Optional[int] = None    # None: no measured window open
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.units: Dict[str, int] = defaultdict(int)
        # Queue wait: hand-off (end of an rx span) to pick-up (start of the
        # path span that drains it), weighted by messages picked up.
        self._handoff: Optional[int] = None
        self.wait_ns = 0
        self.wait_units = 0

    # -- measured windows ---------------------------------------------------

    def open_window(self) -> None:
        self._mark = self._clock()

    def close_window(self) -> None:
        self._charge(self._clock())
        self._mark = None

    @property
    def wall_ns(self) -> int:
        return sum(self.self_ns.values())

    def coverage(self) -> float:
        wall = self.wall_ns
        return 1.0 - self.self_ns[RESIDUE] / wall if wall else 0.0

    # -- spans --------------------------------------------------------------

    def _charge(self, now: int) -> None:
        mark = self._mark
        if mark is not None:
            bucket = self._open[-1] if self._open else RESIDUE
            self.self_ns[bucket] += now - mark
            self._mark = now

    def enter(self, name: str) -> int:
        now = self._clock()
        self._charge(now)
        self._open.append(name)
        return now

    def exit(self, name: str, start: int, units: Optional[int] = 1) -> int:
        """Close a span; ``units=None`` charges its time to *name* without
        counting a call (a second entry point into the same layer)."""
        now = self._clock()
        self._charge(now)
        # Usually the top of the stack; asyncio tasks close out of order.
        for index in range(len(self._open) - 1, -1, -1):
            if self._open[index] == name:
                del self._open[index]
                break
        if self._mark is not None and units is not None:
            self.calls[name] += 1
            self.units[name] += units
        return now

    def handoff(self, now: int) -> None:
        self._handoff = now

    def pickup(self, now: int, units: int) -> None:
        if self._handoff is not None and self._mark is not None:
            self.wait_ns += (now - self._handoff) * units
            self.wait_units += units

    # -- reading ------------------------------------------------------------

    def self_us_per(self, name: str, frames: int) -> Optional[float]:
        """Self time of *name* per frame, or ``None`` if it never ran."""
        if name not in self.calls or not frames:
            return None
        return self.self_ns[name] / 1e3 / frames

    def units_per_call(self, name: str) -> Optional[float]:
        calls = self.calls.get(name)
        return self.units[name] / calls if calls else None


def wrap(tracer: Tracer, obj: Any, attr: str, name: str,
         units: Optional[Callable[[tuple, Any], int]] = None,
         role: str = "") -> bool:
    """Shadow ``obj.attr`` on the instance with a span-recording wrapper.

    *units* maps ``(args, result)`` to how many frames the call handled
    (default 1).  *role* ``"rx"`` marks the call's end as a queue hand-off
    and ``"path"`` marks its start as the pick-up.  Returns ``False``,
    changing nothing, when the instance has no such method — a later PR
    may delete a batch shape or an executor and the trace must survive it.
    """
    fn = getattr(obj, attr, None)
    if fn is None:
        return False

    def finish(start: int, args: tuple, result: Any) -> None:
        count = units(args, result) if units is not None else 1
        if role == "path":
            tracer.pickup(start, count)
        end = tracer.exit(name, start, count)
        if role == "rx":
            tracer.handoff(end)

    if inspect.iscoroutinefunction(fn):
        async def traced(*args, **kwargs):
            start = tracer.enter(name)
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                finish(start, args, result)
    else:
        def traced(*args, **kwargs):
            start = tracer.enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finish(start, args, result)

    setattr(obj, attr, traced)
    return True


class StepSpans(collections.abc.Coroutine):
    """One asyncio task's coroutine, with every step the event loop gives
    it recorded as a span.

    The asyncio executor runs each path thread as a task and ``serve()`` is
    a task too; what they do *between* the public calls (op dispatch, gate
    parking, the pump loop) is only visible as the part of a task step its
    child spans do not cover.  *owner* is looked up per step, so the proxy
    passes straight through until ``owner.tracer`` is set.
    """

    def __init__(self, coro: Any, owner: Any, name: str):
        self._coro = coro
        self._owner = owner
        self._name = name

    def send(self, value: Any) -> Any:
        tracer = self._owner.tracer
        if tracer is None:
            return self._coro.send(value)
        start = tracer.enter(self._name)
        try:
            return self._coro.send(value)
        finally:
            tracer.exit(self._name, start)

    def throw(self, *args: Any) -> Any:
        return self._coro.throw(*args)

    def close(self) -> None:
        self._coro.close()

    def __await__(self):
        return self


class SpanSelector(selectors.DefaultSelector):
    """The event loop's selector, with every ``select()`` a span: the time
    the loop spends polling (or blocked in) the OS between callbacks.  Same
    pass-through rule as :class:`StepSpans`."""

    owner: Any = None

    def select(self, timeout: Optional[float] = None):
        tracer = getattr(self.owner, "tracer", None)
        if tracer is None:
            return super().select(timeout)
        start = tracer.enter("api.serve.select")
        try:
            return super().select(timeout)
        finally:
            tracer.exit("api.serve.select", start)


def run_traced(main: Any, owner: Any) -> Any:
    """``asyncio.run(main)`` on a loop whose selector records spans."""
    selector = SpanSelector()
    selector.owner = owner
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    try:
        return loop.run_until_complete(main)
    finally:
        asyncio.set_event_loop(None)
        loop.close()


def first_arg_len(args: tuple, result: Any) -> int:
    """Units for ``rx_burst(frames)`` / ``deliver_batch(msgs)``."""
    return len(args[0]) if args else 1


def result_len(args: tuple, result: Any) -> int:
    """Units for ``next_burst() -> frames``."""
    return len(result) if result else 0


def wrap_path(tracer: Tracer, path: Any, name: str) -> None:
    """Span every entry into *path*: scalar, batched and mid-path."""
    wrap(tracer, path, "deliver", name, role="path")
    wrap(tracer, path, "deliver_batch", name, units=first_arg_len,
         role="path")
    wrap(tracer, path, "inject_at", name, role="path")
