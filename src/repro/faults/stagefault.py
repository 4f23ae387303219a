"""Stage fault injection: misbehaving router code on a live path.

Wraps a stage's deliver functions the same way transformation rules do
(the mutable function-pointer idiom of Section 3.2), so injected faults
compose with the PA_FAULT_ISOLATION containment wrapper: a ``crash`` fault
inside an isolated path is confined to the message that hit it, exactly
like a real router bug would be.

The three modes mirror the three failure shapes the self-healing
machinery must handle:

* ``crash``  — raises :class:`InjectedFault`; with fault isolation on,
  the message dies with a ``fault_isolation`` drop note;
* ``stall``  — swallows messages with *no* drop note: the path looks
  alive (demand keeps arriving) but produces nothing — the watchdog's
  detection target;
* ``slowdown`` — correct results, ``extra_us`` more CPU per message:
  pressure for the degradation governor.
"""

from __future__ import annotations

from typing import List

from ..net.common import charge
from .plan import StageFault


class InjectedFault(RuntimeError):
    """Raised by a ``crash``-mode injected fault."""


class StageFaultInjector:
    """Applies a plan's stage faults to one path.

    Faults are window-gated on virtual time (``StageFault.start_us`` /
    ``duration_us``): outside the window the original deliver function
    runs untouched, so a single injector models transient as well as
    permanent failures.
    """

    def __init__(self, engine):
        self.engine = engine
        #: (path pid, router, mode) records of every injection performed.
        self.injected: List[tuple] = []
        # statistics
        self.crashes = 0
        self.stalls = 0
        self.slowdowns = 0

    def apply(self, path, fault: StageFault) -> None:
        """Wrap both directions of the named router's stage on *path*."""
        stage = path.stage_of(fault.router)
        for direction in (0, 1):
            original = stage.deliver_fn(direction)
            if original is None:
                continue
            stage.set_deliver(direction,
                              self._wrap(original, fault))
        self.injected.append((path.pid, fault.router, fault.mode))

    def apply_plan(self, path, plan) -> None:
        """Apply every stage fault in *plan* whose router is on *path*."""
        routers = set(path.routers())
        for fault in plan.stage_faults:
            if fault.router in routers:
                self.apply(path, fault)

    def _wrap(self, original, fault: StageFault):
        engine = self.engine

        def faulty(iface, msg, direction, **kwargs):
            if not fault.active_at(engine.now):
                return original(iface, msg, direction, **kwargs)
            if fault.mode == "crash":
                self.crashes += 1
                raise InjectedFault(
                    f"injected crash in {fault.router} at {engine.now:.0f}us")
            if fault.mode == "stall":
                # Deliberately no drop note: a hung router doesn't
                # announce itself.  Only the watchdog's flat progress
                # signature gives it away.
                self.stalls += 1
                return None
            self.slowdowns += 1
            charge(msg, fault.extra_us)
            return original(iface, msg, direction, **kwargs)

        return faulty


class QueueStormer:
    """Schedules a plan's queue-pressure storms against one path.

    At ``start_us`` the target queue's capacity is clamped to
    ``clamp_len`` (spilling everything beyond it into the overflow
    machinery under test); at the window's end the original capacity is
    restored.  Deterministic by construction — no randomness involved.
    """

    def __init__(self, engine):
        self.engine = engine
        self.storms_started = 0
        self.storms_ended = 0

    def apply_plan(self, path, plan) -> None:
        for storm in plan.storms:
            self.engine.schedule(
                max(0.0, storm.start_us - self.engine.now),
                self._start, path, storm)

    def _start(self, path, storm) -> None:
        from ..core.path import DELETED

        if path.state == DELETED:
            return
        queue = path.q[storm.queue_role]
        original = queue.maxlen
        queue.maxlen = storm.clamp_len
        self.storms_started += 1
        self.engine.schedule(storm.duration_us, self._end, path, queue,
                             original)

    def _end(self, path, queue, original) -> None:
        queue.maxlen = original
        self.storms_ended += 1
