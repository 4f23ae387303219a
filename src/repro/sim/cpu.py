"""The virtual CPU: a non-preemptive uniprocessor with interrupt stealing.

The paper's numbers come from a 300 MHz Alpha 21064; :data:`CPU_MHZ`
reproduces that machine's clock so costs expressed in cycles translate to
the same microseconds the paper reports.

Two kinds of work consume the CPU:

* **Thread computes** — a thread asks for N microseconds of CPU; because
  Scout threads are scheduled non-preemptively, exactly one compute is in
  flight at a time and it runs to completion.
* **Interrupts** — device events (packet arrival, vertical sync) run their
  handlers *immediately* and steal their cost from whatever compute is in
  progress, pushing its completion back.  This is the mechanism that makes
  the Linux baseline collapse under the Table 2 ICMP flood: interrupt-time
  protocol processing steals the decoder's CPU.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from .engine import Engine

#: The paper's machine: 300 MHz Alpha 21064.
CPU_MHZ = 300.0

#: Small epsilon for floating-point completion checks.
_EPS = 1e-9


def cycles_to_us(cycles: float, mhz: float = CPU_MHZ) -> float:
    """Convert a cycle count to microseconds at *mhz*."""
    return cycles / mhz


def us_to_cycles(micros: float, mhz: float = CPU_MHZ) -> float:
    """Convert microseconds to cycles at *mhz*."""
    return micros * mhz


class CPU:
    """A single virtual CPU attached to an engine.

    Accounting split three ways — compute, interrupt, idle — so
    experiments can report utilization and interrupt load directly.
    """

    def __init__(self, engine: Engine, mhz: float = CPU_MHZ):
        self.engine = engine
        self.mhz = mhz
        #: Earliest time a new compute could begin (interrupts while idle
        #: still occupy the CPU).
        self.busy_until = 0.0
        # The single in-flight thread compute: its (interrupt-inflated)
        # end, or None while no compute is in flight, and its callback.
        self._end: Optional[float] = None
        self._on_done: Optional[Callable[..., None]] = None
        self._done_args: Tuple[Any, ...] = ()
        # accounting
        self.compute_us = 0.0
        self.interrupt_us = 0.0
        self.interrupts_taken = 0

    # -- conversions -------------------------------------------------------------

    def cycles_to_us(self, cycles: float) -> float:
        return cycles / self.mhz

    # -- interrupts ---------------------------------------------------------------

    def interrupt(self, cost_us: float,
                  handler: Optional[Callable[..., Any]] = None,
                  *args: Any) -> Any:
        """Take an interrupt now: run *handler* and steal *cost_us*.

        The handler's logical effects (classification, enqueue) happen
        immediately; the *time* cost lands on whatever compute is in
        progress, or occupies the otherwise-idle CPU.
        """
        if cost_us < 0:
            raise ValueError("interrupt cost must be non-negative")
        result = handler(*args) if handler is not None else None
        self.interrupts_taken += 1
        self.extend_interrupt(cost_us)
        return result

    def extend_interrupt(self, cost_us: float) -> None:
        """Charge additional interrupt-level CPU time without counting a
        new interrupt — used by handlers whose cost depends on what they
        find (e.g. classification hops)."""
        if cost_us < 0:
            raise ValueError("interrupt cost must be non-negative")
        self.interrupt_us += cost_us
        if self._end is not None:
            self._end += cost_us  # steal from the running thread
        else:
            start = max(self.busy_until, self.engine.now)
            self.busy_until = start + cost_us

    # -- thread computes -------------------------------------------------------------

    @property
    def computing(self) -> bool:
        return self._end is not None

    def start_compute(self, cost_us: float, on_done: Callable[..., None],
                      *args: Any) -> None:
        """Begin a thread compute of *cost_us*; calls ``on_done(*args)``
        when the CPU has actually delivered that much time
        (interrupt-inflated)."""
        if cost_us < 0:
            raise ValueError("compute cost must be non-negative")
        if self._end is not None:
            raise RuntimeError("non-preemptive CPU already has a compute in flight")
        engine = self.engine
        end = max(engine.now, self.busy_until) + cost_us
        self._end = end
        self._on_done = on_done
        self._done_args = args
        self.compute_us += cost_us
        engine.call_at(end, self._completion_check)

    def _completion_check(self) -> None:
        # At most one check is pending, and only while a compute is in
        # flight: the one armed at its start, or its re-arm below.
        end = self._end
        engine = self.engine
        if engine.now + _EPS < end:
            # Interrupts pushed the end back: check again then.
            engine.call_at(end, self._completion_check)
            return
        on_done, args = self._on_done, self._done_args
        self._end = self._on_done = None
        self._done_args = ()
        self.busy_until = engine.now
        on_done(*args)

    # -- reporting -------------------------------------------------------------------

    def utilization(self, elapsed_us: Optional[float] = None) -> float:
        """Fraction of elapsed virtual time spent computing or in
        interrupts (1.0 = saturated)."""
        window = elapsed_us if elapsed_us is not None else self.engine.now
        if window <= 0:
            return 0.0
        return min(1.0, (self.compute_us + self.interrupt_us) / window)

    def __repr__(self) -> str:
        state = "busy" if self.computing else "idle"
        return (f"<CPU {self.mhz:.0f}MHz {state} "
                f"compute={self.compute_us:.0f}us "
                f"irq={self.interrupt_us:.0f}us>")
