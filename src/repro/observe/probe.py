"""Profiling probes: wiring the tracer and metrics onto live paths.

Instrumentation follows the paper's invariant model: whether a path is
observed is decided *at path-create time* by the ``PA_TRACE`` attribute
(:mod:`repro.core.attributes`).  When the attribute's value is an
:class:`Observatory`, phase 5 of ``path_create`` calls its
``instrument()`` hook, which

* installs a :class:`PathObserver` as ``path.observer`` — the single
  slot the core hot paths check (one attribute test when tracing is off,
  which is the entire disabled-mode overhead);
* wraps every stage's deliver functions so each stage traversal becomes a
  span whose weight is the CPU cost that stage declared;
* subscribes to all four path queues' enqueue/dequeue/drop listeners so
  every queued message gets a queue-wait span and the occupancy gauges
  and histograms stay current;
* collects its message, cycle and drop series from ``path.stats`` and
  each queue's ``dropped`` — the books the path already keeps.

Everything is per-path: untraced paths sharing the same kernel keep their
bare hot path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .. import params
from ..core.queues import PathQueue, QUEUE_ROLE_NAMES
from ..core.stage import DIRECTION_NAMES
from .metrics import MetricsRegistry
from .trace import (
    DEMUX,
    DROP,
    INCIDENT,
    QUEUE_WAIT,
    STAGE,
    TRAVERSAL,
    TraceRecorder,
)

#: Key under which stages accumulate CPU cost on a message (the
#: convention shared with :mod:`repro.net.common`; redeclared here so the
#: observability layer does not depend on the networking package).
COST_KEY = "cost_us"

#: Histogram bounds for deadline slack, which is legitimately negative
#: when a frame arrives after its presentation instant.
SLACK_BOUNDS = (-1_000_000.0, -100_000.0, -10_000.0, 0.0,
                10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0)

#: Histogram bounds for queue depth.
DEPTH_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class Observatory:
    """One recorder + one registry, shared by every path it instruments.

    Parameters
    ----------
    clock:
        Virtual clock: an engine-like object with ``now`` or a callable.
    capacity:
        Span ring-buffer retention.
    """

    def __init__(self, clock: Any, capacity: int = 65536):
        self.recorder = TraceRecorder(clock, capacity=capacity)
        self.metrics = MetricsRegistry()
        self.observers: Dict[int, "PathObserver"] = {}

    def instrument(self, path: Any) -> "PathObserver":
        """Attach tracing + metrics to *path* (idempotent)."""
        existing = getattr(path, "observer", None)
        if isinstance(existing, PathObserver):
            return existing
        observer = PathObserver(self, path)
        observer.attach()
        self.observers[path.pid] = observer
        return observer

    def incident(self, kind_label: str, path: Any = None,
                 detail: Optional[str] = None) -> None:
        """Record an out-of-band incident (watchdog stall, governor step)."""
        alias = self.recorder.alias_for(path) if path is not None else "-"
        self.recorder.point(INCIDENT, kind_label, alias, detail=detail)
        self.metrics.counter("incidents_total", type=kind_label).inc()

    def __repr__(self) -> str:
        return (f"<Observatory paths={len(self.observers)} "
                f"spans={len(self.recorder)} series={len(self.metrics)}>")


class PathObserver:
    """Per-path instrumentation context installed as ``path.observer``.

    The core hot paths call the ``begin_*``/``end_*``/``on_*`` methods
    below; everything else is internal wiring.
    """

    def __init__(self, observatory: Observatory, path: Any):
        self.observatory = observatory
        self.recorder = observatory.recorder
        self.metrics = observatory.metrics
        self.path = path
        self.alias = self.recorder.alias_for(path)
        metrics = self.metrics
        alias = self.alias
        # Pre-created series so hot-path hooks never pay the registry probe.
        self._injection_counter = metrics.counter("path_injections_total",
                                                  path=alias)
        self._demux_counter = metrics.counter("path_demux_total", path=alias)
        self._demux_hops = metrics.histogram(
            "path_demux_hops", bounds=(1, 2, 3, 4, 6, 8), path=alias)
        metrics.collect(self._books)

    def _books(self):
        """Messages, cycles and drops as the path and its queues count."""
        stats, alias = self.path.stats, self.alias
        yield ("path_messages_total", {"path": alias, "direction": "FWD"},
               stats.messages_fwd)
        yield ("path_messages_total", {"path": alias, "direction": "BWD"},
               stats.messages_bwd)
        yield "path_cycles_total", {"path": alias}, stats.cycles
        for category, count in stats.drop_reasons.items():
            yield ("path_drops_total", {"path": alias, "category": category},
                   count)
        for role, queue in enumerate(self.path.q):
            yield ("queue_drops_total",
                   {"path": alias, "queue": QUEUE_ROLE_NAMES[role]},
                   queue.dropped)

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach(self) -> None:
        self.path.observer = self
        for stage in self.path.stages:
            for direction in (0, 1):
                self._wrap_stage(stage, direction)
        for role, queue in enumerate(self.path.q):
            self._hook_queue(queue, QUEUE_ROLE_NAMES[role])

    def _wrap_stage(self, stage: Any, direction: int) -> None:
        label = f"{stage.router.name}.{DIRECTION_NAMES[direction]}"
        recorder = self.recorder
        alias = self.alias
        direction_name = DIRECTION_NAMES[direction]
        cost_counter = self.metrics.counter("stage_cost_us_total",
                                            path=alias, stage=label)
        hit_counter = self.metrics.counter("stage_traversals_total",
                                           path=alias, stage=label)

        def wrapper(inner):
            def traced(iface, msg, d, **kwargs):
                meta = getattr(msg, "meta", None)
                before = meta.get(COST_KEY, 0.0) if meta is not None else 0.0
                span = recorder.begin(STAGE, label, alias, direction_name)
                try:
                    return inner(iface, msg, d, **kwargs)
                finally:
                    after = meta.get(COST_KEY, 0.0) if meta is not None \
                        else 0.0
                    recorder.end(span, total_cost_us=after - before)
                    # span.cost_us is exclusive (self time) after end(),
                    # so the counter agrees with the flamegraph weights.
                    cost_counter.inc(span.cost_us)
                    hit_counter.inc()
            return traced

        stage.wrap_deliver(direction, wrapper)

    def _hook_queue(self, queue: PathQueue, role_name: str) -> None:
        recorder = self.recorder
        alias = self.alias
        depth_gauge = self.metrics.gauge("queue_depth", path=alias,
                                         queue=role_name)
        depth_hist = self.metrics.histogram("queue_depth_at_enqueue",
                                            bounds=DEPTH_BOUNDS, path=alias,
                                            queue=role_name)
        wait_hist = self.metrics.histogram("queue_wait_us", path=alias,
                                           queue=role_name)

        def on_enqueue(q: PathQueue) -> None:
            depth = len(q)
            depth_gauge.set(depth)
            depth_hist.observe(depth)
            item = q.last_enqueued
            if item is not None:
                recorder.open((id(q), id(item)), QUEUE_WAIT, role_name, alias)

        def on_dequeue(q: PathQueue) -> None:
            depth_gauge.set(len(q))
            item = q.last_dequeued
            if item is not None:
                span = recorder.close((id(q), id(item)))
                if span is not None:
                    wait_hist.observe(span.cost_us)

        def on_drop(q: PathQueue, item: Any, reason: str) -> None:
            depth_gauge.set(len(q))
            recorder.close((id(q), id(item)), detail=f"dropped:{reason}")

        queue.on_enqueue(on_enqueue)
        queue.on_dequeue(on_dequeue)
        queue.on_drop(on_drop)

    def watch_sink(self, sink: Any) -> None:
        """Record deadline slack: how far ahead of its presentation
        instant each frame lands on the output queue.  Negative slack is a
        frame that was already late when it was produced."""
        recorder_clock = self.recorder.clock
        slack_hist = self.metrics.histogram("deadline_slack_us",
                                            bounds=SLACK_BOUNDS,
                                            path=self.alias)

        def on_enqueue(q: PathQueue) -> None:
            # The just-enqueued frame is the last of the queue, so its
            # presentation instant is next_index advanced past everything
            # ahead of it.
            index = sink.next_index + len(q) - 1
            slack_hist.observe(sink.present_time(index) - recorder_clock())

        sink.queue.on_enqueue(on_enqueue)

    # ------------------------------------------------------------------
    # Hooks called from the core hot paths
    # ------------------------------------------------------------------

    def begin_traversal(self, msg: Any, direction: int):
        """Open the whole-traversal span (``Path.deliver``)."""
        return self._begin(f"deliver.{DIRECTION_NAMES[direction]}",
                           direction, msg)

    def begin_injection(self, msg: Any, direction: int, router_name: str):
        """Open a mid-path injection span (``Path.inject_at``)."""
        self._injection_counter.inc()
        return self._begin(
            f"inject[{router_name}].{DIRECTION_NAMES[direction]}",
            direction, msg)

    def _begin(self, label: str, direction: int, msg: Any):
        meta = getattr(msg, "meta", None)
        before = meta.get(COST_KEY, 0.0) if meta is not None else 0.0
        span = self.recorder.begin(TRAVERSAL, label, self.alias,
                                   DIRECTION_NAMES[direction])
        return span, before, meta

    def end_traversal(self, token) -> None:
        span, before, meta = token
        after = meta.get(COST_KEY, 0.0) if meta is not None else 0.0
        self.recorder.end(span, total_cost_us=after - before)

    def on_drop(self, msg: Any, reason: str, category: str) -> None:
        """Record a DROP span (``Path.note_drop`` hook)."""
        self.recorder.point(DROP, f"drop:{category}", self.alias,
                            detail=reason)

    def on_demux(self, msg: Any, hops: int) -> None:
        """Record a classification decision that selected this path."""
        self._demux_counter.inc()
        self._demux_hops.observe(hops)
        self.recorder.point(DEMUX, "demux", self.alias,
                            detail=f"hops={hops}",
                            cost_us=hops * params.CLASSIFY_PER_HOP_US)

    def __repr__(self) -> str:
        return f"<PathObserver {self.alias} path#{self.path.pid}>"
