"""Per-path observability: tracing, metrics, and profiling hooks.

The paper's central resource-management claim is that the path is the
unit of scheduling *and accounting*.  This package turns the write-only
counters of :class:`~repro.core.path.PathStats` into an inspectable
record: per-message spans in virtual time (:mod:`.trace`), labeled
counters/gauges/histograms (:mod:`.metrics`), and the per-path probes
that wire both onto live paths (:mod:`.probe`).  The registry reads
``PathStats`` and the other books the code keeps rather than copying
them, so a series and its book cannot disagree.

Tracing is off by default and enabled per path via the ``PA_TRACE``
creation attribute, so instrumentation itself follows the paper's
invariant model: observability is an invariant the path is created with.
"""

from .metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .probe import Observatory, PathObserver
from .starvation import StarvationDetector
from .wallclock import WallClockBridge
from .trace import (
    DEMUX,
    DROP,
    INCIDENT,
    QUEUE_WAIT,
    STAGE,
    TRAVERSAL,
    Span,
    TraceRecorder,
)

__all__ = [
    "TraceRecorder", "Span",
    "STAGE", "TRAVERSAL", "QUEUE_WAIT", "DEMUX", "DROP", "INCIDENT",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "DEFAULT_BOUNDS",
    "Observatory", "PathObserver", "StarvationDetector",
    "WallClockBridge",
]
