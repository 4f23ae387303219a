"""Per-path metrics: counters, gauges, and histograms with a text snapshot.

The registry is the numeric face of the observability layer: queue
occupancy (fed by the queues' ``on_enqueue``/``on_dequeue`` listeners),
per-path CPU cycles, deadline slack, and drop reasons all land here as
named, labeled series.  A count some object already keeps
(:class:`~repro.core.path.PathStats`, a queue's ``dropped``, the flow
cache's ``hits``) is *collected* — read from that book on every lookup
(:meth:`MetricsRegistry.collect`) — so ``metrics == PathAccount`` holds
by construction; only what nobody else keeps is stored here.

Series are identified by ``(name, sorted labels)``; ``counter()`` /
``gauge()`` / ``histogram()`` are get-or-create, so instrumentation sites
can look series up cheaply and hold the instrument object.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, in microseconds.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0)

_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


class _Instrument:
    """Shared identity bits of every metric series."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels

    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        body = ",".join(f"{k}={v}" for k, v in self.labels)
        return "{" + body + "}"


class Counter(_Instrument):
    """A monotonically increasing count (messages, drops, cycles)."""

    __slots__ = ("value",)

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def render(self) -> List[str]:
        return [f"{self.name}{self.label_suffix()} {_fmt(self.value)}"]


class Gauge(_Instrument):
    """A point-in-time level (queue depth, current frame-skip modulus)."""

    __slots__ = ("value", "max_value", "min_value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        super().__init__(name, labels)
        self.value = 0.0
        self.max_value = float("-inf")
        self.min_value = float("inf")

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value
        if value < self.min_value:
            self.min_value = value

    def render(self) -> List[str]:
        hi = _fmt(self.max_value) if self.max_value != float("-inf") else "-"
        return [f"{self.name}{self.label_suffix()} {_fmt(self.value)} "
                f"(max {hi})"]


class Histogram(_Instrument):
    """A distribution over fixed bucket bounds (waits, slack, occupancy)."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...],
                 bounds: Sequence[float] = DEFAULT_BOUNDS):
        super().__init__(name, labels)
        self.bounds = tuple(sorted(bounds))
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def render(self) -> List[str]:
        head = (f"{self.name}{self.label_suffix()} count={self.count} "
                f"sum={_fmt(self.sum)} mean={_fmt(self.mean)}")
        if self.count:
            head += f" min={_fmt(self.min)} max={_fmt(self.max)}"
        cells = [f"le_{_fmt(bound)}={n}"
                 for bound, n in zip(self.bounds, self.buckets) if n]
        if self.buckets[-1]:
            cells.append(f"inf={self.buckets[-1]}")
        if cells:
            head += "  [" + " ".join(cells) + "]"
        return [head]


class MetricsRegistry:
    """Labeled metric series: stored get-or-create, or collected."""

    def __init__(self) -> None:
        self._series: Dict[_Key, _Instrument] = {}
        self._sources: List[Callable[[], Iterable[tuple]]] = []

    # -- creation -----------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        key = _key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = Histogram(name, key[1],
                               bounds if bounds is not None else DEFAULT_BOUNDS)
            self._series[key] = series
        elif not isinstance(series, Histogram):
            raise TypeError(f"{name} already registered as "
                            f"{type(series).__name__}")
        return series

    def _get_or_create(self, klass, name: str, labels: Dict[str, Any]):
        key = _key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = klass(name, key[1])
            self._series[key] = series
        elif not isinstance(series, klass):
            raise TypeError(f"{name} already registered as "
                            f"{type(series).__name__}")
        return series

    def collect(self, source: Callable[[], Iterable[tuple]]) -> None:
        """Read ``source()``'s ``(name, labels, value)`` readings afresh on
        every lookup, each as a :class:`Counter`.  Readings of one key
        from two sources add; a key also stored raises ``TypeError``."""
        self._sources.append(source)

    # -- lookup / aggregation ------------------------------------------------

    def _all(self) -> Dict[_Key, _Instrument]:
        """Stored series plus a fresh reading of every source."""
        merged: Dict[_Key, _Instrument] = {}
        for source in self._sources:
            for name, labels, value in source():
                key = _key(name, labels)
                if key in self._series:
                    raise TypeError(f"{name} is both collected and stored")
                merged.setdefault(key, Counter(name, key[1])).value += value
        merged.update(self._series)
        return merged

    def get(self, name: str, **labels: Any) -> Optional[_Instrument]:
        return self._all().get(_key(name, labels))

    def series(self, name: Optional[str] = None,
               **labels: Any) -> Iterable[_Instrument]:
        """All series, optionally filtered by name and a label subset."""
        wanted = {(k, str(v)) for k, v in labels.items()}
        for (series_name, _series_labels), series in self._all().items():
            if name is not None and series_name != name:
                continue
            if wanted and not wanted.issubset(set(series.labels)):
                continue
            yield series

    def total(self, name: str, **labels: Any) -> float:
        """Sum of counter values (or gauge levels) matching the filter."""
        return sum(getattr(series, "value", 0.0)
                   for series in self.series(name, **labels))

    # -- snapshot --------------------------------------------------------------

    def render(self, title: str = "metrics snapshot") -> str:
        """Plain-text snapshot: one sorted line per series."""
        every = sorted(self._all().items())
        lines = [f"# {title} ({len(every)} series)"]
        for _, series in every:
            lines.extend(series.render())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, float]:
        """Flat ``name{labels} -> value`` map (histograms report counts)."""
        flat: Dict[str, float] = {}
        for _, series in sorted(self._all().items()):
            value = getattr(series, "value", None)
            if value is None:
                value = getattr(series, "count", 0)
            flat[series.name + series.label_suffix()] = value
        return flat

    def __len__(self) -> int:
        return len(self._all())

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} series>"


def _key(name: str, labels: Dict[str, Any]) -> _Key:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt(value: float) -> str:
    """Render numbers compactly and deterministically."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.3f}"
