"""Admission control (Section 4.4).

Two resources, both accounted per path:

* **Memory** — "as all memory allocation requests are performed on behalf
  of a given path, it is a simple matter of accounting to decide whether
  a newly created path is admissible or not.  Before starting path
  creation, the admission policy decides how much memory can be granted
  to a new path.  As long as each router in the path lives within that
  constraint, the path creation process is allowed to continue."
  :class:`MemoryAdmission` is the creation-time hook implementing exactly
  that: it is consulted after every stage is appended and aborts creation
  the moment the path's modeled footprint (object + queue buffers)
  exceeds the per-path grant or the system budget.

* **CPU** — "there is a good correlation between the average size of a
  frame (in bits) and the average amount of CPU time it takes to decode a
  frame ... the path execution timings are used to derive the model
  parameters, which in turn, are used for admission control."
  :class:`CpuAdmission` fits that linear model from *measured* per-path
  execution times (the measurement probe installed by the Section 4.2
  transformation rule) and admits a new video only when the predicted
  utilization fits.  When a video does not fit at full rate it proposes
  reduced-quality playback — "the user may request that only every third
  image be displayed" — whose skipped frames the kernel drops at the
  adapter.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import params
from ..core.errors import AdmissionError
from ..core.path import Path
from ..mpeg.clips import ClipProfile
from ..mpeg.cost import decode_cost_us, display_cost_us


def path_memory_footprint(path: Path,
                          bytes_per_queue_slot: int = params.ETH_MTU) -> int:
    """Modeled bytes a path pins: the path/stage objects plus its queues'
    worst-case buffer occupancy."""
    total = path.modeled_size()
    for queue in path.q:
        if queue.maxlen:
            total += queue.maxlen * bytes_per_queue_slot
    return total


class MemoryAdmission:
    """Creation-time memory admission (the ``admission`` hook of
    :func:`repro.core.path_create`)."""

    def __init__(self, system_budget: int, per_path_grant: int):
        if system_budget <= 0 or per_path_grant <= 0:
            raise ValueError("budgets must be positive")
        self.system_budget = system_budget
        self.per_path_grant = per_path_grant
        self.committed = 0
        self._granted: Dict[int, int] = {}
        self.denials = 0

    def __call__(self, path: Path) -> None:
        """Consulted after every appended stage during creation."""
        footprint = path_memory_footprint(path)
        if footprint > self.per_path_grant:
            self.denials += 1
            raise AdmissionError(
                f"path {path.pid} needs {footprint} B, grant is "
                f"{self.per_path_grant} B")
        previous = self._granted.get(path.pid, 0)
        if self.committed - previous + footprint > self.system_budget:
            self.denials += 1
            raise AdmissionError(
                f"system memory budget exhausted "
                f"({self.committed - previous + footprint} > "
                f"{self.system_budget} B)")
        self.committed += footprint - previous
        self._granted[path.pid] = footprint

    def release(self, path: Path) -> None:
        """Return a deleted path's grant to the pool."""
        self.committed -= self._granted.pop(path.pid, 0)

    @property
    def available(self) -> int:
        return self.system_budget - self.committed


class FrameCostModel:
    """The frame-size -> CPU-time model, fitted from measurements.

    "Rather than determining these parameters manually, it is much easier
    to measure path execution time in the running system and use those
    measurements to derive the required parameters."

    The regressors are the average frame size in bits (the paper's
    headline correlate) and the stream's pixel count (a creation-time
    invariant of the video path; decode work per frame scales with both
    the coded bits and the image geometry, which is what "parameterized by
    the speed of the CPU, the memory system, and the graphics card" is
    standing in for).
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float, float]] = []  # (bits, px, us)
        self._coeffs: Optional[np.ndarray] = None

    def add_sample(self, avg_frame_bits: float, pixels: float,
                   avg_frame_us: float) -> None:
        self._samples.append((avg_frame_bits, pixels, avg_frame_us))
        self._coeffs = None

    def sample_from_path(self, path: Path, frames: int,
                         cpu_mhz: float = params.CPU_MHZ) -> None:
        """Derive a sample from a live path's own accounting: average
        frame size from its decoder, average per-frame CPU from the cycles
        charged to the path."""
        if frames <= 0:
            raise ValueError("need at least one decoded frame")
        decoder = path.stage_of("MPEG").decoder
        bits = decoder.bits_decoded / max(1, decoder.frames_decoded)
        micros = path.stats.cycles / cpu_mhz / frames
        self.add_sample(bits, decoder.profile.pixels, micros)

    def fit(self) -> np.ndarray:
        """Least-squares fit ``us = a*bits + b*pixels + c``."""
        if len(self._samples) < 3:
            raise ValueError("need at least three samples to fit the model")
        rows = np.array([(bits, px, 1.0) for bits, px, _ in self._samples])
        micros = np.array([s[2] for s in self._samples])
        coeffs, _residuals, _rank, _sv = np.linalg.lstsq(rows, micros,
                                                         rcond=None)
        self._coeffs = coeffs
        return coeffs

    def correlation(self) -> float:
        """Pearson r between frame bits and CPU time (the paper's 'good
        correlation')."""
        if len(self._samples) < 2:
            raise ValueError("need at least two samples")
        bits = np.array([s[0] for s in self._samples])
        micros = np.array([s[2] for s in self._samples])
        return float(np.corrcoef(bits, micros)[0, 1])

    def predict_frame_us(self, avg_frame_bits: float, pixels: float) -> float:
        if self._coeffs is None:
            self.fit()
        a, b, c = self._coeffs
        return max(0.0, a * avg_frame_bits + b * pixels + c)


class CpuAdmission:
    """CPU admission for video paths, driven by the fitted model."""

    def __init__(self, model: FrameCostModel, headroom: float = 0.95):
        if not 0 < headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        self.model = model
        self.headroom = headroom
        self._admitted: Dict[int, float] = {}  # key -> utilization
        self._keys_of_path: Dict[int, List[int]] = {}
        self.denials = 0
        self._next_key = 0

    def predicted_utilization(self, profile: ClipProfile, fps: float,
                              skip: int = 1) -> float:
        """Fraction of the CPU a stream needs at the given rate.

        With every-Nth-frame playback plus adapter-level early discard,
        only 1/N of the frames cost decode+display CPU.
        """
        avg_bits = profile.avg_frame_bits + 24 * profile.macroblocks
        frame_us = self.model.predict_frame_us(avg_bits, profile.pixels)
        effective_fps = fps / max(1, skip)
        return (frame_us * effective_fps) / 1_000_000.0

    @property
    def committed_utilization(self) -> float:
        return sum(self._admitted.values())

    def admit(self, profile: ClipProfile, fps: float, skip: int = 1) -> int:
        """Admit a stream or raise :class:`AdmissionError`.

        Returns an admission key used to release the reservation.
        """
        needed = self.predicted_utilization(profile, fps, skip)
        if self.committed_utilization + needed > self.headroom:
            self.denials += 1
            raise AdmissionError(
                f"{profile.name}@{fps:.0f}fps needs {needed:.2f} CPU, "
                f"only {self.headroom - self.committed_utilization:.2f} left")
        self._next_key += 1
        self._admitted[self._next_key] = needed
        return self._next_key

    def release(self, key: int) -> None:
        self._admitted.pop(key, None)

    def admit_path(self, path: Path, profile: ClipProfile, fps: float,
                   skip: int = 1) -> int:
        """Admit a stream on behalf of *path*, tying the reservation to
        the path's lifetime: the key is released automatically when the
        path is deleted (watchdog rebuilds, pool drains), so callers that
        lose track of a member never leak CPU budget."""
        key = self.admit(profile, fps, skip)
        self._keys_of_path.setdefault(path.pid, []).append(key)
        path.add_delete_hook(self.release_path)
        return key

    def release_path(self, path: Path) -> None:
        """Release every reservation made via :meth:`admit_path`."""
        for key in self._keys_of_path.pop(path.pid, ()):
            self.release(key)

    def suggest_skip(self, profile: ClipProfile, fps: float,
                     max_skip: int = 8) -> Optional[int]:
        """Smallest every-Nth reduction that fits, or None if even 1/N
        at ``max_skip`` does not."""
        for skip in range(1, max_skip + 1):
            needed = self.predicted_utilization(profile, fps, skip)
            if self.committed_utilization + needed <= self.headroom:
                return skip
        return None


class BackpressureShedder:
    """Arrival-time admission driven by bottleneck-queue occupancy.

    Creation-time admission (:class:`MemoryAdmission` /
    :class:`CpuAdmission`) decides whether a *path* may exist; this is
    the per-message complement for overload: backpressure from the
    bottleneck queues propagated to the admission point.  The shedder
    watches a set of queues and, once the deepest one crosses
    ``high_occupancy``, sheds every arrival until it falls back below
    ``low_occupancy`` (hysteresis, so the decision does not chatter at
    the threshold).

    Because the check runs *before* each enqueue against live depth, the
    watched queues obey a hard bound: depth never exceeds
    ``floor(high_occupancy * maxlen) + 1`` while the shedder is the only
    producer — the bound the adversarial stability verdict checks.

    ``on_pressure(fn)`` listeners observe shed-state transitions
    (``fn(shedding: bool)``); the degradation governor's ``pressure_fn``
    hook and the watchdog's ``overload_check`` are wired to
    :attr:`shedding` so crafted overload degrades quality instead of
    provoking rebuild storms.
    """

    #: Drop/shed category recorded for messages refused at admission.
    CATEGORY = "backpressure_shed"

    def __init__(self, queues=(), high_occupancy: float = 0.75,
                 low_occupancy: float = 0.5):
        if not 0 < low_occupancy <= high_occupancy <= 1:
            raise ValueError("need 0 < low_occupancy <= high_occupancy <= 1")
        self.queues = list(queues)
        self.high_occupancy = high_occupancy
        self.low_occupancy = low_occupancy
        self.shedding = False
        self.shed_count = 0
        self.admitted = 0
        self.transitions = 0
        self._listeners = []

    def watch(self, queue) -> None:
        if queue not in self.queues:
            self.queues.append(queue)

    def on_pressure(self, fn) -> None:
        """Register ``fn(shedding)`` to run on every state transition."""
        self._listeners.append(fn)

    def _occupancy(self) -> float:
        worst = 0.0
        for queue in self.queues:
            if queue.maxlen:
                occupancy = len(queue) / queue.maxlen
                if occupancy > worst:
                    worst = occupancy
        return worst

    def depth_bound(self) -> int:
        """The hard per-queue depth bound the shedder enforces."""
        maxlen = max((q.maxlen or 0 for q in self.queues), default=0)
        return int(self.high_occupancy * maxlen) + 1

    def admit(self) -> bool:
        """Admit or shed the arrival about to be enqueued."""
        occupancy = self._occupancy()
        if self.shedding:
            if occupancy <= self.low_occupancy:
                self._transition(False)
        elif occupancy >= self.high_occupancy:
            self._transition(True)
        if self.shedding:
            self.shed_count += 1
            return False
        self.admitted += 1
        return True

    def _transition(self, shedding: bool) -> None:
        self.shedding = shedding
        self.transitions += 1
        for fn in self._listeners:
            fn(shedding)

    def __repr__(self) -> str:
        return (f"<BackpressureShedder queues={len(self.queues)} "
                f"shedding={self.shedding} shed={self.shed_count} "
                f"admitted={self.admitted}>")


def theoretical_frame_us(profile: ClipProfile) -> float:
    """Ground-truth per-frame cost from the simulator's own cost model —
    what the fitted model should approximate."""
    avg_bits = profile.avg_frame_bits + 24 * profile.macroblocks
    return (decode_cost_us(int(avg_bits), profile.macroblocks)
            + display_cost_us(profile.pixels))
