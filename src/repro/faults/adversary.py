"""Adversarial traffic: worst-case arrivals with machine-checked verdicts.

The chaos layer (:mod:`repro.faults.link`, :mod:`repro.faults.stagefault`)
exercises *random* misbehaviour; this module exercises *worst-case*
behaviour.  The model is the rate-:math:`\\rho`, burst-window-:math:`w`
adversary of *Source Routing and Scheduling in Packet Networks*
(PAPERS.md): an injector that may place at most :math:`\\rho T + w`
messages in any interval of length :math:`T`, but controls exactly when
within that envelope, which flows they belong to, and what deadlines they
carry.  Strategies use that freedom to target specific mechanisms:

* ``deadline_cliff``  — bursts whose messages share one imminent
  deadline, so the EDF heap fills with ties that all expire together;
* ``stride_starve``   — a maximal back-to-back train on one flow, the
  load shape that starves competing policies unless the stride scheduler
  really enforces its shares;
* ``cache_thrash``    — every message a fresh flow key cycling one past
  the flow cache's capacity: the LRU's provably worst reference string;
* ``queue_storm``     — bursts phase-locked to the consumer's drain
  period, holding the bottleneck queue at peak amplitude;
* ``group_chaser``    — feedback attack on ``least_loaded`` dispatch: at
  injection time it targets whichever group member the policy is about
  to favor, chasing the re-dispatch decision to induce oscillation.

Two guarantees hold *by construction*:

* the :class:`ArrivalEnvelope` clamps every strategy, however malicious,
  to the :math:`(\\rho, w)` arrival curve — a strategy can only choose
  *where inside the envelope* its messages land;
* every injected message is serialized into a :class:`DropLedger` and
  must reach exactly one terminal state (delivered, shed, or dropped
  under a named category); the :class:`VerdictEngine` reconciles the
  ledger and turns a run into a :class:`StabilityVerdict` — bounded
  queue depth, no starved flow within the horizon, zero ledger leaks —
  the machine-checked proof artifact
  ``python -m repro.experiments --check adversary`` gates on.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

# The ledger lives in repro.observe.ledger; the names stay importable here.
from ..observe.ledger import BACKPRESSURE_SHED, DELIVERED, DropLedger  # noqa: F401
from .plan import AdversarySpec

#: Ledger category for an adversarial arrival rejected by a full input
#: queue — distinct from the generic ``inq_overflow`` so adversarial load
#: never hides inside ordinary traffic accounting.
ADVERSARY_OVERFLOW = "adversary_overflow"
#: Ledger category for messages still queued when the run ends.
END_OF_RUN = "end_of_run"


# ---------------------------------------------------------------------------
# The (rho, w) envelope
# ---------------------------------------------------------------------------


class ArrivalEnvelope:
    """Token-bucket clamp enforcing the :math:`(\\rho, w)` arrival curve.

    Capacity ``w`` tokens, refill rate ``rho_per_us``, one token per
    grant: for any interval :math:`(t_1, t_2]` the number of granted
    injections is at most :math:`\\rho (t_2 - t_1) + w`.  Strategies
    *request* injection instants; :meth:`grant` returns the earliest
    conforming time at or after the request, so no strategy — however
    adversarial — can exceed the curve.
    """

    def __init__(self, rho_per_us: float, w: int):
        if rho_per_us <= 0:
            raise ValueError("rho_per_us must be positive")
        if w < 1:
            raise ValueError("w must be at least 1")
        self.rho = float(rho_per_us)
        self.w = int(w)
        self._tokens = float(w)
        self._clock = 0.0
        self.granted = 0
        self.deferred = 0

    def grant(self, desired_us: float) -> float:
        """Consume one token; return the actual (conforming) time."""
        when = max(desired_us, self._clock)
        tokens = min(float(self.w),
                     self._tokens + (when - self._clock) * self.rho)
        if tokens < 1.0:
            when += (1.0 - tokens) / self.rho
            tokens = 1.0
            self.deferred += 1
        self._tokens = tokens - 1.0
        self._clock = when
        self.granted += 1
        return when


def closed_form_depth_bound(rho_per_us: float, w: int,
                            service_us: float) -> Optional[int]:
    """Worst-case backlog of a work-conserving, batch-draining server fed
    by a :math:`(\\rho, w)` source, or ``None`` when the source exceeds
    service capacity.

    With utilization :math:`u = \\rho \\cdot c` (service time :math:`c`),
    a batch of :math:`n` messages busies the server for :math:`n c`,
    during which at most :math:`u n + w` new messages arrive; the
    recurrence :math:`n' = u n + w` has fixed point :math:`w / (1 - u)`,
    so the queue observed just before any batch drain never exceeds
    :math:`\\lceil w / (1 - u) \\rceil` (+1 for the arrival that triggers
    the observation).  DESIGN.md §14 derives this in full.
    """
    utilization = rho_per_us * service_us
    if utilization >= 1.0:
        return None
    return math.ceil(w / (1.0 - utilization)) + 1


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


class TargetView:
    """Live feedback a strategy may read at injection time.

    Everything here is state the system already exposes — queue depths,
    cache capacity, the service-time constant — packaged behind callables
    so strategies stay decoupled from the harness that built the target.
    """

    def __init__(self, now: Callable[[], float],
                 member_depths: Callable[[], List[Tuple[int, int]]],
                 flow_on_member: Callable[[int], Optional[int]],
                 service_us: float, drain_period_us: float,
                 cache_capacity: int):
        self.now = now
        #: ``() -> [(pid, bottleneck depth)]`` over live group members.
        self.member_depths = member_depths
        #: ``(pid) -> flow`` currently pinned/affine to that member.
        self.flow_on_member = flow_on_member
        self.service_us = service_us
        self.drain_period_us = drain_period_us
        self.cache_capacity = cache_capacity


class AdversaryStrategy:
    """Base strategy: paced decisions about *when* (:meth:`next_delay`)
    and, at the granted instant, *what* (:meth:`choose`)."""

    name = "base"

    def __init__(self, spec: AdversarySpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng

    def next_delay(self, view: TargetView) -> float:
        """Desired gap (us) from the previous arrival to the next one.
        The envelope may defer the request; strategies must not rely on
        getting the exact instant they asked for."""
        raise NotImplementedError

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        """``(flow, deadline_us)`` for the arrival being injected now."""
        raise NotImplementedError


class DeadlineCliffStrategy(AdversaryStrategy):
    """EDF attack: quiet refill gaps, then bursts of ``w`` messages that
    all share one imminent absolute deadline (the cliff), so the EDF
    heap fills with ties that expire together."""

    name = "deadline_cliff"

    def __init__(self, spec: AdversarySpec, rng: np.random.Generator):
        super().__init__(spec, rng)
        self._in_burst = 0
        self._cliff_us: Optional[float] = None
        self._flow = 0

    def next_delay(self, view: TargetView) -> float:
        if self._in_burst > 0:
            self._in_burst -= 1
            return 0.0
        self._in_burst = self.spec.w - 1
        self._cliff_us = None
        # Refill gap: long enough for the bucket to recover the burst,
        # jittered so bursts never lock to the watchdog's check phase.
        refill = self.spec.w / self.spec.rho_per_us
        return refill * (1.0 + 0.25 * float(self.rng.random()))

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        if self._cliff_us is None:
            self._cliff_us = view.now() + 2.0 * view.service_us
        self._flow = (self._flow + 1) % self.spec.flows
        return self._flow, self._cliff_us


class StrideStarvationStrategy(AdversaryStrategy):
    """Stride attack: a maximal back-to-back train on a single flow —
    after the initial burst the envelope paces it at exactly rho, the
    densest sustained load the adversary may offer.  Competing policies
    survive only if the stride scheduler's shares actually bite."""

    name = "stride_starve"

    def next_delay(self, view: TargetView) -> float:
        return 0.0  # the envelope does the pacing

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        return 0, None


class CacheThrashStrategy(AdversaryStrategy):
    """Flow-cache attack: a steady train whose flow key rotates over
    ``capacity + 1`` distinct identities — the canonical worst reference
    string for an LRU, so every probe misses and every insert evicts."""

    name = "cache_thrash"

    def __init__(self, spec: AdversarySpec, rng: np.random.Generator):
        super().__init__(spec, rng)
        self._counter = 0

    def next_delay(self, view: TargetView) -> float:
        return 1.0 / self.spec.rho_per_us

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        self._counter += 1
        return self._counter % (view.cache_capacity + 1), None


class QueueStormStrategy(AdversaryStrategy):
    """Queue attack: bursts of ``w`` phase-locked to the consumer's
    drain period, so each burst lands exactly as the previous one has
    drained and the bottleneck queue rides at peak amplitude."""

    name = "queue_storm"

    def __init__(self, spec: AdversarySpec, rng: np.random.Generator):
        super().__init__(spec, rng)
        self._in_burst = 0
        self._flow = 0

    def next_delay(self, view: TargetView) -> float:
        if self._in_burst > 0:
            self._in_burst -= 1
            return 0.0
        self._in_burst = self.spec.w - 1
        # Phase lock: the time the service point needs to drain one
        # burst, floored by the envelope's own refill time.
        drain = self.spec.w * view.service_us
        refill = self.spec.w / self.spec.rho_per_us
        return max(drain, refill)

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        self._flow = (self._flow + 1) % self.spec.flows
        return self._flow, None


class GroupChaserStrategy(AdversaryStrategy):
    """Multipath attack: at each injection, target whichever member the
    ``least_loaded`` policy is about to favor — reuse a flow already
    affine to it when one exists, otherwise spend a fresh flow the
    policy will place there.  The load chases the re-dispatch decision,
    flipping the minimum every few messages to induce oscillation."""

    name = "group_chaser"

    def __init__(self, spec: AdversarySpec, rng: np.random.Generator):
        super().__init__(spec, rng)
        self._fresh = 0

    def next_delay(self, view: TargetView) -> float:
        return 0.5 / self.spec.rho_per_us  # ask faster than sustainable

    def choose(self, view: TargetView) -> Tuple[int, Optional[float]]:
        depths = view.member_depths()
        if depths:
            target_pid = min(depths, key=lambda item: item[1])[0]
            pinned = view.flow_on_member(target_pid)
            if pinned is not None:
                return pinned, None
        self._fresh += 1
        return self.spec.flows + self._fresh, None


#: strategy name -> class, for spec-driven construction.
STRATEGIES: Dict[str, type] = {
    cls.name: cls for cls in (
        DeadlineCliffStrategy, StrideStarvationStrategy, CacheThrashStrategy,
        QueueStormStrategy, GroupChaserStrategy,
    )
}


def make_strategy(spec: AdversarySpec,
                  rng: np.random.Generator) -> AdversaryStrategy:
    cls = STRATEGIES.get(spec.strategy)
    if cls is None:
        raise ValueError(f"unknown adversary strategy {spec.strategy!r}; "
                         f"known: {sorted(STRATEGIES)}")
    return cls(spec, rng)


# ---------------------------------------------------------------------------
# The injector
# ---------------------------------------------------------------------------


class ArrivalEvent(NamedTuple):
    """One adversarial arrival, as granted by the envelope."""

    serial: int
    time_us: float
    flow: int
    deadline_us: Optional[float]


class AdversaryInjector:
    """Runs a strategy inside the simulation.

    The injector is a self-rescheduling engine callback chain: each
    firing asks the strategy what to inject *now* (so feedback
    strategies see live state), hands the :class:`ArrivalEvent` to the
    harness-supplied ``inject`` callable, then asks the strategy when it
    wants the next arrival and pushes that request through the envelope.
    All randomness comes from the generator passed in — drawn from the
    owning :class:`~repro.faults.plan.FaultPlan` — so two runs with the
    same plan produce byte-identical schedules.
    """

    def __init__(self, engine, spec: AdversarySpec,
                 rng: np.random.Generator,
                 inject: Callable[[ArrivalEvent], None],
                 view: TargetView):
        self.engine = engine
        self.spec = spec
        self.strategy = make_strategy(spec, rng)
        self.envelope = ArrivalEnvelope(spec.rho_per_us, spec.w)
        self.inject = inject
        self.view = view
        self.schedule: List[ArrivalEvent] = []
        self.injected = 0
        self.done = False

    def start(self) -> "AdversaryInjector":
        self._arm(self.engine.now)
        return self

    def _arm(self, previous_us: float) -> None:
        desired = previous_us + self.strategy.next_delay(self.view)
        granted = self.envelope.grant(desired)
        if granted > self.spec.duration_us:
            self.done = True
            return
        self.engine.schedule(max(0.0, granted - self.engine.now), self._fire)

    def _fire(self) -> None:
        now = self.engine.now
        flow, deadline = self.strategy.choose(self.view)
        event = ArrivalEvent(self.injected + 1, now, flow, deadline)
        self.injected += 1
        self.schedule.append(event)
        self.inject(event)
        self._arm(now)

    def schedule_digest(self) -> str:
        """SHA-256 over the granted schedule — the determinism witness
        the seed-propagation audit compares across same-seed runs."""
        h = hashlib.sha256()
        for event in self.schedule:
            deadline = "-" if event.deadline_us is None \
                else f"{event.deadline_us:.3f}"
            h.update(f"{event.serial}:{event.time_us:.3f}:"
                     f"{event.flow}:{deadline};".encode())
        return h.hexdigest()

    def assert_envelope(self) -> None:
        """Verify (sliding window, exact) that the granted schedule never
        exceeded ``rho * T + w`` in any interval — the property test's
        independent check on the envelope implementation."""
        times = [event.time_us for event in self.schedule]
        for start_index, start in enumerate(times):
            for end_index in range(start_index, len(times)):
                span = times[end_index] - start
                count = end_index - start_index + 1
                allowed = self.spec.rho_per_us * span + self.spec.w
                if count > allowed + 1e-9:
                    raise AssertionError(
                        f"envelope violated: {count} arrivals in "
                        f"{span:.1f}us (allowed {allowed:.2f})")


# ---------------------------------------------------------------------------
# The verdict engine (the ledger it reconciles is repro.observe.ledger)
# ---------------------------------------------------------------------------


class StabilityVerdict(NamedTuple):
    """The machine-checked outcome of one adversarial run."""

    strategy: str
    scheduler: str
    seed: int
    injected: int
    # bounded queues
    max_queue_depth: int
    depth_bound: int
    queue_capacity: int
    bounded_ok: bool
    # no starvation
    starved_flows: int
    worst_progress_gap_us: float
    horizon_us: float
    starvation_ok: bool
    # ledger reconciliation
    ledger: Dict[str, int]
    leaked: int
    double_counted: int
    ledger_ok: bool

    @property
    def ok(self) -> bool:
        return self.bounded_ok and self.starvation_ok and self.ledger_ok

    def render(self) -> str:
        """Deterministic text form (feeds the run digest)."""
        ledger = " ".join(f"{k}={v}" for k, v in sorted(self.ledger.items()))
        return (f"verdict[{self.strategy}/{self.scheduler}/seed{self.seed}] "
                f"injected={self.injected} "
                f"depth={self.max_queue_depth}<=bound{self.depth_bound}"
                f"(cap{self.queue_capacity}):"
                f"{'ok' if self.bounded_ok else 'VIOLATED'} "
                f"starved={self.starved_flows} "
                f"worst_gap={self.worst_progress_gap_us:.0f}us"
                f"<=h{self.horizon_us:.0f}:"
                f"{'ok' if self.starvation_ok else 'VIOLATED'} "
                f"ledger[{ledger}] leaks={self.leaked} "
                f"dup={self.double_counted}:"
                f"{'ok' if self.ledger_ok else 'VIOLATED'}")


class VerdictEngine:
    """Turns a finished run's raw observations into a verdict.

    Parameters
    ----------
    queues:
        Every :class:`~repro.core.queues.PathQueue` the run touched; the
        sup-over-time depth is each queue's ``high_watermark`` (bounded
        queues are checked against the tightest applicable bound, the
        caller-supplied ``depth_bound``).
    ledger:
        The run's :class:`DropLedger`.
    starvation:
        An object exposing ``starved_flows()`` and
        ``worst_gap_us`` / ``horizon_us`` (the
        :class:`~repro.observe.StarvationDetector`).
    """

    def __init__(self, queues, ledger: DropLedger, starvation,
                 depth_bound: int, queue_capacity: int):
        self.queues = list(queues)
        self.ledger = ledger
        self.starvation = starvation
        self.depth_bound = depth_bound
        self.queue_capacity = queue_capacity

    def max_depth(self) -> int:
        return max((q.high_watermark for q in self.queues), default=0)

    def verdict(self, strategy: str, scheduler: str,
                seed: int) -> StabilityVerdict:
        max_depth = self.max_depth()
        counts = self.ledger.counts()
        leaks = self.ledger.leaks()
        accounted = sum(counts.values())
        ledger_ok = (not leaks and not self.ledger.double_counted
                     and accounted == self.ledger.injected)
        starved = self.starvation.starved_flows()
        return StabilityVerdict(
            strategy=strategy,
            scheduler=scheduler,
            seed=seed,
            injected=self.ledger.injected,
            max_queue_depth=max_depth,
            depth_bound=self.depth_bound,
            queue_capacity=self.queue_capacity,
            bounded_ok=max_depth <= self.depth_bound,
            starved_flows=len(starved),
            worst_progress_gap_us=self.starvation.worst_gap_us,
            horizon_us=self.starvation.horizon_us,
            starvation_ok=not starved,
            ledger=counts,
            leaked=len(leaks),
            double_counted=len(self.ledger.double_counted),
            ledger_ok=ledger_ok,
        )
