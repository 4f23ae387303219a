"""Adversarial stability experiment: worst-case traffic vs guarantees.

The chaos experiment asks "does the system survive random misbehaviour";
this one asks the stronger question: "does it keep its guarantees against
an adversary crafting the *worst* admissible arrivals".  A seeded
:class:`~repro.faults.AdversaryInjector` drives one of the built-in
attack strategies against a Figure-7 UDP stack — single path or a
``least_loaded`` :class:`~repro.multipath.PathGroup` — executed by
simulated consumer threads under either EDF or the stride (share-
weighted) policy arbitration, with backpressure shedding at admission
and a watchdog armed on the first member.

Every run ends in a :class:`~repro.faults.StabilityVerdict`, the
machine-checked proof artifact:

* **bounded queues** — the sup-over-time depth of every input queue
  stays under the configuration's bound (the shedder's occupancy bound,
  or the closed-form ``(rho, w)`` backlog bound when shedding is off);
* **no starvation** — every admitted flow progresses within the horizon,
  and a victim thread on the *other* scheduling policy proves the stride
  shares still bite;
* **ledger reconciliation** — every injected serial reaches exactly one
  terminal category (delivered / shed / adversary_overflow / end_of_run)
  with zero leaks and zero double counts, and the
  :class:`~repro.observe.MetricsRegistry` totals agree, category by
  category, with a book kept apart from the ledger (see
  :func:`outcome_books`).

Two runs with the same seed produce byte-identical digests (the seed
audit in ``tests/faults/test_seed_audit.py`` checks exactly this).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..admission import BackpressureShedder
from ..core.classify import ClassifierStats, classify
from ..core.flowcache import FlowCache
from ..core.message import Msg
from ..core.path import ESTABLISHED
from ..core.stage import BWD
from ..faults.adversary import (
    ADVERSARY_OVERFLOW,
    BACKPRESSURE_SHED,
    DELIVERED,
    END_OF_RUN,
    STRATEGIES,
    AdversaryInjector,
    DropLedger,
    StabilityVerdict,
    TargetView,
    VerdictEngine,
    closed_form_depth_bound,
)
from ..faults.plan import AdversarySpec, FaultPlan
from ..faults.watchdog import PathWatchdog
from ..multipath import PathGroup
from ..multipath.policies import LeastLoadedPolicy, bottleneck_depth
from ..net.addresses import EthAddr, IpAddr
from ..net.packets import build_udp_frame
from ..observe import Observatory, StarvationDetector
from ..sim.threads import YIELD, Compute, DequeueBatch, Sleep
from ..sim.world import POLICY_EDF, POLICY_RR, SimWorld
from .micro import Fig7Stack, LOCAL_IP, LOCAL_MAC, REMOTE_IP, REMOTE_MAC

PORT = 6100

#: scheduler name -> (consumer policy, victim policy).  "edf" runs the
#: consumers on EDF with per-message deadlines; "stride" runs them under
#: the share-weighted RR policy.  The victim always lives on the *other*
#: policy, so the stride arbitration between the two is genuinely load-
#: bearing in both configurations.
SCHEDULERS = {
    "edf": (POLICY_EDF, POLICY_RR),
    "stride": (POLICY_RR, POLICY_EDF),
}

#: Overload point: rho * service = 0.04 * 40 = 1.6 -- 60% more work than
#: the consumer can drain, so the shedder and verdict engine are
#: genuinely exercised (an under-committed adversary proves nothing).
RHO_PER_US = 0.04
W = 24

#: Series read from ``ledger.counts()``, one per terminal category; the
#: run reconciles its per-category totals against :func:`outcome_books`.
OUTCOME_METRIC = "adversary_outcomes_total"

#: The ledger category of an arrival no path wants.
UNCLASSIFIED = "unclassified"


class AdversaryRunResult(NamedTuple):
    """One adversarial run: the verdict plus the numbers behind it."""

    strategy: str
    scheduler: str
    seed: int
    members: int
    verdict: StabilityVerdict
    #: SHA-256 over the granted schedule + rendered verdict — the
    #: determinism witness two same-seed runs must share byte-for-byte.
    digest: str
    injected: int
    delivered: int
    shed: int
    overflowed: int
    end_of_run: int
    max_queue_depth: int
    depth_bound: int
    #: MetricsRegistry totals match :func:`outcome_books` category by
    #: category.
    metrics_reconciled: bool
    watchdog_rebuilds: int
    watchdog_deferrals: int
    policy_switches: int
    cache_hits: int
    cache_misses: int

    @property
    def ok(self) -> bool:
        return self.verdict.ok and self.metrics_reconciled


def outcome_books(paths: Sequence, shedder: Optional[BackpressureShedder],
                  classifier_stats: ClassifierStats) -> Dict[str, int]:
    """Every terminal category's count as a book other than the ledger
    keeps it: deliveries are the members' progress marks, sheds the
    shedder's count, unclassified arrivals the classifier's drops, and
    every drop category (overflow, end-of-run scrub, teardown drains)
    the members' per-category drop counters."""
    books: Dict[str, int] = {
        DELIVERED: sum(path.stats.progress for path in paths),
        BACKPRESSURE_SHED: shedder.shed_count if shedder is not None else 0,
        UNCLASSIFIED: classifier_stats.dropped,
    }
    for path in paths:
        for category, count in path.stats.drop_reasons.items():
            books[category] = books.get(category, 0) + count
    return books


def run_adversary(strategy: str = "deadline_cliff", scheduler: str = "edf",
                  seed: int = 0, members: int = 2,
                  rho_per_us: float = RHO_PER_US, w: int = W,
                  duration_us: float = 120_000.0, flows: int = 4,
                  service_us: float = 40.0, queue_capacity: int = 64,
                  horizon_us: float = 40_000.0, shed: bool = True,
                  batch: int = 8, hysteresis: int = 2,
                  cache_capacity: int = 32) -> AdversaryRunResult:
    """Run one strategy against one scheduler; return the verdict."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; "
                         f"known: {sorted(SCHEDULERS)}")
    consumer_policy, victim_policy = SCHEDULERS[scheduler]
    spec = AdversarySpec(strategy=strategy, rho_per_us=rho_per_us, w=w,
                         duration_us=duration_us, flows=flows)
    plan = FaultPlan(name=f"adv_{strategy}", seed=seed, adversary=spec)
    world = SimWorld(seed=seed)
    observatory = Observatory(world.engine)
    metrics = observatory.metrics
    stack = Fig7Stack()

    group: Optional[PathGroup] = None
    if members > 1:
        group = PathGroup(LeastLoadedPolicy(hysteresis=hysteresis),
                          name=f"adv-{strategy}")
        paths = [group.add(stack.create_udp_path(PORT))
                 for _ in range(members)]
    else:
        paths = [stack.create_udp_path(PORT)]
    inqs = []
    for path in paths:
        inq = path.input_queue(BWD)
        inq.maxlen = queue_capacity
        inq.overflow_reason = ADVERSARY_OVERFLOW
        inqs.append(inq)

    cache = FlowCache(capacity=cache_capacity)
    classifier_stats = ClassifierStats()
    ledger = DropLedger()
    metrics.collect(lambda: [
        (OUTCOME_METRIC, {"category": category}, count)
        for category, count in ledger.counts().items()])
    starvation = StarvationDetector(world.engine, horizon_us,
                                    observatory=observatory).start()
    shedder = BackpressureShedder(inqs) if shed else None

    # Drop accounting: one listener closes every discarded serial under
    # the queue's reported reason — overflow rejections (which the queues
    # above report as ``adversary_overflow``), the end-of-run scrub, and
    # any watchdog-rebuild drain all land in the ledger through here.
    def on_drop(path):
        def listener(queue, item, reason):
            serial = item.meta.get("adv_serial") if hasattr(item, "meta") \
                else None
            if serial is None:
                return
            ledger.account(serial, reason)
            if reason in (ADVERSARY_OVERFLOW, END_OF_RUN):
                # Teardown drains already route through path.note_drop;
                # these two reasons are noted by nobody else.
                path.note_drop(item, "adversarial arrival discarded",
                               reason)
        return listener

    for path, inq in zip(paths, inqs):
        inq.on_drop(on_drop(path))

    # Consumers: one batch-draining service thread per member.  The
    # explicit yield between batches is the cooperative dispatch point —
    # scheduling is non-preemptive, so a consumer whose queue never
    # empties under overload would otherwise hold the CPU forever and
    # the starvation guarantee would be the adversary's for free.
    def consumer(path, inq):
        while True:
            msgs = yield DequeueBatch(inq, batch)
            for msg in msgs:
                yield Compute(service_us)
                ledger.account(msg.meta["adv_serial"], DELIVERED)
                starvation.on_deliver(msg.meta["adv_flow"])
                path.note_progress()
            yield YIELD

    if consumer_policy == POLICY_EDF:
        def edf_wakeup(path, thread):
            inq = path.input_queue(BWD)
            head = inq.peek() if len(inq) else None
            deadline = None if head is None \
                else head.meta.get("adv_deadline")
            thread.deadline = deadline if deadline is not None \
                else world.engine.now + horizon_us
        for path in paths:
            path.wakeup = edf_wakeup
    for path, inq in zip(paths, inqs):
        world.spawn(consumer(path, inq), name=f"consume#{path.pid}",
                    policy=consumer_policy, path=path)

    # The victim: a periodic thread on the other policy whose own wakeup
    # gaps prove the stride shares still bite under the attack.
    victim_period = horizon_us / 8.0

    def victim():
        last = world.engine.now
        while True:
            yield Compute(service_us / 4.0)
            now = world.engine.now
            starvation.note_gap("victim", now - last)
            last = now
            yield Sleep(victim_period)

    world.spawn(victim(), name="victim", policy=victim_policy)

    # Watchdog on the first member, wired to the hardening under test:
    # crafted arrival phase must produce deferrals, never rebuild storms.
    watchdog = PathWatchdog(
        world.engine, paths[0],
        rebuild=lambda: stack.create_udp_path(PORT),
        observatory=observatory, group=group,
        overload_check=(lambda: shedder.shedding) if shedder else None,
    ).start()

    # Injection: admission -> classification -> bounded enqueue.
    flow_on_member: Dict[int, int] = {}

    def inject(event):
        ledger.inject(event.serial)
        sport = 7000 + (event.flow % 50_000)
        frame = build_udp_frame(
            EthAddr(REMOTE_MAC), EthAddr(LOCAL_MAC),
            IpAddr(REMOTE_IP), IpAddr(LOCAL_IP),
            sport, PORT, b"a" * spec.payload_bytes)
        msg = Msg(frame, meta={"adv_serial": event.serial,
                               "adv_flow": event.flow})
        if event.deadline_us is not None:
            msg.meta["adv_deadline"] = event.deadline_us
        if shedder is not None and not shedder.admit():
            ledger.account(event.serial, BACKPRESSURE_SHED)
            return
        path = classify(stack.eth, msg, stats=classifier_stats, cache=cache)
        if path is None:
            ledger.account(event.serial, UNCLASSIFIED)
            return
        if path.input_queue(BWD).try_enqueue(msg):
            flow_on_member[path.pid] = event.flow
            starvation.on_admit(event.flow)

    view = TargetView(
        now=lambda: world.engine.now,
        member_depths=lambda: [(p.pid, bottleneck_depth(p)) for p in paths
                               if p.state == ESTABLISHED],
        flow_on_member=flow_on_member.get,
        service_us=service_us,
        drain_period_us=batch * service_us,
        cache_capacity=cache.capacity)
    injector = AdversaryInjector(world.engine, spec, plan.rng(),
                                 inject, view).start()

    world.run_for(duration_us + horizon_us)
    starvation.scan()
    starvation.stop()
    watchdog.stop()
    for inq in inqs:
        inq.drain(END_OF_RUN)

    # Verdict: the tightest bound the configuration actually promises.
    if shedder is not None:
        bound = shedder.depth_bound()
    else:
        closed = closed_form_depth_bound(rho_per_us, w, service_us)
        bound = closed if members == 1 and closed is not None \
            else queue_capacity
    engine = VerdictEngine(inqs, ledger, starvation,
                           depth_bound=bound,
                           queue_capacity=queue_capacity)
    verdict = engine.verdict(strategy, scheduler, seed)

    # A category some book counts but the series lacks, or one the
    # series carries but no book keeps, fails the reconciliation.
    counts = ledger.counts()
    books = outcome_books(paths, shedder, classifier_stats)
    reconciled = all(
        metrics.total(OUTCOME_METRIC, category=category) == books.get(category)
        for category in set(counts) | {c for c, n in books.items() if n})

    digest = hashlib.sha256(
        (injector.schedule_digest() + "|" + verdict.render()).encode()
    ).hexdigest()
    switches = group.policy.switches if group is not None \
        and isinstance(group.policy, LeastLoadedPolicy) else 0
    cache_stats = cache.stats()
    return AdversaryRunResult(
        strategy=strategy, scheduler=scheduler, seed=seed, members=members,
        verdict=verdict, digest=digest,
        injected=ledger.injected,
        delivered=counts.get(DELIVERED, 0),
        shed=counts.get(BACKPRESSURE_SHED, 0),
        overflowed=counts.get(ADVERSARY_OVERFLOW, 0),
        end_of_run=counts.get(END_OF_RUN, 0),
        max_queue_depth=verdict.max_queue_depth,
        depth_bound=bound,
        metrics_reconciled=reconciled,
        watchdog_rebuilds=watchdog.rebuilds,
        watchdog_deferrals=watchdog.overload_deferrals,
        policy_switches=switches,
        cache_hits=cache_stats.get("hits", 0),
        cache_misses=cache_stats.get("misses", 0),
    )


def run_adversary_matrix(strategies: Optional[Sequence[str]] = None,
                         schedulers: Sequence[str] = ("edf", "stride"),
                         seed: int = 0, **kwargs
                         ) -> List[AdversaryRunResult]:
    """Every strategy against every scheduler: the ``adversary``
    experiment."""
    if strategies is None:
        strategies = sorted(STRATEGIES)
    return [run_adversary(strategy=strategy, scheduler=scheduler,
                          seed=seed, **kwargs)
            for strategy in strategies for scheduler in schedulers]


def format_adversary(results: Sequence[AdversaryRunResult]) -> str:
    lines = [
        "Adversarial stability (DESIGN.md sec 14): "
        "(rho,w)-bounded worst-case traffic vs machine-checked verdicts",
        f"{'strategy':>16}{'sched':>8}{'inj':>6}{'deliv':>7}{'shed':>6}"
        f"{'ovfl':>6}{'depth':>7}{'bound':>7}{'starv':>7}{'leaks':>7}"
        f"{'verdict':>9}",
    ]
    for r in results:
        lines.append(
            f"{r.strategy:>16}{r.scheduler:>8}{r.injected:>6}"
            f"{r.delivered:>7}{r.shed:>6}{r.overflowed:>6}"
            f"{r.max_queue_depth:>7}{r.depth_bound:>7}"
            f"{r.verdict.starved_flows:>7}{r.verdict.leaked:>7}"
            f"{'ok' if r.ok else 'VIOLATED':>9}")
    lines.append(
        f"  all verdicts ok: {all(r.ok for r in results)} "
        f"(bounded depth, zero starved flows, exact ledger, "
        f"metrics reconciled)")
    return "\n".join(lines)


def check_adversary(matrix: Sequence[AdversaryRunResult]) -> None:
    """Every strategy x scheduler cell of the default-overload matrix
    holds its verdict, and the verdicts are earned."""
    assert len(matrix) == len(SCHEDULERS) * len(STRATEGIES)
    for result in matrix:
        assert result.ok, result.verdict.render()
        # The offered load overcommits the consumer, so a meaningful
        # share of traffic is shed or dropped and the depth bound is
        # approached, not idled under.
        assert result.injected > 200
        # Either admission had to shed, or the burst visibly piled up
        # (queue_storm drains between phase-locked bursts, so it
        # pressures depth without tripping the shedder).
        assert (result.shed + result.overflowed > 0
                or result.max_queue_depth >= W // 2), result.strategy
        # Overload is discriminated from stalls: the adversarial phase
        # must not provoke a single rebuild of a healthy path.
        assert result.watchdog_rebuilds == 0, result.strategy
    assert any(r.shed > 0 for r in matrix)
    assert any(r.max_queue_depth >= r.depth_bound // 2 for r in matrix)
