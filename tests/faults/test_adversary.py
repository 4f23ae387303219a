"""Adversarial traffic subsystem: envelope, strategies, ledger, verdicts."""

import pytest

from repro.admission import BackpressureShedder
from repro.core.queues import PathQueue
from repro.faults import (
    ADVERSARY_OVERFLOW,
    BACKPRESSURE_SHED,
    DELIVERED,
    AdversaryInjector,
    AdversarySpec,
    ArrivalEnvelope,
    DropLedger,
    STRATEGIES,
    TargetView,
    VerdictEngine,
    closed_form_depth_bound,
    make_strategy,
    profile,
)
from repro.observe import StarvationDetector
from repro.sim.engine import Engine


def make_view(now=lambda: 0.0, depths=lambda: [], flow_of=lambda pid: None,
              service_us=40.0, drain_period_us=320.0, cache_capacity=32):
    return TargetView(now, depths, flow_of, service_us, drain_period_us,
                      cache_capacity)


def rng_of(seed=0):
    from repro.faults.plan import FaultPlan
    return FaultPlan(name="t", seed=seed).rng()


class TestEnvelope:
    def test_burst_then_sustained_rate(self):
        env = ArrivalEnvelope(rho_per_us=0.01, w=5)
        # The full burst is available immediately...
        grants = [env.grant(0.0) for _ in range(5)]
        assert grants == [0.0] * 5
        # ...after which requests are paced at exactly 1/rho.
        assert env.grant(0.0) == pytest.approx(100.0)
        assert env.grant(0.0) == pytest.approx(200.0)
        assert env.deferred == 2

    def test_idle_refills_up_to_w(self):
        env = ArrivalEnvelope(rho_per_us=0.01, w=3)
        for _ in range(3):
            env.grant(0.0)
        # A long quiet period refills the bucket, but never beyond w.
        grants = [env.grant(10_000.0) for _ in range(4)]
        assert grants[:3] == [10_000.0] * 3
        assert grants[3] == pytest.approx(10_100.0)

    def test_any_strategy_stays_inside_curve(self):
        spec = AdversarySpec(strategy="queue_storm", rho_per_us=0.05, w=8,
                             duration_us=20_000.0)
        engine = Engine()
        injector = AdversaryInjector(engine, spec, rng_of(3),
                                     inject=lambda event: None,
                                     view=make_view(now=lambda: engine.now))
        injector.start()
        engine.run_until(30_000.0)
        assert injector.injected > 8
        injector.assert_envelope()  # sliding-window check, exact

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalEnvelope(rho_per_us=0.0, w=4)
        with pytest.raises(ValueError):
            ArrivalEnvelope(rho_per_us=0.1, w=0)


class TestClosedFormBound:
    def test_stable_source_has_finite_bound(self):
        # u = 0.4: bound = ceil(8 / 0.6) + 1 = 15
        assert closed_form_depth_bound(0.01, 8, 40.0) == 15

    def test_overloaded_source_has_no_bound(self):
        assert closed_form_depth_bound(0.05, 8, 40.0) is None

    def test_bound_grows_with_utilization(self):
        bounds = [closed_form_depth_bound(rho, 8, 40.0)
                  for rho in (0.005, 0.01, 0.02)]
        assert bounds == sorted(bounds)


class TestStrategies:
    def test_registry_and_construction(self):
        assert set(STRATEGIES) == {"deadline_cliff", "stride_starve",
                                   "cache_thrash", "queue_storm",
                                   "group_chaser"}
        for name in STRATEGIES:
            spec = AdversarySpec(strategy=name)
            strategy = make_strategy(spec, rng_of())
            assert strategy.name == name
        with pytest.raises(ValueError):
            make_strategy(AdversarySpec(strategy="nope"), rng_of())

    def test_adversary_profiles_registered(self):
        for name in STRATEGIES:
            plan = profile(f"adv_{name}")
            assert plan.adversary is not None
            assert plan.adversary.strategy == name

    def test_deadline_cliff_shares_one_deadline_per_burst(self):
        spec = AdversarySpec(strategy="deadline_cliff", w=4)
        strategy = make_strategy(spec, rng_of())
        view = make_view(now=lambda: 1_000.0)
        strategy.next_delay(view)  # burst boundary: new cliff
        deadlines = {strategy.choose(view)[1] for _ in range(4)}
        assert deadlines == {1_000.0 + 2 * view.service_us}

    def test_stride_starve_hammers_one_flow(self):
        strategy = make_strategy(
            AdversarySpec(strategy="stride_starve"), rng_of())
        view = make_view()
        assert strategy.next_delay(view) == 0.0
        assert {strategy.choose(view)[0] for _ in range(10)} == {0}

    def test_cache_thrash_rotates_capacity_plus_one_keys(self):
        strategy = make_strategy(
            AdversarySpec(strategy="cache_thrash"), rng_of())
        view = make_view(cache_capacity=4)
        flows = [strategy.choose(view)[0] for _ in range(10)]
        assert len(set(flows)) == 5  # capacity + 1 distinct keys
        assert flows[:5] == flows[5:]  # strict rotation

    def test_group_chaser_targets_shallowest_member(self):
        strategy = make_strategy(
            AdversarySpec(strategy="group_chaser", flows=4), rng_of())
        pins = {7: 42}
        view = make_view(depths=lambda: [(7, 1), (9, 5)],
                         flow_of=pins.get)
        assert strategy.choose(view)[0] == 42  # reuse the pinned flow
        # No pin on the shallowest member: spend a fresh flow.
        view2 = make_view(depths=lambda: [(7, 9), (9, 2)],
                          flow_of=lambda pid: None)
        assert strategy.choose(view2)[0] > 4


class TestDropLedger:
    def test_exact_reconciliation(self):
        ledger = DropLedger()
        for serial in (1, 2, 3):
            ledger.inject(serial)
        ledger.account(1, DELIVERED)
        ledger.account(2, BACKPRESSURE_SHED)
        ledger.account(3, ADVERSARY_OVERFLOW)
        assert ledger.leaks() == []
        assert ledger.counts() == {DELIVERED: 1, BACKPRESSURE_SHED: 1,
                                   ADVERSARY_OVERFLOW: 1}
        assert sum(ledger.counts().values()) == ledger.injected

    def test_leak_detected(self):
        ledger = DropLedger()
        ledger.inject(1)
        ledger.inject(2)
        ledger.account(1, DELIVERED)
        assert ledger.leaks() == [2]

    def test_double_count_recorded_never_merged(self):
        ledger = DropLedger()
        ledger.inject(1)
        ledger.account(1, DELIVERED)
        ledger.account(1, ADVERSARY_OVERFLOW)
        assert ledger.double_counted == [(1, DELIVERED, ADVERSARY_OVERFLOW)]
        assert ledger.count(DELIVERED) == 1  # first category stands

    def test_duplicate_injection_rejected(self):
        ledger = DropLedger()
        ledger.inject(1)
        with pytest.raises(ValueError):
            ledger.inject(1)
        with pytest.raises(ValueError):
            ledger.account(99, DELIVERED)


class TestVerdictEngine:
    def _run(self, depth, bound, starved=(), leak=False):
        queue = PathQueue(maxlen=64, name="t")
        for _ in range(depth):
            queue.try_enqueue(object())
        ledger = DropLedger()
        ledger.inject(1)
        if not leak:
            ledger.account(1, DELIVERED)

        class Starvation:
            worst_gap_us = 10.0
            horizon_us = 100.0

            def starved_flows(self):
                return list(starved)

        engine = VerdictEngine([queue], ledger, Starvation(),
                               depth_bound=bound, queue_capacity=64)
        return engine.verdict("s", "edf", 0)

    def test_all_three_guarantees_hold(self):
        verdict = self._run(depth=3, bound=5)
        assert verdict.ok
        assert verdict.bounded_ok and verdict.starvation_ok \
            and verdict.ledger_ok
        assert "ok" in verdict.render()

    def test_depth_violation(self):
        verdict = self._run(depth=7, bound=5)
        assert not verdict.ok and not verdict.bounded_ok
        assert "VIOLATED" in verdict.render()

    def test_starvation_violation(self):
        verdict = self._run(depth=1, bound=5, starved=["flow0"])
        assert not verdict.ok and not verdict.starvation_ok

    def test_ledger_violation(self):
        verdict = self._run(depth=1, bound=5, leak=True)
        assert not verdict.ok and not verdict.ledger_ok
        assert verdict.leaked == 1


class TestStarvationDetector:
    def test_served_flow_never_starved(self):
        engine = Engine()
        detector = StarvationDetector(engine, horizon_us=100.0).start()
        for i in range(20):
            when = i * 30.0
            engine.schedule_at(when, detector.on_admit, "f")
            engine.schedule_at(when + 20.0, detector.on_deliver, "f")
        engine.run_until(1_000.0)
        assert detector.starved_flows() == []
        assert detector.worst_gap_us <= 100.0

    def test_stuck_flow_detected_within_horizon_and_a_quarter(self):
        engine = Engine()
        detector = StarvationDetector(engine, horizon_us=100.0).start()
        engine.schedule_at(0.0, detector.on_admit, "stuck")
        engine.run_until(130.0)
        assert detector.starved_flows() == ["stuck"]
        assert detector.violation_gaps()["stuck"] > 100.0

    def test_pending_counts_balance(self):
        engine = Engine()
        detector = StarvationDetector(engine, horizon_us=100.0)
        detector.on_admit("f")
        detector.on_admit("f")
        detector.on_deliver("f")
        assert detector.pending("f") == 1
        detector.on_deliver("f")
        assert detector.pending("f") == 0


class TestBackpressureShedder:
    def test_hysteresis_and_hard_bound(self):
        queue = PathQueue(maxlen=20, name="t")
        shedder = BackpressureShedder([queue], high_occupancy=0.75,
                                      low_occupancy=0.5)
        # Fill while admitted; the shedder trips at high occupancy.
        depths = []
        for _ in range(40):
            if shedder.admit():
                queue.try_enqueue(object())
            depths.append(len(queue))
        assert max(depths) <= shedder.depth_bound() == 16
        assert shedder.shedding and shedder.shed_count > 0
        # Shedding persists until occupancy falls below low (hysteresis).
        queue.dequeue()
        assert not shedder.admit()
        while len(queue) > 10:  # low = 0.5 * 20
            queue.dequeue()
        assert shedder.admit()
        assert not shedder.shedding

    def test_pressure_listeners_fire_on_transitions(self):
        queue = PathQueue(maxlen=4, name="t")
        shedder = BackpressureShedder([queue], high_occupancy=0.75,
                                      low_occupancy=0.25)
        seen = []
        shedder.on_pressure(seen.append)
        for _ in range(4):
            if shedder.admit():
                queue.try_enqueue(object())
        queue.drain()
        shedder.admit()
        assert seen == [True, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            BackpressureShedder([], high_occupancy=0.3, low_occupancy=0.5)


class TestHarness:
    """End-to-end: the experiment harness upholds all three guarantees."""

    def test_overload_run_is_stable_with_distinct_drop_category(self):
        from repro.experiments.adversary_exp import run_adversary
        result = run_adversary(strategy="cache_thrash", scheduler="edf",
                               seed=2, members=1, duration_us=40_000.0)
        assert result.ok
        assert result.verdict.bounded_ok
        assert result.verdict.starvation_ok
        assert result.verdict.ledger_ok
        # rho=0.04 against one 40us consumer is overload: admission must
        # have shed, and whatever queue drops happened carry the
        # adversary's own category, never generic overflow.
        assert result.shed > 0
        assert "overflow" not in result.verdict.ledger
        assert "inq_overflow" not in result.verdict.ledger
        assert result.metrics_reconciled

    def test_adversarial_drops_attributed_on_path_stats(self):
        from repro.core.stage import BWD
        from repro.experiments.adversary_exp import run_adversary
        result = run_adversary(strategy="queue_storm", scheduler="stride",
                               seed=3, members=1, duration_us=40_000.0,
                               shed=False, queue_capacity=8,
                               service_us=60.0)
        # Without the shedder the queue itself rejects: those drops are
        # attributed under the adversary's category in the ledger.
        assert result.overflowed > 0
        assert result.verdict.ledger[ADVERSARY_OVERFLOW] == result.overflowed
        assert result.verdict.ledger_ok

    def test_a_doctored_book_fails_the_reconciliation(self, monkeypatch):
        """The outcome series read the ledger, so they are reconciled
        against books kept elsewhere: a shedder that refuses without
        counting leaves the ledger's sheds unmatched."""
        from repro.experiments import adversary_exp

        class Uncounted(BackpressureShedder):
            def admit(self):
                admitted = super().admit()
                if not admitted:
                    self.shed_count -= 1
                return admitted

        kwargs = dict(strategy="cache_thrash", scheduler="edf", seed=2,
                      members=1, duration_us=40_000.0)
        honest = adversary_exp.run_adversary(**kwargs)
        assert honest.shed > 0 and honest.metrics_reconciled
        monkeypatch.setattr(adversary_exp, "BackpressureShedder", Uncounted)
        doctored = adversary_exp.run_adversary(**kwargs)
        assert doctored.shed == honest.shed
        assert doctored.verdict.ok
        assert not doctored.metrics_reconciled
        assert not doctored.ok

    def test_watchdog_never_provoked_into_rebuilds(self):
        from repro.experiments.adversary_exp import run_adversary
        result = run_adversary(strategy="deadline_cliff", scheduler="edf",
                               seed=4, members=2, duration_us=60_000.0)
        assert result.watchdog_rebuilds == 0

    def test_unknown_scheduler_rejected(self):
        from repro.experiments.adversary_exp import run_adversary
        with pytest.raises(ValueError):
            run_adversary(scheduler="fifo")
