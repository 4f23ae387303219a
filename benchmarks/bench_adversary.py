"""Adversarial stability acceptance benchmark (DESIGN.md §14).

The claim under test: for every worst-case traffic strategy the
``(rho, w)``-bounded adversary knows, under both scheduler
configurations, the hardened receive pipeline stays *stable* — queue
depth never exceeds its proven bound, no admitted flow starves within
the horizon, and the drop ledger reconciles every injected message
exactly once against the metrics registry.

This is not a throughput race; the artifact is the verdict itself.  Each
strategy x scheduler cell records the machine-checked evidence (injected
/ delivered / shed / overflowed counts, the supremum queue depth against
its bound, starvation worst gap, watchdog behaviour, the determinism
digest) into ``benchmarks/results/BENCH_adversary.json`` for CI to
upload; a single violated verdict fails the benchmark.
"""

import pytest

from repro.experiments import format_adversary, run_adversary_matrix
from repro.faults import STRATEGIES

SEED = 0

#: Overload point: rho * service = 0.04 * 40 = 1.6 -- 60% more work than
#: the consumer can drain, so the shedder and verdict engine are
#: genuinely exercised (an under-committed adversary proves nothing).
RHO_PER_US = 0.04
W = 24


class TestAdversaryStability:

    @pytest.fixture(scope="class")
    def matrix(self):
        return run_adversary_matrix(seed=SEED, rho_per_us=RHO_PER_US, w=W)

    def test_full_matrix_holds(self, matrix, record_result, record_bench):
        assert len(matrix) == 2 * len(STRATEGIES)
        record_result("adversary_matrix", format_adversary(matrix))
        for result in matrix:
            section = f"{result.strategy}.{result.scheduler}"
            record_bench("adversary", section, {
                "seed": result.seed,
                "members": result.members,
                "rho_per_us": RHO_PER_US,
                "w": W,
                "injected": result.injected,
                "delivered": result.delivered,
                "shed": result.shed,
                "overflowed": result.overflowed,
                "end_of_run": result.end_of_run,
                "max_queue_depth": result.max_queue_depth,
                "depth_bound": result.depth_bound,
                "starved_flows": result.verdict.starved_flows,
                "worst_progress_gap_us": result.verdict.worst_progress_gap_us,
                "horizon_us": result.verdict.horizon_us,
                "leaked": result.verdict.leaked,
                "double_counted": result.verdict.double_counted,
                "metrics_reconciled": result.metrics_reconciled,
                "watchdog_rebuilds": result.watchdog_rebuilds,
                "watchdog_deferrals": result.watchdog_deferrals,
                "policy_switches": result.policy_switches,
                "digest": result.digest,
                "ok": result.ok,
            })
            assert result.ok, result.verdict.render()

    def test_adversary_is_actually_adversarial(self, matrix):
        """The verdicts must be earned: the offered load overcommits the
        consumer, so a meaningful share of traffic is shed or dropped
        and the depth bound is approached, not idled under."""
        for result in matrix:
            assert result.injected > 200
            # Either admission had to shed, or the burst visibly piled
            # up (queue_storm drains between phase-locked bursts, so it
            # pressures depth without tripping the shedder).
            assert (result.shed + result.overflowed > 0
                    or result.max_queue_depth >= W // 2), result.strategy
        assert any(r.shed > 0 for r in matrix)
        assert any(r.max_queue_depth >= r.depth_bound // 2 for r in matrix)

    def test_watchdog_never_storms(self, matrix):
        """Overload is discriminated from stalls: adversarial phase must
        not provoke a single rebuild of a healthy path."""
        for result in matrix:
            assert result.watchdog_rebuilds == 0, result.strategy
