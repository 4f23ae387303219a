"""PathPool: warm acquisition, canonical keying, admission integration.

Includes the admission-grant regression: grants must follow the path's
lifetime (released on delete, held while parked) no matter who deletes
the path — the creator, the pool, or a watchdog acting behind its back.
"""

import pytest

from repro.admission import MemoryAdmission, path_memory_footprint
from repro.core import (Attrs, FlowCache, Msg, Path, classify, flow_key_frame,
                        path_create)
from repro.core.attributes import PA_NET_PARTICIPANTS
from repro.core.errors import AdmissionError
from repro.experiments.micro import REMOTE_IP, Fig7Stack
from repro.multipath import PathPool, canonical_signature
from repro.net.common import PA_LOCAL_PORT

PORT = 6100


def conn_attrs(port=PORT):
    return Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                  PA_LOCAL_PORT: port})


def make_pool(stack=None, **kwargs):
    stack = stack if stack is not None else Fig7Stack()
    return stack, PathPool(stack.test, **kwargs)


class TestSignature:
    def test_key_order_is_canonical(self):
        assert canonical_signature({"a": 1, "b": 2}) \
            == canonical_signature({"b": 2, "a": 1})

    def test_value_differences_key_different_buckets(self):
        assert canonical_signature({"a": 1}) != canonical_signature({"a": 2})

    def test_private_bookkeeping_keys_excluded(self):
        stamped = {"a": 1, "_transforms_applied": ("x",),
                   "_edf_deadline_fn": lambda: 0}
        assert canonical_signature(stamped) == canonical_signature({"a": 1})

    def test_attrs_and_dicts_key_identically(self):
        attrs = Attrs({"a": (1, 2)})
        assert canonical_signature(attrs) == canonical_signature({"a": (1, 2)})

    def test_unhashable_values_still_key(self):
        assert canonical_signature({"a": [1, 2]}) \
            == canonical_signature({"a": [1, 2]})


class TestAcquireRelease:
    def test_cold_acquire_is_a_miss_that_creates(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        assert path.state == "established"
        assert pool.misses == 1 and pool.hits == 0

    def test_release_then_acquire_is_a_warm_hit(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        assert pool.release(path)
        assert len(pool) == 1
        again = pool.acquire(conn_attrs())
        assert again is path
        assert pool.hits == 1
        assert len(pool) == 0

    def test_different_invariants_never_share_a_bucket(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs(PORT))
        pool.release(path)
        other = pool.acquire(conn_attrs(PORT + 1))
        assert other is not path
        assert pool.misses == 2

    def test_prewarm_fills_the_bucket(self):
        stack, pool = make_pool()
        assert pool.prewarm(conn_attrs(), count=3) == 3
        assert pool.idle_count(conn_attrs()) == 3
        path = pool.acquire(conn_attrs())
        assert pool.hits == 1 and pool.misses == 0
        assert path.state == "established"

    def test_low_watermark_refills_after_a_hit(self):
        stack, pool = make_pool(low_watermark=2)
        pool.prewarm(conn_attrs(), count=2)
        pool.acquire(conn_attrs())
        assert pool.idle_count(conn_attrs()) == 2  # topped back up
        assert pool.refills == 1

    def test_bucket_cap_deletes_instead_of_parking(self):
        stack, pool = make_pool(max_idle=1)
        a = pool.acquire(conn_attrs())
        b = pool.acquire(conn_attrs())
        assert pool.release(a)
        assert not pool.release(b)
        assert b.state == "deleted"
        assert pool.discards == 1

    def test_released_path_must_leave_its_group_first(self):
        from repro.multipath import PathGroup

        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        PathGroup().add(path)
        with pytest.raises(ValueError, match="remove it from the group"):
            pool.release(path)

    def test_drain_deletes_everything_idle(self):
        stack, pool = make_pool()
        pool.prewarm(conn_attrs(), count=3)
        assert pool.drain() == 3
        assert len(pool) == 0


class TestLifecycleSafety:
    def test_parking_purges_flow_cache_entries(self):
        stack, pool = make_pool()
        cache = FlowCache()
        path = pool.acquire(conn_attrs())
        msg = Msg(stack.udp_frame(PORT))
        assert classify(stack.eth, msg, cache=cache) is path
        assert len(cache) == 1
        pool.release(path)
        # An idle spare must be unreachable from cached flows.
        frame = stack.udp_frame(PORT)
        assert cache.lookup(flow_key_frame(frame), Msg(frame)) is None
        assert len(cache) == 0

    def test_path_deleted_behind_the_pools_back_is_forgotten(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        pool.release(path)
        path.delete()  # a watchdog (or anyone) kills the parked path
        assert len(pool) == 0
        fresh = pool.acquire(conn_attrs())
        assert fresh is not path
        assert fresh.state == "established"

    def test_donated_path_deleted_behind_the_pools_back_is_forgotten(self):
        stack, pool = make_pool()
        donated = path_create(stack.test, conn_attrs())
        assert pool.release(donated)
        assert len(pool) == 1
        donated.delete()
        assert len(pool) == 0
        assert pool.idle_count(conn_attrs()) == 0
        assert donated.pid not in pool._birth_signature
        assert pool.acquire(conn_attrs()) is not donated

    def test_discard_deletes_and_forgets(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        pool.release(path)
        pool.discard(path)
        assert path.state == "deleted"
        assert len(pool) == 0

    def test_releasing_a_dead_path_refuses_to_park_it(self):
        stack, pool = make_pool()
        path = pool.acquire(conn_attrs())
        path.delete()
        assert not pool.release(path)
        assert len(pool) == 0


class TestAdmissionIntegration:
    def _admitted_pool(self, budget_paths=4, **kwargs):
        stack = Fig7Stack()
        probe = path_create(stack.test, conn_attrs())
        footprint = path_memory_footprint(probe)
        probe.delete()
        admission = MemoryAdmission(system_budget=budget_paths * footprint,
                                    per_path_grant=footprint)
        stack, pool = make_pool(stack, admission=admission, **kwargs)
        return stack, pool, admission, footprint

    def test_pooled_paths_count_against_the_budget(self):
        stack, pool, admission, footprint = self._admitted_pool(budget_paths=2)
        pool.prewarm(conn_attrs(), count=2)
        assert admission.committed == 2 * footprint
        with pytest.raises(AdmissionError):
            pool.acquire(conn_attrs(PORT + 1))

    def test_grant_released_on_explicit_delete(self):
        stack, pool, admission, footprint = self._admitted_pool(budget_paths=1)
        path = pool.acquire(conn_attrs())
        assert admission.committed == footprint
        path.delete()
        assert admission.committed == 0

    def test_grant_released_when_pool_drains(self):
        stack, pool, admission, _fp = self._admitted_pool(budget_paths=2)
        pool.prewarm(conn_attrs(), count=2)
        pool.drain()
        assert admission.committed == 0
        # The reclaimed budget is usable again immediately.
        assert pool.acquire(conn_attrs()).state == "established"

    def test_grant_released_even_when_establish_fails(self):
        stack = Fig7Stack()
        admission = MemoryAdmission(system_budget=1 << 30,
                                    per_path_grant=1 << 30)
        from repro.core.errors import PathCreationError

        class Boom(Exception):
            pass

        original = stack.test.create_stage

        def sabotage(enter_service, attrs):
            stage, hop = original(enter_service, attrs)
            if stage is not None:
                def bad_establish(a):
                    raise Boom("establish sabotaged")
                stage.establish = bad_establish
            return stage, hop

        stack.test.create_stage = sabotage
        with pytest.raises(PathCreationError):
            path_create(stack.test, conn_attrs(), admission=admission)
        assert admission.committed == 0

    def test_double_release_is_idempotent(self):
        # stop_video releases explicitly *and* the delete hook fires:
        # the second release must be a no-op, not an underflow.
        stack, pool, admission, _fp = self._admitted_pool()
        path = pool.acquire(conn_attrs())
        path.delete()
        admission.release(path)
        assert admission.committed == 0
