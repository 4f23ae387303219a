"""SimWorld convenience-layer tests."""

import pytest

from repro import params
from repro.api import EthAddr, IpAddr, Scout, build_udp_frame
from repro.sim import Compute, SimWorld, Sleep


class TestSimWorld:
    def test_default_policies_registered(self):
        world = SimWorld()
        assert world.scheduler.policy("rr") is not None
        assert world.scheduler.policy("edf") is not None

    def test_run_for_advances_clock(self):
        world = SimWorld()
        world.run_for(1234.5)
        assert world.now == 1234.5
        world.run_for(100)
        assert world.now == 1334.5

    def test_seeded_rng_is_deterministic(self):
        a = SimWorld(seed=77).rng.random(5)
        b = SimWorld(seed=77).rng.random(5)
        assert (a == b).all()

    def test_spawn_runs_on_default_policy(self):
        world = SimWorld()
        done = []

        def body():
            yield Compute(10)
            done.append(world.now)

        world.spawn(body())
        world.run_until_idle()
        assert done == [10.0]

    def test_run_until_idle_honors_event_cap(self):
        world = SimWorld()

        def forever():
            while True:
                yield Sleep(1)

        world.spawn(forever())
        processed = world.run_until_idle(max_events=50)
        assert processed == 50

    def test_unknown_policy_rejected(self):
        world = SimWorld()
        with pytest.raises(KeyError):
            world.spawn(iter(()), policy="gang")

    def test_cpu_clock_matches_paper_default(self):
        assert SimWorld().cpu.mhz == 300.0

    def test_arbitrary_number_of_policies(self):
        """'Scout supports an arbitrary number of scheduling policies, and
        allocates a percentage of CPU time to each.'"""
        from repro.sim import FixedPriorityRR

        world = SimWorld()
        world.scheduler.add_policy("batch", FixedPriorityRR(levels=2),
                                   share=0.25)
        done = []

        def body():
            yield Compute(5)
            done.append("batch-ran")

        world.spawn(body(), policy="batch")
        world.run_until_idle()
        assert done == ["batch-ran"]

    def test_policy_share_must_be_positive(self):
        from repro.sim import FixedPriorityRR

        world = SimWorld()
        with pytest.raises(ValueError):
            world.scheduler.add_policy("bad", FixedPriorityRR(), share=0)


INQ_LEN = 8


def udp_frame(sequence: int, dport: int = 6100) -> bytes:
    return build_udp_frame(
        EthAddr("02:00:00:00:00:02"), EthAddr("02:00:00:00:00:01"),
        IpAddr("10.0.0.2"), IpAddr("10.0.0.1"), 7000, dport,
        b"seam-%06d" % sequence)


def booted_sink() -> Scout:
    scout = Scout(seed=3, udp_sink=True, display=False)
    scout.add_peer("10.0.0.2", "02:00:00:00:00:02")
    scout.kernel.start_udp_sink(6100, ("10.0.0.2", 7000), batch=4,
                                inq_len=INQ_LEN)
    return scout


class TestRunReady:
    """``run_ready()`` is the wall-clock pump (``Scout.serve``): the same
    scheduler as ``run_until_idle()``, stopped when the threads are."""

    #: name -> (frames offered to both kernels, the ledger they must leave)
    BURSTS = {
        "clean": ([udp_frame(seq) for seq in range(INQ_LEN)], {}),
        "overflow": ([udp_frame(seq) for seq in range(INQ_LEN + 3)],
                     {"inq_overflow": 3}),
        "unbound_port": ([udp_frame(seq, dport=6100 if seq % 2 else 6999)
                          for seq in range(INQ_LEN)],
                         {"unclassified": INQ_LEN // 2}),
    }

    @pytest.mark.parametrize("burst", BURSTS)
    def test_same_books_as_run_until_idle(self, burst):
        frames, ledger = self.BURSTS[burst]

        def books(drain):
            scout = booted_sink()
            scout.kernel.rx_burst(frames)
            drain(scout.world)
            return ([msg.to_bytes() for msg in scout.kernel.test.received],
                    scout.kernel.stats(), scout.kernel.drop_ledger(),
                    scout.world.now)

        pumped = books(SimWorld.run_ready)
        assert pumped == books(SimWorld.run_until_idle)
        assert pumped[0] and pumped[2] == ledger and pumped[3] > 0

    def test_timers_due_later_stay_in_the_heap(self):
        scout = booted_sink()
        fragment = bytearray(udp_frame(0))
        fragment[20] |= 0x20                    # MF: the rest never comes
        scout.kernel.rx_burst([bytes(fragment)])
        scout.world.run_ready()
        buffers = scout.kernel.frag_path.stages[0]._buffers
        assert len(buffers) == 1
        assert scout.kernel.drop_ledger() == {}
        assert scout.world.now < params.IP_REASSEMBLY_TIMEOUT_US
        scout.world.run_for(params.IP_REASSEMBLY_TIMEOUT_US)
        assert not buffers
        assert scout.kernel.drop_ledger() == {"reassembly_timeout": 1}

    def test_non_op_yield_raises_naming_the_thread(self):
        world = SimWorld()

        def body():
            yield object()

        world.spawn(body(), name="bad-thread")
        with pytest.raises(TypeError, match="bad-thread"):
            world.run_ready()
