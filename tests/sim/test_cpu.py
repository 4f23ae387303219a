"""Unit tests for the virtual CPU and interrupt stealing."""

import pytest

from repro.sim import CPU, CPU_MHZ, Engine, cycles_to_us, us_to_cycles


def make_cpu():
    engine = Engine()
    return engine, CPU(engine)


class TestConversions:
    def test_cycles_to_us_at_300mhz(self):
        assert cycles_to_us(300) == pytest.approx(1.0)
        assert cycles_to_us(60_000) == pytest.approx(200.0)  # 200us path create

    def test_roundtrip(self):
        assert us_to_cycles(cycles_to_us(12345)) == pytest.approx(12345)

    def test_default_clock_is_the_papers_alpha(self):
        assert CPU_MHZ == 300.0


class TestCompute:
    def test_compute_completes_after_cost(self):
        engine, cpu = make_cpu()
        done_at = []
        cpu.start_compute(100, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [100.0]

    def test_zero_cost_compute(self):
        engine, cpu = make_cpu()
        done_at = []
        cpu.start_compute(0, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [0.0]

    def test_only_one_compute_in_flight(self):
        engine, cpu = make_cpu()
        cpu.start_compute(100, lambda: None)
        with pytest.raises(RuntimeError, match="non-preemptive"):
            cpu.start_compute(10, lambda: None)

    def test_sequential_computes(self):
        engine, cpu = make_cpu()
        done = []
        cpu.start_compute(50, lambda: done.append(engine.now))
        engine.run()
        cpu.start_compute(50, lambda: done.append(engine.now))
        engine.run()
        assert done == [50.0, 100.0]
        assert cpu.compute_us == 100.0

    def test_negative_cost_rejected(self):
        _, cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.start_compute(-1, lambda: None)


class TestInterruptStealing:
    def test_interrupt_extends_running_compute(self):
        """An interrupt during a compute pushes its completion back by the
        handler cost — the paper's receive-livelock mechanism."""
        engine, cpu = make_cpu()
        done_at = []
        cpu.start_compute(100, lambda: done_at.append(engine.now))
        engine.schedule(40, cpu.interrupt, 15.0)
        engine.run()
        assert done_at == [115.0]

    def test_many_interrupts_accumulate(self):
        engine, cpu = make_cpu()
        done_at = []
        cpu.start_compute(100, lambda: done_at.append(engine.now))
        for t in (10, 20, 30, 40):
            engine.schedule(t, cpu.interrupt, 5.0)
        engine.run()
        assert done_at == [120.0]
        assert cpu.interrupt_us == 20.0
        assert cpu.interrupts_taken == 4

    def test_interrupt_handler_effects_are_immediate(self):
        """Handler logic (classification, enqueue) happens at interrupt
        time even though the running thread pays later."""
        engine, cpu = make_cpu()
        log = []
        cpu.start_compute(100, lambda: log.append(("done", engine.now)))
        engine.schedule(40, cpu.interrupt, 15.0,
                        lambda: log.append(("handler", engine.now)))
        engine.run()
        assert log == [("handler", 40.0), ("done", 115.0)]

    def test_interrupt_while_idle_delays_next_compute(self):
        engine, cpu = make_cpu()
        cpu.interrupt(25.0)
        assert cpu.busy_until == 25.0
        done_at = []
        cpu.start_compute(10, lambda: done_at.append(engine.now))
        engine.run()
        assert done_at == [35.0]

    def test_interrupt_returns_handler_result(self):
        _, cpu = make_cpu()
        assert cpu.interrupt(1.0, lambda: "classified") == "classified"

    def test_negative_interrupt_cost_rejected(self):
        _, cpu = make_cpu()
        with pytest.raises(ValueError):
            cpu.interrupt(-1.0)

    def test_interrupt_after_compute_completion_does_not_resurrect(self):
        engine, cpu = make_cpu()
        done = []
        cpu.start_compute(10, lambda: done.append(engine.now))
        engine.run()
        cpu.interrupt(5.0)
        engine.run()
        assert done == [10.0]


class TestUtilization:
    def test_utilization_tracks_compute_and_interrupts(self):
        engine, cpu = make_cpu()
        cpu.start_compute(60, lambda: None)
        engine.schedule(10, cpu.interrupt, 20.0)
        engine.run()          # finishes at t=80
        engine.run_until(100)
        assert cpu.utilization() == pytest.approx(0.8)

    def test_utilization_zero_window(self):
        _, cpu = make_cpu()
        assert cpu.utilization() == 0.0


def test_a_compute_completion_passes_its_arguments():
    engine, cpu = make_cpu()
    done = []
    cpu.start_compute(10, lambda *args: done.append((engine.now, args)),
                      "thread", 7)
    engine.schedule_at(4, cpu.interrupt, 2.5)
    engine.run()
    assert done == [(12.5, ("thread", 7))]
