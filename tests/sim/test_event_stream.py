"""The engine's event stream is a contract, pinned by one scenario.

RR and EDF threads compete under unequal shares; they compute, sleep,
yield, block on a full queue (``Enqueue``, ``WaitSpace``) and on an empty
one (``Dequeue``, ``DequeueBatch``), while device interrupts steal from
in-flight computes so their completions re-arm.  At every thread resume
the scenario records ``(engine.now, engine.events_processed, thread)``.

A change to the engine, CPU or scheduler may make a hop cheaper but must
keep this sequence: the same events at the same virtual times, in the
same order and the same number.  A change that adds, drops or reorders an
event fails here; it must say why and re-record the literal.
"""

from repro.core import PathQueue
from repro.sim import (
    DONE,
    Compute,
    Dequeue,
    DequeueBatch,
    Enqueue,
    SimWorld,
    Sleep,
    WaitSpace,
    YIELD,
)

#: ``(engine.now, engine.events_processed, thread)`` at each resume.
RESUMES = [
    (6.5, 4, 'producer'),
    (6.5, 4, 'producer'),
    (10.5, 5, 'producer'),
    (10.5, 5, 'producer'),
    (10.5, 7, 'producer'),
    (17.0, 10, 'producer'),
    (17.0, 11, 'consumer'),
    (37.5, 15, 'consumer'),
    (37.5, 16, 'producer'),
    (41.5, 17, 'producer'),
    (41.5, 17, 'producer'),
    (45.5, 18, 'producer'),
    (45.5, 19, 'rt'),
    (54.0, 22, 'rt'),
    (54.0, 23, 'rt'),
    (54.0, 24, 'consumer'),
    (54.0, 25, 'producer'),
    (54.0, 26, 'producer'),
    (58.0, 28, 'producer'),
    (58.0, 29, 'consumer'),
    (58.0, 29, 'consumer'),
    (76.0, 31, 'consumer'),
    (76.0, 32, 'producer'),
    (80.0, 33, 'producer'),
    (80.0, 33, 'producer'),
    (84.0, 34, 'producer'),
    (84.0, 35, 'rt'),
    (90.0, 36, 'rt'),
    (90.0, 37, 'rt'),
    (90.0, 38, 'consumer'),
    (90.0, 39, 'producer'),
    (90.0, 40, 'producer'),
    (93.0, 44, 'consumer'),
    (93.0, 44, 'consumer'),
    (111.0, 46, 'consumer'),
    (111.0, 47, 'watcher'),
    (112.0, 48, 'watcher'),
    (112.0, 49, 'rt'),
    (118.0, 50, 'rt'),
    (118.0, 51, 'rt'),
    (123.0, 54, 'watcher'),
    (123.0, 54, 'watcher'),
    (124.0, 55, 'watcher'),
    (135.0, 58, 'watcher'),
    (135.0, 58, 'watcher'),
    (136.0, 59, 'watcher'),
    (147.0, 62, 'watcher'),
]


def run_scenario():
    world = SimWorld(seed=1, edf_share=2.0)
    engine, cpu = world.engine, world.cpu
    queue = PathQueue(maxlen=2, name="q")
    log = []

    def resumed(name):
        log.append((engine.now, engine.events_processed, name))

    def producer():
        for i in range(8):
            yield Compute(4)
            resumed("producer")
            yield Enqueue(queue, i)
            resumed("producer")
            if i % 3 == 1:
                yield YIELD
                resumed("producer")

    def consumer():
        for _ in range(4):
            items = yield DequeueBatch(queue, 2)
            resumed("consumer")
            yield Compute(9 * len(items))
            resumed("consumer")
            yield Dequeue(queue)
            resumed("consumer")
            yield Sleep(3)
            resumed("consumer")

    def watcher():
        for _ in range(3):
            yield WaitSpace(queue)
            resumed("watcher")
            yield Compute(1)
            resumed("watcher")
            yield Sleep(11)
            resumed("watcher")

    def realtime():
        for _ in range(3):
            threads["rt"].deadline = engine.now + 40
            yield Sleep(17)
            resumed("rt")
            yield Compute(6)
            resumed("rt")
            yield YIELD
            resumed("rt")

    threads = {
        "producer": world.spawn(producer(), name="producer", priority=0),
        "consumer": world.spawn(consumer(), name="consumer", priority=1),
        "watcher": world.spawn(watcher(), name="watcher", priority=2),
    }
    threads["rt"] = world.spawn(realtime(), name="rt", policy="edf")
    # Three of these land inside a compute and push its completion back;
    # the cancelled one must neither fire nor count as an event.
    for at in (2.0, 13.0, 30.5, 47.0):
        engine.schedule_at(at, cpu.interrupt, 2.5)
    engine.schedule_at(21.0, cpu.interrupt, 100.0).cancel()
    world.run_until(60.0)
    world.run_until_idle()
    return world, threads, log


def test_every_resume_keeps_its_time_event_count_and_order():
    world, _threads, log = run_scenario()
    assert log == RESUMES


def test_the_scenario_covers_every_hop_kind():
    world, threads, _log = run_scenario()
    assert (world.engine.now, world.engine.events_processed) == (147.0, 63)
    assert world.cpu.interrupts_taken == 4
    # A blocking Enqueue, a blocking WaitSpace and an empty-queue block.
    assert threads["producer"].blocks == 4
    assert threads["watcher"].blocks == 1
    assert threads["consumer"].blocks == 3
    assert [t.state for t in threads.values()] == \
        [DONE, "blocked", DONE, DONE]

