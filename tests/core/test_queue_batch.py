"""Tests for batched dequeue (DESIGN.md §13): one call moves a run of
items while statistics and listeners stay exact per item."""

from repro.core import DeadlineOrderedQueue, PathQueue


class TestDequeueBatch:
    def test_drains_everything_by_default(self):
        q = PathQueue(maxlen=8)
        for item in "abcd":
            q.enqueue(item)
        assert q.dequeue_batch() == list("abcd")
        assert q.is_empty()

    def test_limit_caps_the_run(self):
        q = PathQueue(maxlen=8)
        for item in "abcd":
            q.enqueue(item)
        assert q.dequeue_batch(2) == ["a", "b"]
        assert len(q) == 2

    def test_empty_queue_yields_empty_list(self):
        assert PathQueue().dequeue_batch() == []

    def test_stats_and_listeners_exact_per_item(self):
        q = PathQueue(maxlen=8)
        seen = []
        q.on_dequeue(lambda queue: seen.append(queue.last_dequeued))
        for item in "abc":
            q.enqueue(item)
        q.dequeue_batch()
        assert seen == ["a", "b", "c"]
        assert q.dequeued == 3

    def test_batch_equals_repeated_dequeue(self):
        solo, batch = PathQueue(maxlen=8), PathQueue(maxlen=8)
        for q in (solo, batch):
            for i in range(5):
                q.enqueue(i)
        assert batch.dequeue_batch(5) == [solo.dequeue() for _ in range(5)]

    def test_deadline_queue_drains_in_deadline_order(self):
        q = DeadlineOrderedQueue(maxlen=8)
        for deadline in (30.0, 10.0, 20.0):
            q.enqueue((deadline, f"frame@{deadline:.0f}"))
        assert [d for d, _item in q.dequeue_batch()] == [10.0, 20.0, 30.0]
