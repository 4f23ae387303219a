"""Reconciliation: every metric series reads the book its owner keeps.

A count that another object already keeps — ``PathStats``, a queue's
``dropped``, the flow cache's ``hits`` — is a series the registry
collects on demand, so the two agree by construction.  These tests pin
that each collected family reads the *right* book, after a workload that
moved it, and that the spans and histograms the registry does store
reconcile with the same books.
"""

import pytest

from repro.core import Attrs
from repro.core.attributes import PA_NET_PARTICIPANTS
from repro.core.queues import QUEUE_ROLE_NAMES
from repro.experiments import Testbed
from repro.experiments.micro import REMOTE_IP, Fig7Stack
from repro.kernel import ScoutKernel
from repro.mpeg.clips import clip_by_name
from repro.multipath import PathPool
from repro.net.common import PA_LOCAL_PORT
from repro.net.sockdev import SocketNetDevice
from repro.observe import MetricsRegistry
from repro.sim import SimWorld

PORT = 6000


def _run_loaded_session(nframes=60, inq_len=4, skip=2):
    """A table2-style loaded run: a traced path under queue pressure
    (tiny input queue) with early discard active (skip=2), so the
    reconciliation covers messages, cycles, and several drop categories."""
    testbed = Testbed(seed=2)
    kernel = testbed.build_scout()
    profile = clip_by_name("Neptune")
    # An aggressive source (large initial window, faster-than-realtime
    # pacing) overruns the tiny input queue, so inq_overflow drops join
    # the early_discard ones.
    source = testbed.add_video_source(profile, dst_port=PORT, seed=2,
                                      nframes=nframes, initial_window=64,
                                      pace_fps=4 * profile.fps)
    session = kernel.start_video(profile, (source.ip, source.src_port),
                                 local_port=PORT, trace=True,
                                 inq_len=inq_len, skip=skip)
    testbed.start_all()
    testbed.run_until_sources_done()
    return kernel, session


@pytest.fixture(scope="module")
def loaded():
    return _run_loaded_session()


def test_workload_produced_the_pressure_it_reconciles(loaded):
    kernel, session = loaded
    stats = session.path.stats
    assert stats.messages_bwd > 0
    assert stats.cycles > 0
    assert stats.drops > 0  # tiny queue + skip guarantee real drops
    assert len(stats.drop_reasons) >= 2


def test_messages_reconcile(loaded):
    kernel, session = loaded
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(session.path)
    stats = session.path.stats
    assert registry.total("path_messages_total", path=alias,
                          direction="BWD") == stats.messages_bwd
    assert registry.total("path_messages_total", path=alias,
                          direction="FWD") == stats.messages_fwd


def test_cycles_reconcile(loaded):
    kernel, session = loaded
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(session.path)
    assert registry.total("path_cycles_total", path=alias) \
        == pytest.approx(session.path.stats.cycles)


def test_drops_reconcile_in_total_and_per_category(loaded):
    kernel, session = loaded
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(session.path)
    stats = session.path.stats
    assert registry.total("path_drops_total", path=alias) == stats.drops
    for category, count in stats.drop_reasons.items():
        assert registry.total("path_drops_total", path=alias,
                              category=category) == count, category


def _queue_books(request):
    kernel, session = request.getfixturevalue("loaded")
    alias = kernel.observatory.recorder.alias_for(session.path)
    return kernel.observatory.metrics, [
        ("queue_drops_total", {"path": alias, "queue": QUEUE_ROLE_NAMES[role]},
         queue.dropped) for role, queue in enumerate(session.path.q)]


def _flow_cache_books(request):
    kernel, _session = request.getfixturevalue("loaded")
    cache = kernel.flow_cache
    return kernel.observatory.metrics, [
        (f"flow_cache_{field}_total", {}, getattr(cache, field))
        for field in ("hits", "misses", "evictions", "invalidations")]


def _fresh_kernel():
    world = SimWorld(seed=1)
    kernel = ScoutKernel(world, world.new_segment(), udp_sink=True)
    kernel.arp.add_entry("10.0.0.2", "02:00:00:00:00:02")
    return kernel


def _group_books(request):
    """An untraced kernel binds every video group it starts."""
    kernel = _fresh_kernel()
    group = kernel.start_video_group(clip_by_name("Neptune"),
                                     ("10.0.0.2", 7000)).group
    group.note_dispatch_failure()
    labels = {"group": group.name, "policy": group.policy.name}
    return kernel.observatory.metrics, [
        (f"multipath_{field}_total", labels, getattr(group, field))
        for field in ("dispatches", "dispatch_failures", "respreads")]


def _pool_books(request):
    stack = Fig7Stack()
    pool = PathPool(stack.test)
    registry = MetricsRegistry()
    pool.bind_metrics(registry)
    attrs = Attrs({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                   PA_LOCAL_PORT: PORT})
    pool.release(pool.acquire(attrs))
    pool.acquire(attrs)
    return registry, [("path_pool_hits_total", {}, pool.hits),
                      ("path_pool_misses_total", {}, pool.misses)]


def _sockdev_books(request):
    device = SocketNetDevice("02:00:00:00:00:01", name="m0")
    registry = MetricsRegistry()
    device.send(b"\xff" * 64)  # before the binding: still on the books
    device.bind_metrics(registry)
    device.send(b"\xff" * 64)
    return registry, [
        ("sockdev_drops", {"device": "m0", "reason": reason}, count)
        for reason, count in device.drop_ledger().items()]


def _unclassified_books(request):
    kernel = _fresh_kernel()
    kernel.device.rx_handler(b"\x00" * 64)  # garbage no router claims
    return kernel.observatory.metrics, [
        ("kernel_unclassified_drops", {}, kernel.unclassified_drops)]


def _adversary_books(request):
    from repro.experiments import adversary_exp

    made = {}

    class Capturing(adversary_exp.DropLedger):
        def __init__(self):
            super().__init__()
            made["ledger"] = self

    class Observing(adversary_exp.Observatory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["observatory"] = self

    monkeypatch = request.getfixturevalue("monkeypatch")
    monkeypatch.setattr(adversary_exp, "DropLedger", Capturing)
    monkeypatch.setattr(adversary_exp, "Observatory", Observing)
    result = adversary_exp.run_adversary(
        strategy="queue_storm", duration_us=30_000.0, horizon_us=20_000.0)
    assert result.metrics_reconciled
    return made["observatory"].metrics, [
        (adversary_exp.OUTCOME_METRIC, {"category": category}, count)
        for category, count in made["ledger"].counts().items()]


BOOKS = {
    "queues": _queue_books,
    "flow_cache": _flow_cache_books,
    "groups": _group_books,
    "pools": _pool_books,
    "sockdev": _sockdev_books,
    "unclassified": _unclassified_books,
    "adversary": _adversary_books,
}


@pytest.mark.parametrize("family", list(BOOKS))
def test_collected_series_read_their_book(family, request):
    registry, books = BOOKS[family](request)
    assert any(count for _name, _labels, count in books), \
        "the workload must move the book it checks"
    for name, labels, count in books:
        assert registry.total(name, **labels) == pytest.approx(count), \
            (name, labels)


def test_drop_spans_match_drop_counts(loaded):
    kernel, session = loaded
    recorder = kernel.observatory.recorder
    assert recorder.evicted == 0  # precondition: nothing rotated out
    drop_spans = [s for s in recorder.spans if s.kind == "drop"]
    assert len(drop_spans) == session.path.stats.drops


def test_queue_listener_totals_reconcile_with_queues(loaded):
    kernel, session = loaded
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(session.path)
    for role, queue in enumerate(session.path.q):
        name = QUEUE_ROLE_NAMES[role]
        hist = registry.get("queue_depth_at_enqueue", path=alias, queue=name)
        assert hist.count == queue.enqueued
        drops = registry.get("queue_drops_total", path=alias, queue=name)
        assert drops.value == queue.dropped


def test_teardown_keeps_the_ledgers_balanced(loaded):
    """Deleting the path (possibly with queued messages) must keep
    metrics == stats and close every queue-wait span."""
    kernel, session = loaded
    registry = kernel.observatory.metrics
    recorder = kernel.observatory.recorder
    alias = recorder.alias_for(session.path)
    kernel.stop_video(session)
    stats = session.path.stats
    assert registry.total("path_drops_total", path=alias) == stats.drops
    assert recorder.open_count() == 0
    for series in registry.series("queue_depth", path=alias):
        assert series.value >= 0


def test_display_outq_overflow_reconciles():
    """The display stage's output-queue discard must hit every ledger at
    once: the stage-local counter, the path's per-category drop stats,
    the queue's drop counter, and the metrics registry.  (The stage used
    to bump only its local counter, leaving these frames invisible to
    reconciliation.)"""
    from repro.core.stage import BWD
    from repro.mpeg.decoder import DecodedFrame

    testbed = Testbed(seed=2)
    kernel = testbed.build_scout()
    profile = clip_by_name("Neptune")
    source = testbed.add_video_source(profile, dst_port=6001, seed=2,
                                      nframes=1)
    session = kernel.start_video(profile, (source.ip, source.src_port),
                                 local_port=6001, trace=True)
    path = session.path
    stage = path.stage_of("DISPLAY")
    outq = path.output_queue(BWD)

    def frame():
        return DecodedFrame(number=0, ftype=0, bits=1_000, n_mb=10,
                            width=16, height=16)

    for _ in range(outq.maxlen):
        outq.enqueue(frame())
    deliver = stage.deliver_fn(BWD)
    deliver(stage.end[BWD], frame(), BWD)

    assert stage.frames_dropped == 1
    assert path.stats.drop_reasons["outq_overflow"] == 1
    assert outq.dropped == 1
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(path)
    assert registry.total("path_drops_total", path=alias,
                          category="outq_overflow") == 1
    assert registry.get("queue_drops_total", path=alias,
                        queue="bwd_out").value == 1
