"""Kernel-level tracing: per-path opt-in on the full Figure 9 machine."""

import pytest

from repro.core import PA_TRACE
from repro.experiments import Testbed
from repro.mpeg.clips import clip_by_name

PORT_TRACED = 6000
PORT_PLAIN = 6010


@pytest.fixture(scope="module")
def dual_session_world():
    """Two concurrent video sessions: one traced, one not."""
    testbed = Testbed(seed=5)
    kernel = testbed.build_scout()
    profile = clip_by_name("Neptune")
    src_a = testbed.add_video_source(profile, dst_port=PORT_TRACED, seed=5,
                                     nframes=40)
    src_b = testbed.add_video_source(profile, dst_port=PORT_PLAIN, seed=6,
                                     nframes=40)
    traced = kernel.start_video(profile, (src_a.ip, src_a.src_port),
                                local_port=PORT_TRACED, trace=True)
    plain = kernel.start_video(profile, (src_b.ip, src_b.src_port),
                               local_port=PORT_PLAIN)
    testbed.start_all()
    testbed.run_until_sources_done()
    return testbed, kernel, traced, plain


def test_trace_attribute_reaches_only_the_opted_in_path(dual_session_world):
    _testbed, kernel, traced, plain = dual_session_world
    assert traced.path.attrs.get(PA_TRACE) is kernel.observatory
    assert traced.path.observer is not None
    assert plain.path.observer is None
    assert PA_TRACE not in plain.path.attrs
    assert list(kernel.observatory.observers) == [traced.path.pid]


def test_spans_cover_every_stage_traversal(dual_session_world):
    """The enabled-mode acceptance criterion: each stage traversal of the
    traced path produced exactly one stage span."""
    _testbed, kernel, traced, _plain = dual_session_world
    recorder = kernel.observatory.recorder
    registry = kernel.observatory.metrics
    alias = recorder.alias_for(traced.path)
    assert recorder.evicted == 0
    messages = traced.path.stats.messages_bwd
    assert messages > 0
    stage_spans = {}
    for span in recorder.spans:
        if span.kind == "stage" and span.path == alias:
            stage_spans[span.label] = stage_spans.get(span.label, 0) + 1
    # Every network stage sees every BWD message; DISPLAY only sees the
    # assembled frames MPEG forwards.
    for router in ("ETH", "IP", "UDP", "MFLOW", "MPEG"):
        assert stage_spans[f"{router}.BWD"] == messages
        assert registry.total("stage_traversals_total", path=alias,
                              stage=f"{router}.BWD") == messages
    assert stage_spans["DISPLAY.BWD"] == traced.sink.queue.enqueued
    # And one whole-traversal span per delivered message.
    traversals = [s for s in recorder.spans
                  if s.kind == "traversal" and s.path == alias]
    assert len(traversals) == messages + traced.path.stats.messages_fwd


def test_untraced_path_appears_in_no_series(dual_session_world):
    _testbed, kernel, _traced, plain = dual_session_world
    registry = kernel.observatory.metrics
    assert plain.frames_presented > 0  # it worked, just unobserved
    plain_alias_candidates = {f"P{plain.path.pid}", str(plain.path.pid)}
    for series in registry.series():
        labels = dict(series.labels)
        assert labels.get("path") not in plain_alias_candidates


def test_deadline_slack_recorded_per_presented_frame(dual_session_world):
    _testbed, kernel, traced, _plain = dual_session_world
    registry = kernel.observatory.metrics
    alias = kernel.observatory.recorder.alias_for(traced.path)
    slack = registry.get("deadline_slack_us", path=alias)
    assert slack is not None
    assert slack.count == traced.sink.queue.enqueued
    assert slack.count >= traced.frames_presented > 0


def test_demux_spans_record_classification_for_traced_path(
        dual_session_world):
    _testbed, kernel, traced, _plain = dual_session_world
    registry = kernel.observatory.metrics
    recorder = kernel.observatory.recorder
    alias = recorder.alias_for(traced.path)
    demux_total = registry.total("path_demux_total", path=alias)
    assert demux_total == traced.path.stats.messages_bwd
    hops = registry.get("path_demux_hops", path=alias)
    assert hops.min >= 1
    demux_spans = [s for s in recorder.spans
                   if s.kind == "demux" and s.path == alias]
    assert len(demux_spans) == demux_total


def test_armed_observatory_counts_unclassified_frames(dual_session_world):
    _testbed, kernel, _traced, _plain = dual_session_world
    registry = kernel.observatory.metrics
    before = registry.total("kernel_unclassified_drops")
    kernel._rx(b"\x00" * 64)  # garbage no router claims
    assert registry.total("kernel_unclassified_drops") == before + 1


def test_trace_experiment_is_registered():
    from repro.experiments import EXPERIMENTS

    assert "trace" in EXPERIMENTS
