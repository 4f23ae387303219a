"""Unit tests for the experiment harness plumbing (formatters, budgets,
testbed wiring) and the registry: every entry is complete and reachable
from ``--check``, every check can fail, and the ids that finish in
seconds pass theirs here.  The long runs are checked nightly by
``python -m repro.experiments --check``."""

import os

import pytest

from repro.admission.control import FrameCostModel
from repro.experiments import (
    EXPERIMENTS,
    AdmissionReport,
    AlfResult,
    ClipSample,
    EarlyDiscardResult,
    EdfRrResult,
    Experiment,
    MicroReport,
    PAPER_TABLE1,
    SegregationPoint,
    QueueSizingPoint,
    Table1Row,
    Table2Row,
    Testbed,
    admission_scenario,
    format_edf_rr,
    format_queue_sizing,
    format_table1,
    format_table2,
    frames_budget,
)
from repro.experiments.__main__ import main
from repro.mpeg import CANYON, NEPTUNE, clip_by_name


class TestFramesBudget:
    def test_caps_long_clips(self):
        os.environ.pop("REPRO_FULL", None)
        assert frames_budget(NEPTUNE, default_cap=400) == 400

    def test_short_clips_uncapped(self):
        from repro.mpeg import FLOWER

        assert frames_budget(FLOWER, default_cap=400) == FLOWER.nframes

    def test_repro_full_lifts_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert frames_budget(NEPTUNE, default_cap=400) == NEPTUNE.nframes


class TestTestbed:
    def test_address_allocation_unique(self):
        testbed = Testbed()
        s1 = testbed.add_video_source(CANYON, dst_port=6100, nframes=1)
        s2 = testbed.add_video_source(CANYON, dst_port=6200, nframes=1)
        assert s1.mac != s2.mac and s1.ip != s2.ip

    def test_arp_learns_hosts_added_after_kernel(self):
        testbed = Testbed()
        kernel = testbed.build_scout()
        source = testbed.add_video_source(CANYON, dst_port=6100, nframes=1)
        assert kernel.arp.resolve(source.ip) == source.mac

    def test_run_until_sources_done_times_out(self):
        testbed = Testbed()
        source = testbed.add_video_source(CANYON, dst_port=6100, nframes=5)
        # Never started: the loop must give up at max_seconds.
        testbed.run_until_sources_done(slack_seconds=0.0, max_seconds=1.0)
        assert not source.done


class TestFormatters:
    def test_table1_formatter(self):
        rows = [Table1Row("Neptune", 400, 49.5, 40.7, 49.9, 39.2)]
        text = format_table1(rows)
        assert "Neptune" in text and "49.5" in text and "39.2" in text
        assert "speedup" in text

    def test_table1_row_speedups(self):
        row = Table1Row("X", 10, 50.0, 40.0, 49.9, 39.2)
        assert row.speedup == pytest.approx(1.25)
        assert row.paper_speedup == pytest.approx(49.9 / 39.2)

    def test_table2_formatter_and_delta(self):
        row = Table2Row("Scout", 50.0, 49.0, 49.9, 49.8, 1500.0)
        assert row.delta_pct == pytest.approx(-2.0)
        text = format_table2([row])
        assert "Scout" in text and "-2.0%" in text

    def test_edf_rr_formatter(self):
        results = [EdfRrResult("edf", 128, 600, 0, 600, 0),
                   EdfRrResult("rr", 128, 464, 136, 600, 0)]
        text = format_edf_rr(results)
        assert "edf" in text and "22.7%" in text

    def test_edf_rr_miss_fraction_guards_zero(self):
        result = EdfRrResult("edf", 16, 0, 0, 0, 0)
        assert result.miss_fraction == 0.0

    def test_queue_sizing_formatter_marks_sufficient(self):
        point = QueueSizingPoint(10_000.0, 16, 48.8, 21_000.0, 3_000.0, 12)
        assert point.predicted_sufficient_inq == 14
        text = format_queue_sizing([point])
        assert "*" in text

    def test_queue_sizing_fast_rtt_floor(self):
        point = QueueSizingPoint(100.0, 2, 49.6, 2_000.0, 3_000.0, 0)
        # RTT below processing time: "two packets is sufficient".
        assert point.predicted_sufficient_inq == 2


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: Ids whose run finishes in seconds: checked on every PR.
FAST_IDS = ["e4", "multipath", "adversary", "multihop", "shard", "recovery"]


class TestRegistry:
    def test_every_entry_is_complete(self):
        assert list(EXPERIMENTS) == [
            "table1", "table2", "e3", "e4", "e5", "e6", "e7", "e8", "trace",
            "multipath", "adversary", "multihop", "shard", "recovery"]
        for name, experiment in EXPERIMENTS.items():
            assert isinstance(experiment, Experiment), name
            assert all(callable(member) for member in experiment), name

    def test_check_flag_reaches_every_check(self, monkeypatch, capsys):
        checked = []
        for name in list(EXPERIMENTS):
            monkeypatch.setitem(EXPERIMENTS, name, Experiment(
                run=lambda name=name: name,
                format=lambda result: f"table of {result}",
                check=checked.append))
        assert main(["repro.experiments", "--check"]) == 0
        assert checked == list(EXPERIMENTS)
        out = capsys.readouterr().out
        assert all(f"table of {name}" in out for name in EXPERIMENTS)

    def test_without_the_flag_nothing_is_checked(self, monkeypatch, capsys):
        def fail(result):
            raise AssertionError("must not run")

        monkeypatch.setitem(EXPERIMENTS, "e4",
                            EXPERIMENTS["e4"]._replace(check=fail))
        assert main(["repro.experiments", "e4"]) == 0
        assert "check" not in capsys.readouterr().out


@pytest.fixture(scope="module")
def fast_results():
    return {name: EXPERIMENTS[name].run() for name in FAST_IDS}


@pytest.mark.parametrize("name", FAST_IDS)
def test_fast_experiment_passes_its_check(fast_results, name):
    experiment = EXPERIMENTS[name]
    assert experiment.format(fast_results[name])
    experiment.check(fast_results[name])


def fails(name, result):
    with pytest.raises(AssertionError):
        EXPERIMENTS[name].check(result)
    return True


class TestChecksCanFail:
    """Each check is fed a result it must accept, then the same result
    doctored so that one claim no longer holds."""

    def test_table1(self):
        good = [Table1Row(clip, 400, scout, linux, scout, linux)
                for clip, (scout, linux) in PAPER_TABLE1.items()]
        EXPERIMENTS["table1"].check(good)
        slower = good[0]._replace(scout_fps=good[0].linux_fps - 1.0)
        assert fails("table1", [slower] + good[1:])
        off_paper = good[1]._replace(linux_fps=good[1].linux_fps * 0.7)
        assert fails("table1", [good[0], off_paper] + good[2:])

    def test_table2(self):
        good = [Table2Row("Scout", 49.9, 49.8, 49.9, 49.8, 4000.0),
                Table2Row("Linux", 39.2, 22.7, 39.2, 22.7, 1500.0)]
        EXPERIMENTS["table2"].check(good)
        collapsed = good[0]._replace(loaded_fps=49.9 * 0.70)  # delta -30%
        assert fails("table2", [collapsed, good[1]])
        unharmed = good[1]._replace(loaded_fps=38.0)
        assert fails("table2", [good[0], unharmed])

    def test_e3(self):
        good = [EdfRrResult("edf", 16, 600, 0, 600, 0),
                EdfRrResult("rr", 16, 600, 0, 600, 0),
                EdfRrResult("edf", 128, 600, 0, 600, 0),
                EdfRrResult("rr", 128, 465, 135, 600, 0)]
        EXPERIMENTS["e3"].check(good)
        assert fails("e3", [good[0]._replace(neptune_missed=1)] + good[1:])
        assert fails("e3", good[:3] + [good[3]._replace(neptune_missed=0)])

    def test_e4(self):
        good = MicroReport(6, 288, 168.0, 3)
        EXPERIMENTS["e4"].check(good)
        assert fails("e4", good._replace(udp_path_stages=7))
        assert fails("e4", good._replace(path_modeled_bytes=400))

    def test_e5(self):
        def series(latency, rtt, fps_by_len):
            return [QueueSizingPoint(latency, inq, fps, rtt, 3_000.0, 0)
                    for inq, fps in fps_by_len]

        fast = series(100.0, 2_000.0, [(1, 49.0), (2, 49.6), (32, 49.6)])
        slow = series(10_000.0, 21_000.0,
                      [(1, 12.0), (8, 40.0), (16, 48.8), (32, 49.0)])
        EXPERIMENTS["e5"].check(fast + slow)
        # Predicted sufficient size is 14: a 16-slot queue that still
        # starves contradicts the 2 x RTT x bandwidth rule.
        starved = slow[2]._replace(fps=30.0)
        assert fails("e5", fast + slow[:2] + [starved, slow[3]])
        never_starved = slow[0]._replace(fps=48.0)
        assert fails("e5", fast + [never_starved] + slow[1:])

    def admission_report(self):
        model = FrameCostModel()
        samples = []
        for clip, bits, micros in (("Flower", 86_378.0, 22_575.1),
                                   ("Neptune", 70_787.0, 20_456.9),
                                   ("RedsNightmare", 37_858.0, 14_997.2),
                                   ("Canyon", 10_819.0, 4_043.7)):
            model.add_sample(bits, clip_by_name(clip).pixels, micros)
            samples.append(ClipSample(clip, bits, micros, micros))
        model.fit()
        return AdmissionReport(model, samples, admission_scenario(model))

    def test_e6(self):
        good = self.admission_report()
        EXPERIMENTS["e6"].check(good)
        decisions = list(good.decisions)
        flower = next(i for i, d in enumerate(decisions)
                      if d.request == "Flower@30fps")
        decisions[flower] = decisions[flower]._replace(admitted=True)
        assert fails("e6", good._replace(decisions=decisions))
        overcommitted = [good.decisions[0]._replace(committed_after=0.99)]
        assert fails("e6", good._replace(
            decisions=overcommitted + good.decisions[1:]))
        mispredicted = good.samples[0]._replace(
            measured_frame_us=good.samples[0].measured_frame_us * 2)
        assert fails("e6", good._replace(
            samples=[mispredicted] + good.samples[1:]))

    def test_e7(self):
        good = [EarlyDiscardResult("full", 1, False, 300, 20e3, 6.0, 0, 0),
                EarlyDiscardResult("naive", 3, False, 100, 60e3, 6.0, 0, 200),
                EarlyDiscardResult("early", 3, True, 100, 21e3, 2.1, 200, 0)]
        EXPERIMENTS["e7"].check(good)
        wasteful = good[2]._replace(total_cpu_s=5.0)
        assert fails("e7", good[:2] + [wasteful])
        leaky = good[2]._replace(decoded_then_skipped=5)
        assert fails("e7", good[:2] + [leaky])

    def test_e8(self):
        fps = {"scout": (49.9, 49.5), "scout-no-segregation": (49.9, 40.0),
               "linux": (39.2, 20.0)}
        points = [SegregationPoint(system, rate, pair[i], 0.0)
                  for system, pair in fps.items()
                  for i, rate in enumerate((0, 4000))]
        alf = [AlfResult("ALF", 49.9, 0, 250),
               AlfResult("byte-stream", 49.0, 6000, 250)]
        EXPERIMENTS["e8"].check((points, alf))
        exposed = [p._replace(fps=30.0)
                   if (p.system, p.flood_pps) == ("scout", 4000) else p
                   for p in points]
        assert fails("e8", (exposed, alf))
        buffering = [alf[0]._replace(peak_decoder_buffer_bytes=512), alf[1]]
        assert fails("e8", (points, buffering))

    def test_trace(self):
        from repro.experiments import run_trace

        good = run_trace(seed=3, nframes=5)
        EXPERIMENTS["trace"].check(good)
        assert good.metrics["cache_hits"] > 0
        good.open_spans = 2
        assert fails("trace", good)
        good.open_spans = 0
        good.metrics["cache_hits"] = 0  # the report lost the flow cache
        assert fails("trace", good)

    def test_multipath(self, fast_results):
        points, churn = fast_results["multipath"]
        single = points[0]._replace(dropped=points[0].dropped + 1)
        assert fails("multipath", ([single] + points[1:], churn))
        weak = points[-1]._replace(throughput_x=1.4)
        assert fails("multipath", (points[:-1] + [weak], churn))
        assert fails("multipath", (points, churn._replace(misses=1)))

    def test_adversary(self, fast_results):
        matrix = fast_results["adversary"]
        unreconciled = matrix[3]._replace(metrics_reconciled=False)
        assert not unreconciled.ok
        assert fails("adversary",
                     matrix[:3] + [unreconciled] + matrix[4:])
        stormed = matrix[0]._replace(watchdog_rebuilds=1)
        assert fails("adversary", [stormed] + matrix[1:])
        assert fails("adversary", matrix[:-1])  # a cell went missing

    def test_multihop(self, fast_results):
        runs, loss = fast_results["multihop"]
        corrupted = runs[1]._replace(identical=False)
        assert fails("multihop", ([runs[0], corrupted, runs[2]], loss))
        fragmenting = runs[2]._replace(sender_fragments=3)
        assert fails("multihop", (runs[:2] + [fragmenting], loss))
        assert fails("multihop", (runs, loss._replace(ratio=1.2)))

    def test_shard(self, fast_results):
        runs = fast_results["shard"]
        assert fails("shard", [runs[0]._replace(reconciled=False)] + runs[1:])
        diverged = runs[-1]._replace(stream_digest=runs[-1].stream_digest ^ 1)
        assert fails("shard", runs[:-1] + [diverged])

    def test_recovery(self, fast_results):
        tcp, watchdog = fast_results["recovery"]
        truncated = tcp[1]._replace(complete=False)
        assert fails("recovery", ([tcp[0], truncated] + tcp[2:], watchdog))
        late = watchdog._replace(
            detection_latency_us=watchdog.stall_budget_us + 200_000.0)
        assert fails("recovery", (tcp, late))
        assert fails("recovery", (tcp, watchdog._replace(rebuilds=0)))
