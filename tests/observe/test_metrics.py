"""MetricsRegistry unit tests: series identity, semantics, rendering."""

import pytest

from repro.observe import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("msgs", path="P0")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counters_only_go_up(self):
        c = MetricsRegistry().counter("msgs")
        with pytest.raises(ValueError):
            c.inc(-1.0)


class TestGauge:
    def test_tracks_extremes(self):
        g = MetricsRegistry().gauge("depth")
        for level in (3, 7, 2):
            g.set(level)
        assert g.value == 2
        assert g.max_value == 7
        assert g.min_value == 2


class TestHistogram:
    def test_buckets_and_overflow(self):
        h = Histogram("wait", (), bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            h.observe(value)
        assert h.buckets == [1, 1, 1, 1]  # last is the overflow bucket
        assert h.count == 4
        assert h.sum == 555.5
        assert h.min == 0.5 and h.max == 500.0
        assert h.mean == pytest.approx(138.875)

    def test_bounds_are_sorted_on_construction(self):
        h = Histogram("x", (), bounds=(100.0, 1.0, 10.0))
        assert h.bounds == (1.0, 10.0, 100.0)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("x", ()).mean == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("msgs", path="P0", direction="BWD")
        b = reg.counter("msgs", direction="BWD", path="P0")  # label order
        assert a is b
        assert len(reg) == 1

    def test_different_labels_are_different_series(self):
        reg = MetricsRegistry()
        assert reg.counter("msgs", path="P0") is not reg.counter("msgs",
                                                                 path="P1")
        assert len(reg) == 2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        reg.histogram("h")
        with pytest.raises(TypeError):
            reg.counter("h")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_get_returns_none_for_unknown(self):
        reg = MetricsRegistry()
        assert reg.get("nope") is None
        reg.counter("yes", path="P0")
        assert reg.get("yes", path="P0") is not None
        assert reg.get("yes", path="P1") is None

    def test_series_filters_by_name_and_label_subset(self):
        reg = MetricsRegistry()
        reg.counter("drops", path="P0", category="overflow").inc(2)
        reg.counter("drops", path="P0", category="teardown").inc(3)
        reg.counter("drops", path="P1", category="overflow").inc(5)
        reg.counter("other", path="P0").inc(100)
        assert len(list(reg.series("drops"))) == 3
        assert len(list(reg.series("drops", path="P0"))) == 2
        assert len(list(reg.series("drops", category="overflow"))) == 2

    def test_total_sums_matching_counters(self):
        reg = MetricsRegistry()
        reg.counter("drops", path="P0").inc(2)
        reg.counter("drops", path="P1").inc(3)
        assert reg.total("drops") == 5
        assert reg.total("drops", path="P1") == 3
        assert reg.total("absent") == 0

    def test_render_is_sorted_and_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b_metric", path="P1").inc()
            reg.counter("a_metric", path="P0").inc(2)
            reg.gauge("depth", queue="bwd_in").set(4)
            reg.histogram("wait", bounds=(10.0, 100.0)).observe(42.0)
            return reg.render()

        text = build()
        assert text == build()
        lines = text.splitlines()
        assert lines[0].startswith("# metrics snapshot (4 series)")
        assert lines[1].startswith("a_metric")
        assert "a_metric{path=P0} 2" in text
        assert "depth{queue=bwd_in} 4 (max 4)" in text
        assert "le_100=1" in text

    def test_as_dict_flattens_series(self):
        reg = MetricsRegistry()
        reg.counter("msgs", path="P0").inc(7)
        reg.histogram("wait").observe(1.0)
        flat = reg.as_dict()
        assert flat["msgs{path=P0}"] == 7
        assert flat["wait"] == 1  # histograms report their counts


class TestCollect:
    def test_source_is_read_afresh_on_every_lookup_and_render(self):
        book = {"hits": 0}
        reg = MetricsRegistry()
        reg.collect(lambda: [("hits_total", {"cache": "c0"}, book["hits"])])
        assert reg.get("hits_total", cache="c0").value == 0
        book["hits"] = 3
        assert reg.get("hits_total", cache="c0").value == 3
        assert reg.total("hits_total") == 3
        assert "hits_total{cache=c0} 3" in reg.render()
        book["hits"] = 5
        assert reg.as_dict() == {"hits_total{cache=c0}": 5}
        assert "hits_total{cache=c0} 5" in reg.render()
        assert len(reg) == 1

    def test_sources_yielding_one_key_add(self):
        reg = MetricsRegistry()
        reg.collect(lambda: [("drops", {"reason": "full"}, 2)])
        reg.collect(lambda: [("drops", {"reason": "full"}, 3),
                             ("drops", {"reason": "closed"}, 1)])
        assert reg.get("drops", reason="full").value == 5
        assert reg.total("drops") == 6
        assert len(reg) == 2

    def test_collected_and_stored_series_render_together(self):
        reg = MetricsRegistry()
        reg.counter("b_stored").inc()
        reg.collect(lambda: [("a_collected", {}, 4)])
        lines = reg.render().splitlines()
        assert lines == ["# metrics snapshot (2 series)",
                         "a_collected 4", "b_stored 1"]

    def test_stored_and_collected_key_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", cache="c0").inc()
        reg.collect(lambda: [("hits_total", {"cache": "c0"}, 1)])
        with pytest.raises(TypeError):
            reg.get("hits_total", cache="c0")
        with pytest.raises(TypeError):
            reg.render()
