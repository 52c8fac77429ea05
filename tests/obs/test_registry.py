"""Unit tests for the metrics registry (counters, gauges, histograms)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs.registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_prometheus,
)


class TestLogBuckets:
    def test_endpoints_included(self):
        edges = log_buckets(1.0, 100.0, 3)
        assert edges == (1.0, 10.0, 100.0)

    def test_monotone_and_sized(self):
        edges = log_buckets(0.0005, 60.0, 15)
        assert len(edges) == 15
        assert list(edges) == sorted(edges)
        assert edges == LATENCY_BUCKETS

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            log_buckets(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, 1)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_raises(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        counter.inc(5)
        assert counter.value == 0.0
        registry.enable()
        counter.inc(5)
        assert counter.value == 5.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(2.0)
        gauge.dec(5.0)
        assert gauge.value == 7.0


class TestHistogram:
    def test_observe_fills_correct_bucket(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        hist.observe(0.5)   # <= 1
        hist.observe(10.0)  # <= 10 (boundary lands in its edge bucket)
        hist.observe(1e6)   # overflow -> +Inf
        view = hist.snapshot()
        assert view["cumulative_counts"] == [1, 2, 2, 3]
        assert view["count"] == 3
        assert view["sum"] == pytest.approx(0.5 + 10.0 + 1e6)

    def test_observe_many_matches_singles(self):
        registry = MetricsRegistry()
        a = registry.histogram("a", buckets=(1.0, 4.0))
        b = registry.histogram("b", buckets=(1.0, 4.0))
        values = [0.1, 2.0, 3.0, 100.0]
        a.observe_many(values)
        for v in values:
            b.observe(v)
        assert a.snapshot()["cumulative_counts"] == b.snapshot()["cumulative_counts"]

    def test_observe_many_edges_nan_and_inf_match_singles(self):
        registry = MetricsRegistry()
        buckets = (0.5, 1.0, 4.0)
        a = registry.histogram("a", buckets=buckets)
        b = registry.histogram("b", buckets=buckets)
        values = [0.5, 1.0, 4.0, np.nextafter(4.0, 5.0), -np.inf, np.inf, np.nan, 0.0, -3.0]
        a.observe_many(np.array(values))
        for v in values:
            b.observe(v)
        assert a.snapshot()["cumulative_counts"] == b.snapshot()["cumulative_counts"]
        # Edges are inclusive; NaN and +Inf land in the +Inf bucket only.
        assert a.snapshot()["cumulative_counts"] == [4, 5, 6, 9]
        assert a.count == b.count == len(values)

    def test_observe_many_sum_is_pythons_sum(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))
        values = np.random.default_rng(0).lognormal(size=1000)
        hist.observe_many(values)
        hist.observe_many(v for v in values[:10])  # any iterable
        assert hist.sum == sum(values.tolist()) + sum(values[:10].tolist())
        assert hist.count == 1010

    def test_time_uses_injectable_clock(self):
        ticks = iter([10.0, 13.5])
        registry = MetricsRegistry(clock=lambda: next(ticks))
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        with hist.time():
            pass
        assert hist.sum == pytest.approx(3.5)
        assert hist.count == 1

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(10.0, 1.0))

    def test_labeled_children_inherit_buckets(self):
        hist = MetricsRegistry().histogram(
            "h", labels=("engine",), buckets=(2.0, 8.0)
        )
        child = hist.labels("batch")
        child.observe(5.0)
        assert child.snapshot()["buckets"] == [2.0, 8.0]
        assert child.count == 1


class TestLabels:
    def test_positional_and_keyword_equivalent(self):
        counter = MetricsRegistry().counter("c_total", labels=("engine", "rule"))
        assert counter.labels("batch", "budget") is counter.labels(
            rule="budget", engine="batch"
        )

    def test_wrong_arity_raises(self):
        counter = MetricsRegistry().counter("c_total", labels=("engine",))
        with pytest.raises(ValueError):
            counter.labels("a", "b")

    def test_children_are_independent(self):
        counter = MetricsRegistry().counter("c_total", labels=("engine",))
        counter.labels("batch").inc(3)
        counter.labels("per-query").inc(1)
        values = {
            labels[0]: child.value
            for labels, child in counter.children()
            if child is not counter
        }
        assert values == {"batch": 3.0, "per-query": 1.0}


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", labels=("x",))
        b = registry.counter("c_total", labels=("x",))
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labels=("b",))

    def test_reset_zeroes_but_keeps_families(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("engine",))
        counter.labels("batch").inc(7)
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(0.5)
        registry.reset()
        assert counter.labels("batch").value == 0.0
        assert hist.count == 0

    def test_snapshot_keys(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("engine",)).labels("batch").inc(2)
        registry.gauge("g").set(1.5)
        snap = registry.snapshot()
        assert snap["c_total{engine=batch}"] == 2.0
        assert snap["g"] == 1.5

    def test_concurrent_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("c_total")

        def hammer():
            for __ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000.0


class TestRenderPrometheus:
    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", labels=("engine",)).labels(
            "batch"
        ).inc(2)
        registry.histogram("h", "a histogram", buckets=(1.0, 10.0)).observe(0.5)
        text = render_prometheus(registry)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{engine="batch"} 2' in text
        assert "# TYPE h histogram" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_duplicate_family_across_registries_raises(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("dup_total")
        b.counter("dup_total")
        with pytest.raises(ValueError):
            render_prometheus(a, b)

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labels=("x",)).labels('he said "hi"\n').inc()
        text = render_prometheus(registry)
        assert r'x="he said \"hi\"\n"' in text


class TestInstrumentClasses:
    def test_kinds(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("a_total"), Counter)
        assert isinstance(registry.gauge("b"), Gauge)
        assert isinstance(registry.histogram("c"), Histogram)
